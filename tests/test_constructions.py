"""Constructive colourings and recolouring walks."""

import json
import random

import pytest

from sigma_spectra import (
    Colouring,
    HypergraphSpec,
    InfeasibleError,
    NotApplicableError,
    beta_colouring,
    build_sigma,
    canonical_colouring,
    gap_instance_params,
    is_valid,
    layered_colouring,
    mono_colouring,
    mono_distribution,
    mono_zone,
    mono_zone_lower_bound,
    recolour_whole_class,
    spectrum,
    spectrum_walk,
    spectrum_walk_steps,
    split_to_fixed,
)
from sigma_spectra.cli import main
from sigma_spectra.verification import gap_cells, zone_grid


def spec_of(n, q, parts, alpha, beta):
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


class TestMonoColouring:
    def test_one_colour_per_class(self):
        spec = spec_of(6, 3, [1, 1, 1], 2, 3)
        c = mono_colouring(spec, 6)
        assert c.colour_count == 6
        assert all(len(set(cls)) == 1 for cls in c.classes)
        assert is_valid(spec, c)

    def test_balanced_distribution(self):
        spec = spec_of(6, 3, [1, 1, 1], 2, 3)
        assert mono_distribution(spec, 3).counts == (2, 2, 2)

    def test_overfull_heads_when_units_underfill(self):
        # s=4, alpha=3: each colour normally covers 1 class, one may take 2
        spec = spec_of(9, 1, [1, 1, 1, 1], 3, 4)
        dist = mono_distribution(spec, 8)
        assert sum(dist.counts) == 9 and dist.num_colours == 8
        assert dist.head_sum(spec.alpha - 1) <= spec.sigma.s - 1
        c = mono_colouring(spec, 8)
        assert is_valid(spec, c) and c.colour_count == 8

    def test_outside_zone_is_infeasible(self):
        spec = spec_of(5, 2, [2, 2], 2, 2)
        with pytest.raises(InfeasibleError):
            mono_colouring(spec, 4)

    def test_every_zone_point_validates(self):
        spec = spec_of(7, 2, [2, 1], 2, 2)
        for k in mono_zone(spec):
            c = mono_colouring(spec, k)
            assert c.colour_count == k and is_valid(spec, c)


class TestLayeredColouring:
    SPEC = spec_of(6, 4, [1, 1, 1], 2, 7)  # k = 2 colours per class

    def test_base_palette_count(self):
        c = layered_colouring(self.SPEC, 12)
        assert c.colour_count == 12
        assert is_valid(self.SPEC, c)

    def test_extra_singleton(self):
        c = layered_colouring(self.SPEC, 13)
        assert c.colour_count == 13
        assert is_valid(self.SPEC, c)

    def test_above_range_rejected(self):
        # the last spec is edgeless with n < beta - k*s: its one class
        # cannot hold two singletons
        for spec, k_target in ((self.SPEC, 14), (self.SPEC, 11),
                               (spec_of(1, 2, [1, 1, 1], 2, 5), 3)):
            with pytest.raises(InfeasibleError):
                layered_colouring(spec, k_target)

    def test_requires_window_around_s(self):
        with pytest.raises(NotApplicableError):
            layered_colouring(spec_of(7, 6, [6, 6], 3, 3), 7)

    def test_class_too_small_for_palette(self):
        # k = floor(8/2) = 4 distinct colours cannot fit in q = 3
        with pytest.raises(InfeasibleError):
            layered_colouring(spec_of(3, 3, [1, 1], 2, 8), 12)

    def test_no_repeated_colour_to_free_for_extras(self):
        # q == k: the base palette uses every vertex once, extras impossible
        with pytest.raises(InfeasibleError):
            layered_colouring(spec_of(3, 2, [1, 1], 2, 5), 7)

    def test_whole_range_validates(self):
        spec = spec_of(4, 3, [2, 1], 2, 5)  # k=2, extras up to 1
        lo, hi = 8, 9
        for kt in range(lo, hi + 1):
            c = layered_colouring(spec, kt)
            assert c.colour_count == kt and is_valid(spec, c)


def test_builders_are_canonical_by_construction():
    """The builders lay out their canonical form without canonicalising."""
    built = []
    for spec in zone_grid():
        if spec.n > 5:
            continue
        built += [mono_colouring(spec, k) for k in mono_zone(spec)]
        for k_target in range(1, spec.num_vertices + 1):
            try:
                built.append(layered_colouring(spec, k_target))
            except InfeasibleError:
                pass
    for alpha, beta, parts in gap_cells():
        sigma = build_sigma(parts)
        q, n = gap_instance_params(alpha, beta, sigma)
        built.append(beta_colouring(HypergraphSpec(
            n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)))
    assert any(len(set(cls)) > 2 for c in built for cls in c.classes)
    for c in built:
        assert canonical_colouring(c) == c
    # n = 7 is past what canonicalising in a test affords; these are the
    # layered forms pinned in test_core.py
    assert layered_colouring(spec_of(7, 5, [1, 1], 2, 4), 14).classes == (
        (0, 0, 0, 1, 1), (2, 2, 2, 3, 3), (4, 4, 4, 5, 5), (6, 6, 6, 7, 7),
        (8, 8, 8, 9, 9), (10, 10, 10, 11, 11), (12, 12, 12, 13, 13))
    assert layered_colouring(spec_of(7, 5, [1, 1, 1], 2, 8), 16).classes == (
        (0, 0, 0, 1, 1), (2, 2, 2, 3, 3), (4, 4, 4, 5, 5), (6, 6, 6, 7, 7),
        (8, 8, 8, 9, 9), (10, 10, 11, 11, 12), (13, 13, 14, 14, 15))


class TestBetaColouring:
    @pytest.mark.parametrize("alpha,beta,parts,mults", [
        (2, 2, [2, 2], (1, 1)),
        (2, 3, [3, 2], (2, 2, 2)),
        (2, 2, [3, 1], (2, 2)),
    ])
    def test_multiplicity_pattern(self, alpha, beta, parts, mults):
        sigma = build_sigma(parts)
        q, n_min = gap_instance_params(alpha, beta, sigma)
        spec = HypergraphSpec(n=n_min, q=q, sigma=sigma, alpha=alpha, beta=beta)
        c = beta_colouring(spec)
        assert c.colour_count == beta
        assert is_valid(spec, c)
        for cls in c.classes:
            counts = sorted(
                (cls.count(col) for col in set(cls)), reverse=True
            )
            assert tuple(counts) == tuple(sorted(mults, reverse=True))

    def test_head_coverage_cap(self):
        # any alpha-1 colours cover at most delta_max - 1 vertices per class
        import itertools
        sigma = build_sigma([3, 2])
        q, n_min = gap_instance_params(2, 3, sigma)
        spec = HypergraphSpec(n=n_min, q=q, sigma=sigma, alpha=2, beta=3)
        c = beta_colouring(spec)
        for cls in c.classes:
            for head in itertools.combinations(set(cls), spec.alpha - 1):
                covered = sum(cls.count(col) for col in head)
                assert covered <= sigma.delta_max - 1

    def test_wrong_q_rejected(self):
        spec = spec_of(5, 3, [2, 2], 2, 2)  # construction needs q=2
        with pytest.raises(InfeasibleError):
            beta_colouring(spec)

    def test_window_above_part_count_still_buildable(self):
        # the balanced pattern needs only Delta >= alpha and the recipe q,
        # so it exists even where the gap recipe itself does not apply
        spec = spec_of(4, 3, [3, 1], 3, 3)
        c = beta_colouring(spec)
        assert c.colour_count == 3
        assert is_valid(spec, c)
        assert all(sorted(cls) == [0, 1, 2] for cls in c.classes)

    def test_largest_part_below_alpha_not_applicable(self):
        with pytest.raises(NotApplicableError):
            beta_colouring(spec_of(4, 2, [2, 2], 3, 3))


WALK_SPEC = spec_of(4, 3, [2, 2], 2, 3)  # smallest part >= r - beta + 1


def valid_witness(spec, k):
    res = spectrum(spec)
    assert k in res.witnesses
    return res.witnesses[k]


class TestRecolourOps:
    def test_whole_class_gets_private_colour(self):
        start = valid_witness(WALK_SPEC, 4)
        out = recolour_whole_class(start, 2)
        assert is_valid(WALK_SPEC, out)

    def test_unique_monochromatic_class_keeps_count(self):
        mono = Colouring(classes=((9, 9),) + tuple((0, j) for j in (1, 2, 3, 4)))
        out = recolour_whole_class(mono, 0)
        assert out.colour_count == mono.colour_count

    def test_shared_colours_class_gains_one(self):
        shared = Colouring(classes=((0, 1, 1), (0, 1, 2), (0, 2, 2), (0, 1, 2)))
        out = recolour_whole_class(shared, 0)
        assert out.colour_count == shared.colour_count + 1

    def test_split_requires_private_colours(self):
        c = Colouring(classes=((1, 2, 3), (1, 4, 4)))
        with pytest.raises(InfeasibleError):
            split_to_fixed(c, 0, 1, 2)  # source shared with class 1
        with pytest.raises(InfeasibleError):
            split_to_fixed(c, 0, 2, 2)  # source == target
        out = split_to_fixed(c, 0, 3, 2)
        assert out.colour_count == c.colour_count - 1

    def test_mono_colouring_on_edgeless_instance(self):
        spec = spec_of(3, 1, [2, 1], 2, 2)  # q below the largest part
        for k in (1, 2, 3):
            c = mono_colouring(spec, k)
            assert c.colour_count == k
            assert is_valid(spec, c)

    def test_randomised_applications_preserve_validity(self):
        rng = random.Random(2024)
        specs = [
            WALK_SPEC,
            spec_of(4, 2, [1, 1], 2, 2),
            spec_of(5, 2, [2, 1], 2, 3),
            spec_of(6, 2, [1, 1, 1], 2, 3),
        ]
        pools = {}
        for spec in specs:
            res = spectrum(spec)
            pools[spec] = [res.witnesses[k] for k in res.feasible_k]
        applications = 0
        while applications < 250:
            spec = rng.choice(specs)
            current = rng.choice(pools[spec])
            for _ in range(rng.randint(1, 4)):
                privates = {}
                for i, cls in enumerate(current.classes):
                    owners = {}
                    for j, other in enumerate(current.classes):
                        for col in other:
                            owners.setdefault(col, set()).add(j)
                    mine = [c for c in set(cls) if owners[c] == {i}]
                    if len(mine) >= 2:
                        privates[i] = sorted(mine)
                if privates and rng.random() < 0.5:
                    i = rng.choice(sorted(privates))
                    x, y = rng.sample(privates[i], 2)
                    current = split_to_fixed(current, i, x, y)
                else:
                    i = rng.randrange(current.n)
                    current = recolour_whole_class(current, i)
                applications += 1
                assert is_valid(spec, current), (str(spec), current)
        assert applications >= 250


class TestWalks:
    def test_down_walk_reaches_n_plus_one(self):
        res = spectrum(WALK_SPEC)
        start = res.witnesses[res.chi_bar]
        walk = spectrum_walk(WALK_SPEC, start, "down")
        counts = [c.colour_count for c in walk]
        assert counts[0] == res.chi_bar
        assert counts[-1] == WALK_SPEC.n + 1
        assert all(b - a == -1 for a, b in zip(counts, counts[1:]))
        for c in walk:
            assert is_valid(WALK_SPEC, c)

    def test_down_walk_from_layered_start(self):
        spec = spec_of(5, 3, [1, 1], 2, 2)  # k = 1 per class: start == mono n
        start = valid_witness(spec, spec.n + 2)
        walk = spectrum_walk(spec, start, "down")
        assert [c.colour_count for c in walk] == [7, 6]

    def test_up_walk_reaches_zone_edge(self):
        spec = spec_of(6, 3, [2, 2], 2, 3)
        res = spectrum(spec)
        start = res.witnesses[res.chi]
        walk = spectrum_walk(spec, start, "up")
        counts = [c.colour_count for c in walk]
        assert counts[0] == res.chi
        assert all(b - a == 1 for a, b in zip(counts, counts[1:]))
        assert counts[-1] == mono_zone_lower_bound(spec) - 1
        for c in walk:
            assert is_valid(spec, c)

    def test_up_walk_inside_zone_is_trivial(self):
        # starting at n colours (zone interior): nothing to do, the zone
        # itself is covered by the solid colourings
        spec = spec_of(6, 2, [2, 1], 2, 3)
        start = mono_colouring(spec, spec.n)
        walk = spectrum_walk(spec, start, "up")
        assert [c.colour_count for c in walk] == [spec.n]

    def test_walk_requires_alpha_two(self):
        spec = spec_of(5, 2, [2, 2], 3, 3)
        c = Colouring(classes=tuple((0, j + 1) for j in range(5)))
        with pytest.raises(NotApplicableError):
            spectrum_walk(spec, c, "down")

    def test_walk_rejects_invalid_start(self):
        bad = Colouring(classes=((0, 0, 0),) * 4)
        with pytest.raises(InfeasibleError):
            spectrum_walk(WALK_SPEC, bad, "down")

    def test_stuck_walk_raises_diagnostic(self, monkeypatch):
        # force the fallback to fail: a stuck walk whose adjacent k the
        # engine cannot supply is a diagnostic, never silently dropped
        import sigma_spectra.constructions as cons
        spec = spec_of(4, 4, [3, 3], 2, 6)
        start = Colouring(classes=(
            (0, 1, 2, 0), (0, 1, 2, 1), (3, 4, 5, 3), (3, 4, 5, 4),
        ))
        monkeypatch.setattr(cons, "k_colourable", lambda *a, **k: None)
        from sigma_spectra import TheoremViolationError
        with pytest.raises(TheoremViolationError):
            spectrum_walk_steps(spec, start, "down")

    def test_step_kinds_recorded(self):
        res = spectrum(WALK_SPEC)
        start = res.witnesses[res.chi_bar]
        steps = spectrum_walk_steps(WALK_SPEC, start, "down")
        assert steps, "expected at least one step"
        kinds = {ws.step.kind for ws in steps}
        allowed = {"whole-class-to-new", "split-to-fixed", "engine-fallback"}
        assert kinds <= allowed
        assert all(is_valid(WALK_SPEC, ws.colouring) for ws in steps)

    def test_down_walk_folds_private_colours_beside_a_shared_one(self):
        # class 0 holds shared colour 0 and private colours 1 and 2; the
        # walk folds 2 into 1 in place (merging both into a fresh colour
        # gives the same colouring up to renaming)
        spec = spec_of(2, 3, [2, 2], 2, 4)
        start = Colouring(classes=((0, 1, 2), (0, 3, 3)))
        steps = spectrum_walk_steps(spec, start, "down")
        assert [(ws.step.kind, ws.step.class_index) for ws in steps] == [
            ("split-to-fixed", 0)]
        assert steps[0].colouring.classes == ((0, 1, 1), (0, 3, 3))

    def test_direction_validated(self):
        res = spectrum(WALK_SPEC)
        start = res.witnesses[res.chi_bar]
        with pytest.raises(ValueError):
            spectrum_walk(WALK_SPEC, start, "sideways")

    def test_engine_fallback_when_no_local_move_applies(self):
        # every colour is shared between two classes, so no class has a
        # private colour and no local down-move exists at 6 > n+1 = 5
        spec = spec_of(4, 4, [3, 3], 2, 6)
        start = Colouring(classes=(
            (0, 1, 2, 0), (0, 1, 2, 1), (3, 4, 5, 3), (3, 4, 5, 4),
        ))
        assert is_valid(spec, start)
        steps = spectrum_walk_steps(spec, start, "down")
        assert [ws.step.kind for ws in steps] == ["engine-fallback"]
        assert steps[-1].colour_count == 5
        assert steps[-1].step.class_index is None


def _paired_start(n, q):
    """Classes 2i and 2i+1 share the palette 3i, 3i+1, 3i+2."""
    return Colouring(classes=tuple(
        tuple((i // 2) * 3 + j % 3 for j in range(q)) for i in range(n)))


def _library_walk(spec, start, direction):
    steps = spectrum_walk_steps(spec, start, direction)
    return start.classes, [(ws.step.kind, ws.step.class_index,
                            ws.colouring.classes) for ws in steps]


def _cli_walk(capsys):
    """The report of ``TestWalkCommand.test_down_walk_steps``."""
    assert main(["walk", "--n", "4", "--r", "4", "--q", "3", "--sigma", "2,2",
                 "--alpha", "2", "--beta", "3",
                 "--direction", "down", "--start-k", "6"]) == 0
    report = json.loads(capsys.readouterr().out)["result"]

    def classes(colouring):
        return tuple(map(tuple, colouring["classes"]))
    return classes(report["start"]), [
        (s["kind"], s["class_index"], classes(s["colouring"]))
        for s in report["steps"]]


IN_PLACE_WALKS = {
    "layered-down": lambda _: _library_walk(
        spec_of(5, 4, [1, 1], 2, 4),
        layered_colouring(spec_of(5, 4, [1, 1], 2, 4), 10), "down"),
    # no private colour: the first step is an engine fallback
    "paired-4x4-down": lambda _: _library_walk(
        spec_of(4, 4, [3, 3], 2, 6), _paired_start(4, 4), "down"),
    # a local step after the fallback starts from the engine's witness
    "paired-6x4-down": lambda _: _library_walk(
        spec_of(6, 4, [3, 3], 2, 6), _paired_start(6, 4), "down"),
    "chi-witness-up": lambda _: _library_walk(
        spec_of(6, 2, [2, 2], 2, 3),
        valid_witness(spec_of(6, 2, [2, 2], 2, 3), 2), "up"),
    "cli-report-down": _cli_walk,
}


@pytest.mark.parametrize("case", sorted(IN_PLACE_WALKS))
def test_walk_snapshots_change_only_the_recoloured_class(case, capsys):
    """A local step's snapshot is the previous one with class
    ``class_index`` replaced; an engine fallback's is the engine witness."""
    before, steps = IN_PLACE_WALKS[case](capsys)
    assert steps
    for kind, index, after in steps:
        if kind == "engine-fallback":
            assert index is None
        else:
            assert len(after) == len(before)
            changed = [i for i, (a, b) in enumerate(zip(before, after))
                       if a != b]
            assert changed == [index], (kind, before, after)
        before = after


def test_no_library_path_canonicalises(monkeypatch, capsys):
    """Engine witnesses, walks and the CLI keep the layout they were built
    in; only a direct ``canonical_colouring`` call canonicalises."""
    from sigma_spectra import constructions, core, engine

    def refuse(colouring):
        raise AssertionError(f"canonicalised {colouring}")
    for module in (core, engine, constructions):
        monkeypatch.setattr(module, "canonical_colouring", refuse)

    spec = spec_of(3, 2, [2, 2], 2, 3)
    res = spectrum(spec)
    assert res.feasible_k == (2, 3, 4)
    _, steps = _library_walk(spec_of(4, 4, [3, 3], 2, 6),
                             _paired_start(4, 4), "down")
    assert [kind for kind, _, _ in steps] == ["engine-fallback"]
    assert main(["construct", "--n", "3", "--r", "4", "--q", "2",
                 "--sigma", "2,2", "--alpha", "2", "--beta", "3",
                 "--kind", "engine", "--k", "2", "--raw"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == [
        [0, 0], [1, 1], [0, 1]]
