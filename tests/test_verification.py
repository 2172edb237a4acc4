"""Verification suites on a wrong answer: a closed form, a decision or a
construction that the suites import is replaced by a faulty one, and the
suite must report it as FAIL rows that name the problem, never raise.  On
the right answers every row of every suite is pinned by its digest."""

import dataclasses

import pytest

from sigma_spectra import Colouring, verification
from sigma_spectra.cli import main
from sigma_spectra.engine import decide_k
from sigma_spectra.formulas import max_sum_capped_head
from support import load_search_digest


def max_sum_off_by_one(a, b, d):
    return max_sum_capped_head(a, b, d) + 1


def decide_k_flipping_4(spec, k, *args, **kwargs):
    decision = decide_k(spec, k, *args, **kwargs)
    if k != 4:
        return decision
    flipped = "feasible" if decision.verdict == "infeasible" else "infeasible"
    return dataclasses.replace(decision, verdict=flipped)


def one_colour(spec, k):
    """A solid colouring with one colour, whatever ``k`` asks for."""
    return Colouring(classes=((0,) * spec.q,) * spec.n)


FAULTS = {
    "lemmas-max-sum-off-by-one": (
        "lemmas", "max_sum_capped_head", max_sum_off_by_one, "!="),
    "appendix-k4-flipped": (
        "appendix", "decide_k", decide_k_flipping_4, "k=4 feasible, not infeasible"),
    "gaps-no-zone": (
        "gaps", "mono_zone", lambda spec: None, "zone None does not sit above the gap"),
    "zone-wrong-colour-count": (
        "zone", "mono_colouring", one_colour, "construction failed validation"),
    "gaps-wrong-colour-count": (
        "gaps", "mono_colouring", one_colour, "construction failed validation"),
}


@pytest.mark.parametrize("suite, name, fault, problem", FAULTS.values(), ids=FAULTS)
def test_a_faulty_import_gives_fail_rows_naming_it(monkeypatch, suite, name, fault,
                                                    problem):
    monkeypatch.setattr(verification, name, fault)
    failed = [row for row in verification.SUITES[suite]() if not row.passed]
    assert failed
    assert all(problem in row.detail for row in failed), failed


def test_verify_exits_1_with_fail_lines_on_a_failing_suite(monkeypatch, capsys):
    monkeypatch.setattr(verification, "max_sum_capped_head", max_sum_off_by_one)
    assert main(["verify", "--suite", "lemmas"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  bounds a=2 d=2") for line in out.splitlines())
    assert "FAILED:" in out


# the verify line of tools/search_digest.py, pinned: a change to the suites
# that claims to move no verdict or detail keeps it
VERIFY_SHA256 = "99c813f21a32bf5ced57482d1c35d21a8c01bac46c4e013dfb2c64721efc3a25"


def test_verify_digest_is_pinned():
    module = load_search_digest()
    assert module.sha256_of(module.verify_records()) == VERIFY_SHA256
