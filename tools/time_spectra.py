"""Time whole engine spectra in process, one line per spectrum, one for a
lone decision and one for the whole no-gap grid.

Each line holds the spectrum's name, its wall time in seconds, the total of
its per-k node counts, its (group, binding) shape checks and its feasible k,
so two checkouts can be compared: equal ``nodes=``, ``checks=`` and
``feasible=`` fields mean the same search, and only the seconds may differ.
``search_digest.check_counter`` counts the checks in a second, untimed run
of each spectrum, so the seconds stay those of a plain run.  The set is the
slowest spectrum of the no-gap grid, at alpha = 2; six with alpha >= 3,
where the engine keeps a verdict table per family for the low end of the
colour window; and one of wide classes, q = 36, whose time is spent on the
partitions of q its search context lists and scans.

The ``decide`` line times one decision, the appendix gap fixture's k = 4
infeasibility proof, H(7,6|(6,6)), alpha = beta = 3, in a fresh search
context: most of the ``gap-proof`` benchmark workload's time is spent in
it, so a change to the failing steps of the search shows there.  It holds
the seconds, the node count (507599) and the shape checks, counted as for
a spectrum.

Those nine lines are search-bound.  The last line, ``nogap-grid``, times
the 108 spectra of ``verification.nogap_grid()`` together, each in a fresh
search context, as the ``nogap-sweep`` benchmark workload runs them, so
work done per context (colour windows, profile ids, shape groups) shows in
it too.
Its ``nodes=`` and ``checks=`` equal those of ``tools/search_digest.py``'s
``nogap-sweep`` line.

The ``certify`` line times the validator layer: the 13 jobs of the
``certify-walk`` benchmark workload at seed 1 (construct, walk down,
validate and probe no-gap instances past the oracle's 12 vertices), run in
process from empty validator caches.  ``bench/workloads.py`` is loaded
read-only, as ``tests/support.py`` loads it, and no bytecode is written.
The line holds the seconds, the validator's ``range_of_keys`` calls and the
range solver's misses (``validator._range_of.cache_info()``), and
``class_misses``, the distinct classes whose profile key and range row
were built (``validator._class_data``).  Whole-class bounds prove most of
the walk's valid colourings valid before the shape scan, so its range
calls fell 382 -> 29 and misses 118 -> 21 (``class_misses`` is unchanged).

The ``validate`` line times ``is_valid`` on three mono-zone colourings of
H(90,4|(2,2,2)), alpha = 2, beta = 5 (``constructions.mono_colouring`` at
the zone's two ends and its middle k), 117,480 class triples each.  Every
colour fills at most two classes, so whole-class bounds prove them valid
without the shape scan (``validator._certified``).  The line holds the seconds, the verdicts and the
validator's ``range_of_keys`` calls, which read 0 when no shape is solved.

    python tools/time_spectra.py
"""

import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from search_digest import check_counter  # noqa: E402
from sigma_spectra import (  # noqa: E402
    HypergraphSpec, build_sigma, core, decide_k, is_valid, mono_colouring, mono_zone,
    spectrum, validator,
)
from sigma_spectra.verification import nogap_grid  # noqa: E402

# (n, q, sigma's parts, alpha, beta)
SPECTRA = [
    (6, 4, (2, 2, 2), 2, 5),
    (5, 4, (2, 2, 2), 4, 6),
    (5, 6, (3, 3), 4, 6),
    (5, 4, (3, 2, 1), 3, 5),
    (6, 6, (6, 6), 3, 3),
    (5, 5, (2, 2, 1), 4, 5),
    (6, 3, (1, 1, 1, 1), 3, 4),
    (2, 36, (1, 1), 2, 2),
]
# (n, q, sigma's parts, alpha, beta), k
DECISION = (7, 6, (6, 6), 3, 3), 4
CERTIFY_SEED = 1
# (n, q, sigma's parts, alpha, beta)
VALIDATE = (90, 4, (2, 2, 2), 2, 5)


def timed(specs) -> tuple[float, list, int]:
    """The seconds the spectra of ``specs`` take in one timed run, the
    spectra, and their shape checks, counted in a second, untimed run."""
    start = time.perf_counter()
    results = [spectrum(spec) for spec in specs]
    seconds = time.perf_counter() - start
    with check_counter() as counter:
        for spec in specs:
            spectrum(spec)
    return seconds, results, counter.checks


def spec_of(n, q, parts, alpha, beta) -> HypergraphSpec:
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


def bench_workloads():
    """``bench/workloads.py`` as a module of its own name, no bytecode
    written beside it."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    sys.modules[spec.name] = module
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def main() -> None:
    for row in SPECTRA:
        spec = spec_of(*row)
        seconds, (res,), checks = timed([spec])
        print(f"{spec}: seconds={seconds:.3f} nodes={sum(res.nodes_explored.values())} "
              f"checks={checks} feasible={list(res.feasible_k)}", flush=True)
    row, k = DECISION
    spec = spec_of(*row)
    start = time.perf_counter()
    decision = decide_k(spec, k)
    seconds = time.perf_counter() - start
    with check_counter() as counter:
        decide_k(spec, k)
    print(f"decide {spec} k={k}: seconds={seconds:.3f} nodes={decision.nodes} "
          f"checks={counter.checks} verdict={decision.verdict}", flush=True)
    specs = nogap_grid()
    seconds, results, checks = timed(specs)
    nodes = sum(sum(res.nodes_explored.values()) for res in results)
    print(f"nogap-grid ({len(specs)} spectra): seconds={seconds:.3f} nodes={nodes} "
          f"checks={checks}", flush=True)
    jobs = bench_workloads().certify_walk(CERTIFY_SEED)
    for cached in (validator._range_of, validator._class_data, validator._class_row,
                   core._touch_sets):
        cached.cache_clear()
    start = time.perf_counter()
    for job in jobs:
        job.run()
    seconds = time.perf_counter() - start
    ranges = validator._range_of.cache_info()
    print(f"certify ({len(jobs)} certify-walk jobs, seed {CERTIFY_SEED}): "
          f"seconds={seconds:.3f} range_calls={ranges.hits + ranges.misses} "
          f"range_misses={ranges.misses} "
          f"class_misses={validator._class_data.cache_info().misses}", flush=True)
    spec = spec_of(*VALIDATE)
    zone = mono_zone(spec)
    colourings = [mono_colouring(spec, k) for k in (zone.lo, (zone.lo + zone.hi) // 2, zone.hi)]
    validator._range_of.cache_clear()
    start = time.perf_counter()
    valid = [is_valid(spec, colouring) for colouring in colourings]
    seconds = time.perf_counter() - start
    ranges = validator._range_of.cache_info()
    print(f"validate {spec} mono k={[c.colour_count for c in colourings]}: "
          f"seconds={seconds:.4f} valid={valid} range_calls={ranges.hits + ranges.misses}",
          flush=True)


if __name__ == "__main__":
    main()
