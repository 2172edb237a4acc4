"""Time whole engine spectra in process, one line per spectrum.

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

    python tools/time_spectra.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from search_digest import check_counter  # noqa: E402
from sigma_spectra import HypergraphSpec, build_sigma, spectrum  # noqa: E402

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


def main() -> None:
    for n, q, parts, alpha, beta in SPECTRA:
        spec = HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)
        start = time.perf_counter()
        res = spectrum(spec)
        seconds = time.perf_counter() - start
        with check_counter() as counter:
            spectrum(spec)
        print(f"{spec}: seconds={seconds:.3f} nodes={sum(res.nodes_explored.values())} "
              f"checks={counter.checks} feasible={list(res.feasible_k)}", flush=True)


if __name__ == "__main__":
    main()
