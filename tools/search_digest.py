"""Print one digest line per set of engine searches, to compare two checkouts.

A line holds a SHA-256 over every decision's (spec, k, verdict, nodes,
witness classes), the ``engine.range_of_keys`` calls and the range solver's
cache misses from an empty cache.  Equal lines mean equal verdicts, node
counts, raw witnesses and range-solver work.

``nogap-family`` makes the decisions of ``nogap-sweep``, in the same order,
through one search context per family H(., q | sigma), alpha, beta, which
meets its specs in ascending n.  Its sha256 equals ``nogap-sweep``'s exactly
when sharing a context across n moves no verdict, node count or witness; its
range-solver counts are lower, as verdicts found at one n serve every n.

    python tools/search_digest.py
"""

import hashlib
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sigma_spectra import HypergraphSpec, build_sigma, decide_k, engine, spectrum  # noqa: E402
from sigma_spectra import formulas, validator, verification  # noqa: E402


def nogap_sweep():
    for spec in verification.nogap_grid():
        res = spectrum(spec, node_budget=5_000_000)
        for k, nodes in res.nodes_explored.items():
            verdict = ("unknown" if k in res.unknown_k else
                       "feasible" if k in res.feasible_k else "infeasible")
            yield spec, k, verdict, nodes, res.witnesses.get(k)


def nogap_family():
    searches = {}
    for spec in verification.nogap_grid():
        family = (spec.q, spec.sigma, spec.alpha, spec.beta)
        search = searches.setdefault(family, engine._Search(*family))
        for k in range(1, spec.num_vertices + 1):
            d = decide_k(spec, k, 5_000_000, _search=search)
            yield spec, k, d.verdict, d.nodes, d.witness


def gap_proof():
    appendix = HypergraphSpec(n=7, q=6, sigma=build_sigma([6, 6]), alpha=3, beta=3)
    pairs = [(appendix, k) for k in (3, 4, 8)]
    for alpha, beta, parts in verification.gap_cells():
        sigma = build_sigma(parts)
        q, n = formulas.gap_instance_params(alpha, beta, sigma)
        spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
        pairs += [(spec, k) for k in range(1, beta + 2)]
    for spec, k in pairs:
        d = decide_k(spec, k, 50_000_000)
        yield spec, k, d.verdict, d.nodes, d.witness


def main() -> None:
    for name, decisions in (("nogap-sweep", nogap_sweep), ("nogap-family", nogap_family),
                            ("gap-proof", gap_proof)):
        validator._range_of.cache_clear()
        digest = hashlib.sha256()
        with mock.patch.object(engine, "range_of_keys",
                               wraps=engine.range_of_keys) as solver:
            for spec, k, verdict, nodes, witness in decisions():
                classes = witness and witness.classes
                digest.update(repr((str(spec), k, verdict, nodes, classes)).encode())
        print(f"{name}: sha256={digest.hexdigest()} range_calls={solver.call_count} "
              f"range_misses={validator._range_of.cache_info().misses}")


if __name__ == "__main__":
    main()
