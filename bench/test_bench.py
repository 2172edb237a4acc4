"""Tests of the benchmark itself (not part of the package suite).

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sigma_spectra import constructions, engine, validator, verification  # noqa: E402
from sigma_spectra.core import Colouring  # noqa: E402
from sigma_spectra.oracle import SIZE_CAP, brute_oracle, brute_spectrum  # noqa: E402

import reference  # noqa: E402
import sample  # noqa: E402
import workloads  # noqa: E402
from tracing import HOOKS, Tracer  # noqa: E402

GOLDEN = json.loads(sample.GOLDEN.read_text())


def decision_specs():
    specs = {str(workloads.APPENDIX_SPEC): workloads.APPENDIX_SPEC}
    specs.update((str(s), s) for s in workloads.gap_recipe_specs())
    return specs


def test_golden_covers_exactly_the_jobs():
    for name, make in workloads.WORKLOADS.items():
        assert {job.key for job in make(7)} == set(GOLDEN[name]), name


def test_golden_spectra_match_the_oracle():
    small = [s for s in verification.nogap_grid() if s.num_vertices <= SIZE_CAP]
    assert small
    for spec in small:
        record = GOLDEN["nogap-sweep"][str(spec)]
        assert list(brute_spectrum(spec)) == record["feasible_k"], str(spec)


def test_golden_decisions_match_the_oracle():
    checked = 0
    for key, record in GOLDEN["gap-proof"].items():
        spec_key, k = key.rsplit("|k=", 1)
        spec = decision_specs()[spec_key]
        if spec.num_vertices <= SIZE_CAP:
            assert brute_oracle(spec, int(k)) == (record["verdict"] == "feasible"), key
            checked += 1
    assert checked


def test_golden_obeys_the_laws_and_reference_counts():
    for key, record in GOLDEN["nogap-sweep"].items():
        lo, hi = record["feasible_k"][0], record["feasible_k"][-1]
        assert record["feasible_k"] == list(range(lo, hi + 1)), key
        assert record["unknown_k"] == [] and record["gaps"] == [], key
    slowest = GOLDEN["nogap-sweep"]["H(n=6,r=6,q=4|sigma=(2,2,2)),alpha=2,beta=5"]
    assert sum(slowest["nodes"].values()) == 364_002
    appendix = str(workloads.APPENDIX_SPEC)
    verdicts = {k: GOLDEN["gap-proof"][f"{appendix}|k={k}"] for k in (3, 4, 8)}
    assert [verdicts[k]["verdict"] for k in (3, 4, 8)] == [
        "feasible", "infeasible", "feasible"]
    assert verdicts[4]["nodes"] == 507_599
    for spec in workloads.gap_recipe_specs():
        for k in range(1, spec.beta + 2):
            verdict = GOLDEN["gap-proof"][f"{spec}|k={k}"]["verdict"]
            assert verdict == ("feasible" if k == spec.beta else "infeasible")
    for key, record in GOLDEN["certify-walk"].items():
        for walk in record["walks"].values():
            counts = [walk["start"]] + [c for _kind, c in walk["steps"]]
            assert all(0 <= a - b <= 1 for a, b in zip(counts, counts[1:])), key


def test_every_wrapper_restores_its_attribute():
    originals = [(m, a, getattr(m, a)) for m, a, _layer in HOOKS]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            for module, attr, original in originals:
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
            raise RuntimeError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_traced_counts_are_exact():
    jobs = [job for job in workloads.gap_proof(3)
            if str(workloads.APPENDIX_SPEC) not in job.key]
    jobs += workloads.certify_walk(3)[:3]
    results, _times, _scaled, wall, tracer, cache = sample.run_jobs(jobs, traced=True)
    assert not any(sample.check(jobs, results, {**GOLDEN["gap-proof"],
                                                **GOLDEN["certify-walk"]}))
    m = tracer.layer_metrics(cache, wall)
    decisions = [r for r in results if isinstance(r, engine.KDecision)]
    walks = [steps for r in results if isinstance(r, dict)
             for _start, steps in r["walks"].values()]
    fallbacks = sum(s.step.kind == "engine-fallback" for steps in walks for s in steps)
    assert m["engine.decisions"][0] == len(decisions) + fallbacks
    assert m["engine.nodes"][0] >= sum(d.nodes for d in decisions)
    assert m["constructions.walk_steps"][0] == sum(len(s) for s in walks)
    assert m["constructions.engine_fallbacks"][0] == fallbacks
    assert m["validator.range_calls"][0] == (
        tracer.spans["engine.range_of_keys"].calls
        + tracer.spans["validator.range_of_keys"].calls)
    assert m["validator.find_violation_calls"][0] == sum(
        len(r["probes"]) for r in results if isinstance(r, dict))


def test_check_reports_a_golden_mismatch_and_an_exception():
    jobs = workloads.gap_proof(1)[:2]
    results = [job.run() for job in jobs]
    golden = dict(GOLDEN["gap-proof"])
    golden[jobs[0].key] = {**golden[jobs[0].key], "nodes": -1}
    problems = sample.check(jobs, [results[0], ValueError("boom")], golden)
    assert "golden mismatch" in problems[0][0]
    assert "boom" in problems[1][0]


def test_witness_check_rejects_a_tampered_witness():
    spec = workloads._spec((2, 2), 4, 6, 6)
    bad = Colouring(classes=((0,) * 6,) * 6)
    witness = validator.find_violation(spec, bad)
    assert witness is not None
    assert workloads.witness_problems(spec, bad, witness) == []
    tampered = replace(witness, distinct_colours=witness.distinct_colours + 2)
    assert workloads.witness_problems(spec, bad, tampered)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gap-proof", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_paired_start_is_valid_and_forces_a_fallback():
    spec = workloads._spec((3, 3), 6, 6, 5)
    start = workloads._paired_colouring(spec)
    assert validator.is_valid(spec, start)
    steps = constructions.spectrum_walk_steps(spec, start, "down")
    assert steps[0].step.kind == "engine-fallback"


def test_speedometer_ticks_only_inside_its_block():
    meter = reference.Speedometer()
    previous = signal.getsignal(signal.SIGALRM)
    with meter.ticking():
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * reference.TICK_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = len(meter.runs)
    assert ticks >= 2
    assert 0 < meter.inside(start, end) < end - start
    meter.probe()
    assert len(meter.runs) == ticks + reference.PROBES
    assert meter.factor(ticks) > 0
