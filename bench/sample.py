"""One benchmark sample: build a workload's inputs, time its job list once,
then check every result.  Prints one JSON line for ``run.py``.

Each sample is a fresh interpreter (see ``run.py``).  Usage, from the
repository root with ``src`` on ``PYTHONPATH``::

    python3 bench/sample.py --workload gap-proof --seed 1 [--trace] [--no-ticks] [--setup-only]

Job times are scaled to nominal machine speed by ``reference.Speedometer``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import Speedometer

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def run_jobs(jobs, traced: bool, ticking: bool | None = None):
    """Time each job; returns (results, per-job seconds, per-job seconds
    scaled to nominal machine speed, job-list seconds, tracer or None,
    range-cache counters).  A job that raises keeps its exception as its
    result.  Job times leave out the reference runs inside them; the
    job-list time is the sum of the unscaled job times, so the collector
    resets and reference runs between jobs are not part of it either.

    The reference also ticks inside jobs unless ``ticking`` is false; by
    default it ticks when the run is not traced, so that no span holds a
    reference run."""
    from sigma_spectra import validator

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
    if ticking is None:
        ticking = not traced
    meter = Speedometer()
    results, times, scaled = [], [], []
    before = validator._range_of.cache_info()
    clock = time.perf_counter
    with (tracer.installed() if tracer else nullcontext()), \
            (meter.ticking() if ticking else nullcontext()):
        for job in jobs:
            # each job starts with an empty collector, so a collection that
            # one job's garbage made due does not land in the next job
            gc.collect()
            first = len(meter.runs)
            meter.probe()
            start = clock()
            try:
                result = job.run()
            except Exception as exc:  # a failed job is reported, not fatal
                result = exc
            end = clock()
            meter.probe()
            elapsed = end - start - meter.inside(start, end)
            times.append(elapsed)
            scaled.append(elapsed * meter.factor(first))
            results.append(result)
    after = validator._range_of.cache_info()
    cache = {"hits": after.hits - before.hits,
             "misses": after.misses - before.misses,
             "size": after.currsize}
    return results, times, scaled, sum(times), tracer, cache


def check(jobs, results, golden: dict) -> list[list[str]]:
    """Problems per job: an exception, a golden mismatch, or a failed
    independent re-check of a witness or verdict."""
    out = []
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            out.append([f"raised {result!r}"])
            continue
        try:
            problems = job.verify(result)
            record = job.observe(result)
        except Exception as exc:  # a malformed result fails its job only
            out.append([f"check raised {exc!r}"])
            continue
        if job.key not in golden:
            problems.append("no golden record")
        elif record != golden[job.key]:
            problems.append(f"golden mismatch: {record} != {golden[job.key]}")
        out.append(problems)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-ticks", action="store_true",
                        help="run the reference only between jobs")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload](args.seed)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    ready = time.monotonic()
    ref_s = Speedometer().mean_s()  # the machine's speed right after the set-up
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref_s": ref_s}))
        return 0

    results, raw_times, times, raw_wall, tracer, cache = run_jobs(
        jobs, args.trace, ticking=not (args.trace or args.no_ticks))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden = json.loads(GOLDEN.read_text())[args.workload]
    problems = check(jobs, results, golden)
    out = {
        "ready": ready,
        "ref_s": ref_s,
        "wall_s": sum(times),
        "job_s": times,
        "job_keys": [job.key for job in jobs],
        "raw_wall_s": raw_wall,
        "raw_job_s": raw_times,
        "peak_rss_mb": rss_mb,
        "failures": {job.key: p for job, p in zip(jobs, problems) if p},
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(cache, raw_wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
