"""Benchmark of sigma_spectra: one workload, timed end to end or traced.

From the repository root::

    python3 bench/run.py --workload nogap-sweep --seed 1 --seconds 40 --trace 0

Prints every metric by name with its unit, then a record of the run
(machine, Python, commit, seed, metrics) as one JSON line, and as the last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  See ``bench/README.md`` for the choices behind it.

Every sample runs in a fresh interpreter: ``validator._range_of`` and
``engine._partitions`` are process-global caches, and a sample that
reused a process would time warm caches that no command-line user sees.
Times are scaled to a steady machine speed by ``reference.Speedometer``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Samples per run at --seconds 40; other values scale the counts.  With the
# seed code on a 2-core Xeon a nogap-sweep sample takes 14-21 s, a
# gap-proof sample 2.3-3.7 s and a certify-walk sample 2.5-4.5 s.  The top
# 12 gap-proof jobs of a run are its 12 appendix k=4 proofs, so its tail
# (ten jobs beyond it) is the second fastest of them, not an extreme.  The
# counts are fixed, not timed, so runs of later commits do the same work.
SAMPLES_AT_40S = {"nogap-sweep": 2, "gap-proof": 12, "certify-walk": 6}
# Set-up time is short and noisy: a run takes the median of this many.
SETUP_SAMPLES = 9
# A run must end well within 180 s; no sample may start past this.
DEADLINE_S = 170.0

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the sample processes of one run.  Sample i of a run with
    seed s gets seed 1000*s + i, so the samples of a run see different
    job orders (the caches make a job's time depend on what ran before)
    and the same --seed always gives the same inputs."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.base = [sys.executable, str(HERE / "sample.py"), "--workload", workload]
        self.seed = seed
        self.started = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.deadline = deadline
        self.meter = Speedometer()

    def sample(self, *flags: str) -> dict:
        """Run one sample process; its JSON with ``setup_s`` (scaled by the
        reference run here before the spawn and there after the set-up)
        and ``raw_setup_s`` added."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the last sample")
        seed = 1000 * self.seed + self.started
        self.started += 1
        ref_before = self.meter.mean_s()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(self.base + ["--seed", str(seed), *flags],
                                  cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"sample {flags} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"sample {flags} exited {proc.returncode}:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["raw_setup_s"] = out["ready"] - spawned
        out["setup_s"] = out["raw_setup_s"] * NOMINAL_S / ((ref_before + out["ref_s"]) / 2)
        return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def end_to_end(runner: Runner, samples: int) -> tuple[list[dict], dict, list[str]]:
    """The end-to-end metrics of ``samples`` timed samples, as
    name -> (value, unit), with the samples and notes for the reader."""
    runs = [runner.sample() for _ in range(samples)]
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.sample("--setup-only")["setup_s"])
    walls = [r["wall_s"] for r in runs]
    jobs_ms = [1000 * t for r in runs for t in r["job_s"]]
    tail_ms, tail_pct = tail(jobs_ms)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(jobs_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    q1, _, q3 = quartiles(walls)
    notes = [
        f"wall_s: median of {len(walls)} samples, quartiles {q1:.4f}..{q3:.4f}",
        f"job_p50_ms, job_tail_ms: over {len(jobs_ms)} jobs; "
        f"the tail is p{tail_pct:.1f}, with 10 jobs beyond it",
        f"setup_s: median of {len(setups)} set-ups",
    ]
    return runs, metrics, notes


def traced(runner: Runner, samples: int) -> tuple[list[dict], dict, list[str]]:
    """Alternate untraced and traced samples; the difference of their
    median walls is the tracing overhead."""
    plain, with_trace = [], []
    for _ in range(max(1, (samples + 1) // 2)):
        plain.append(runner.sample("--no-ticks"))
        with_trace.append(runner.sample("--trace"))
    units = {name: unit for name, (_v, unit) in with_trace[0]["layers"].items()}
    metrics = {
        name: statistics.median_low(r["layers"][name][0] for r in with_trace)
        for name in units
    }
    wall = statistics.median(r["wall_s"] for r in with_trace)
    untraced = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = wall - untraced
    metrics["trace.overhead_share"] = (wall - untraced) / untraced
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    notes = [f"per-layer values: median of {len(with_trace)} traced samples; "
             f"overhead against {len(plain)} untraced samples"]
    return plain + with_trace, {n: (v, units[n]) for n, v in metrics.items()}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sigma_spectra benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SAMPLES_AT_40S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "sigma_spectra" / "__init__.py").is_file():
        print(f"bench: no sigma_spectra package under {SRC}", file=sys.stderr)
        return 2

    samples = max(1, round(SAMPLES_AT_40S[args.workload] * args.seconds / 40))
    runner = Runner(args.workload, args.seed, started + DEADLINE_S)
    try:
        # an untimed set-up first, so that every timed one finds the
        # bytecode caches written (where the interpreter writes them), as
        # an installed package would
        runner.sample("--setup-only")
        if args.trace:
            runs, metrics, notes = traced(runner, samples)
        else:
            runs, metrics, notes = end_to_end(runner, samples)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["job_s"]) for r in runs)
    failures = [(key, p) for r in runs for key, p in r["failures"].items()]
    failed = len(failures)
    for key, problems in failures[:20]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for note in notes:
        print(f"  {note}")
    as_json = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "sample_wall_s": [r["wall_s"] for r in runs],
        "sample_raw_wall_s": [r["raw_wall_s"] for r in runs],
        "sample_ref_s": [r["ref_s"] for r in runs],
        "metrics": as_json, "failed_share": failed / attempted,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": as_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
