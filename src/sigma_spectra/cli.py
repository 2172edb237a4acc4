"""Command-line front end.

Subcommands: ``spectrum`` (feasible k, gaps), ``check`` (validate a
colouring file), ``construct`` (emit a constructive colouring), ``walk``
(recolouring walk with per-step verdicts) and ``verify`` (theorem grids).

Exit codes: 0 success / all pass; 1 invalid colouring, failed suite or
infeasible construction; 2 malformed arguments or input files, or an
``--output`` that cannot be written (checked before any work); 3 budget
truncation in ``spectrum``, or a ``walk`` or ``construct`` cut short by
``--budget``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import time
from typing import Any, Callable, Sequence

from .constructions import (
    beta_colouring,
    layered_colouring,
    mono_colouring,
    spectrum_walk_steps,
)
from .core import (
    Colouring,
    HypergraphSpec,
    build_sigma,
    colouring_from_json,
    colouring_to_dict,
    colouring_to_json,
)
from .engine import k_colourable, spectrum
from .errors import BudgetExceededError, SigmaSpectraError, TheoremViolationError
from .validator import EdgeWitness, find_violation
from .verification import SUITES

__all__ = ["RunReport", "main", "build_parser"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Envelope written (as JSON) by every subcommand."""

    command: str
    spec: dict[str, Any] | None
    result: Any
    complete: bool
    wall_time_s: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _spec_to_dict(spec: HypergraphSpec) -> dict[str, Any]:
    return {
        "n": spec.n,
        "r": spec.r,
        "q": spec.q,
        "sigma": list(spec.sigma.parts),
        "alpha": spec.alpha,
        "beta": spec.beta,
    }


def _witness_to_dict(witness: EdgeWitness) -> dict[str, Any]:
    return {
        "class_tuple": list(witness.class_tuple),
        "part_assignment": list(witness.part_assignment),
        "per_class_choice": [
            sorted([c, m] for c, m in choice.items())
            for choice in witness.per_class_choice
        ],
        "distinct_colours": witness.distinct_colours,
    }


class UsageError(Exception):
    pass


_SPEC_FIELDS = ("n", "r", "q", "sigma", "alpha", "beta")


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec-file", help="JSON file with n, r, q, sigma, alpha, beta")
    sub.add_argument("--n", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--sigma", help="comma-separated part sizes, e.g. 6,6")
    sub.add_argument("--alpha", type=int)
    sub.add_argument("--beta", type=int)


def _read(path: str, what: str, parse: Callable[[str], Any]) -> Any:
    """Parse a UTF-8 input file; any failure is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON or a malformed colouring;
        # RecursionError: JSON nested too deeply to decode
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to the ``--output`` file, or to stdout without one."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from exc


def _check_output(output: str | None) -> None:
    """Fail before any work when ``--output`` cannot be written.  A check,
    not an early open, so a failed run leaves no empty file behind."""
    if not output:
        return
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(
        f"cannot write --output: {OSError(code, os.strerror(code), output)}")


def _spec_from_args(args: argparse.Namespace) -> HypergraphSpec:
    """Check the spec fields, from ``--spec-file`` or from the flags."""
    if args.spec_file:
        data = _read(args.spec_file, "spec file", json.loads)
        if not isinstance(data, dict):
            raise UsageError("spec file must hold a JSON object")
        prefix = ""
    else:
        data = {f: getattr(args, f) for f in _SPEC_FIELDS
                if getattr(args, f) is not None}
        if args.sigma is not None:
            try:
                data["sigma"] = [int(p) for p in args.sigma.split(",") if p != ""]
            except ValueError as exc:
                raise UsageError(f"cannot parse --sigma {args.sigma!r}") from exc
        prefix = "--"
    missing = [prefix + f for f in _SPEC_FIELDS if f not in data]
    if missing:
        raise UsageError("missing spec fields: " + ", ".join(missing))
    n, r, q, sigma_parts, alpha, beta = (data[f] for f in _SPEC_FIELDS)
    if not isinstance(sigma_parts, list) or any(
            type(v) is not int for v in [n, r, q, alpha, beta, *sigma_parts]):
        raise UsageError("spec fields must be integers and sigma a list of integers")
    try:
        sigma = build_sigma(sigma_parts)
    except SigmaSpectraError as exc:
        raise UsageError(str(exc)) from exc
    if sigma.r != r:
        raise UsageError(
            f"sigma parts sum to {sigma.r} but r={r} was given"
        )
    try:
        return HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
    except (ValueError, SigmaSpectraError) as exc:
        raise UsageError(str(exc)) from exc


def _engine_colouring(spec: HypergraphSpec, k: int,
                      budget: int | None) -> Colouring | None:
    try:
        return k_colourable(spec, k, budget)
    except ValueError as exc:  # k outside [1, n*q]
        raise UsageError(str(exc)) from exc


def _non_negative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _emit(report: RunReport, output: str | None) -> None:
    _write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", output)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    t0 = time.perf_counter()
    try:
        result = spectrum(spec, k_max=args.k_max, node_budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    wall = time.perf_counter() - t0
    if args.format == "csv":
        lines = ["k,feasible,nodes_explored"]
        feasible = set(result.feasible_k)
        unknown = set(result.unknown_k)
        for k in range(1, result.k_max + 1):
            verdict = (
                "true" if k in feasible
                else "unknown" if k in unknown
                else "false"
            )
            lines.append(f"{k},{verdict},{result.nodes_explored.get(k, 0)}")
        _write("\n".join(lines) + "\n", args.output)
    else:
        report = RunReport(
            command="spectrum",
            spec=_spec_to_dict(spec),
            result=result.to_json_dict(),
            complete=result.complete,
            wall_time_s=wall,
        )
        _emit(report, args.output)
    return EXIT_OK if result.complete else EXIT_TRUNCATED


def _cmd_check(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    colouring = _read(args.colouring_file, "colouring file", colouring_from_json)
    t0 = time.perf_counter()
    try:
        witness = find_violation(spec, colouring)
    except SigmaSpectraError as exc:
        raise UsageError(str(exc)) from exc
    wall = time.perf_counter() - t0
    report = RunReport(
        command="check",
        spec=_spec_to_dict(spec),
        result={
            "valid": witness is None,
            "colour_count": colouring.colour_count,
            "witness": None if witness is None else _witness_to_dict(witness),
        },
        complete=True,
        wall_time_s=wall,
    )
    _emit(report, args.output)
    return EXIT_OK if witness is None else EXIT_FAIL


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.k is None and args.kind != "beta":
        raise UsageError(f"--kind {args.kind} needs --k")
    t0 = time.perf_counter()
    try:
        if args.kind == "mono":
            colouring = mono_colouring(spec, args.k)
        elif args.kind == "layered":
            colouring = layered_colouring(spec, args.k)
        elif args.kind == "beta":
            colouring = beta_colouring(spec)
        else:  # engine
            found = _engine_colouring(spec, args.k, args.budget)
            if found is None:
                print(f"no colouring with exactly {args.k} colours",
                      file=sys.stderr)
                return EXIT_FAIL
            colouring = found
    except BudgetExceededError:
        raise
    except SigmaSpectraError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    wall = time.perf_counter() - t0
    if args.raw:
        _write(colouring_to_json(colouring) + "\n", args.output)
        return EXIT_OK
    report = RunReport(
        command="construct",
        spec=_spec_to_dict(spec),
        result={
            "kind": args.kind,
            "colouring": colouring_to_dict(colouring),
            "colour_count": colouring.colour_count,
        },
        complete=True,
        wall_time_s=wall,
    )
    _emit(report, args.output)
    return EXIT_OK


def _cmd_walk(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.start_file:
        start = _read(args.start_file, "start colouring", colouring_from_json)
    elif args.start_k is not None:
        found = _engine_colouring(spec, args.start_k, args.budget)
        if found is None:
            print(f"no colouring with exactly {args.start_k} colours",
                  file=sys.stderr)
            return EXIT_FAIL
        start = found
    else:
        raise UsageError("walk needs --start-file or --start-k")
    t0 = time.perf_counter()
    try:
        steps = spectrum_walk_steps(spec, start, args.direction, args.budget)
    except TheoremViolationError as exc:
        print(f"walk diagnostic: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BudgetExceededError:
        raise
    except SigmaSpectraError as exc:
        raise UsageError(str(exc)) from exc
    wall = time.perf_counter() - t0
    report = RunReport(
        command="walk",
        spec=_spec_to_dict(spec),
        result={
            "direction": args.direction,
            "start": colouring_to_dict(start),
            "steps": [
                {
                    "kind": ws.step.kind,
                    "class_index": ws.step.class_index,
                    "colour_count": ws.colour_count,
                    "valid": ws.valid,
                    "colouring": colouring_to_dict(ws.colouring),
                }
                for ws in steps
            ],
        },
        complete=True,
        wall_time_s=wall,
    )
    _emit(report, args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    t0 = time.perf_counter()
    rows = SUITES[args.suite]()
    wall = time.perf_counter() - t0
    width = max(len(row.name) for row in rows)
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        print(f"{mark}  {row.name:<{width}}  {row.detail}")
    all_passed = all(row.passed for row in rows)
    print(f"{'OK' if all_passed else 'FAILED'}: {sum(r.passed for r in rows)}/"
          f"{len(rows)} rows passed in {wall:.1f}s")
    if args.output:
        report = RunReport(
            command="verify",
            spec=None,
            result={
                "suite": args.suite,
                "all_passed": all_passed,
                "rows": [dataclasses.asdict(row) for row in rows],
            },
            complete=True,
            wall_time_s=wall,
        )
        _emit(report, args.output)
    return EXIT_OK if all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-spectra",
        description="Exact constrained-colouring spectra of sigma-class hypergraphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_spectrum = subs.add_parser("spectrum", help="compute feasible k and gaps")
    _add_spec_flags(p_spectrum)
    p_spectrum.add_argument("--k-max", type=int, default=None)
    p_spectrum.add_argument("--budget", type=_non_negative_int, default=None,
                            help="node budget per k decision")
    p_spectrum.add_argument("--format", choices=("json", "csv"), default="json")
    p_spectrum.add_argument("--output", default=None)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_check = subs.add_parser("check", help="validate a colouring file")
    _add_spec_flags(p_check)
    p_check.add_argument("--colouring-file", required=True)
    p_check.add_argument("--output", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_construct = subs.add_parser("construct", help="emit a constructive colouring")
    _add_spec_flags(p_construct)
    p_construct.add_argument(
        "--kind", choices=("mono", "layered", "beta", "engine"), required=True
    )
    p_construct.add_argument("--k", type=int, default=None)
    p_construct.add_argument("--budget", type=_non_negative_int, default=None)
    p_construct.add_argument("--raw", action="store_true",
                             help="emit the bare colouring file instead of a report")
    p_construct.add_argument("--output", default=None)
    p_construct.set_defaults(func=_cmd_construct)

    p_walk = subs.add_parser("walk", help="recolouring walk with verdicts")
    _add_spec_flags(p_walk)
    p_walk.add_argument("--direction", choices=("up", "down"), required=True)
    p_walk.add_argument("--start-file", default=None)
    p_walk.add_argument("--start-k", type=int, default=None,
                        help="start from an engine colouring with this many colours")
    p_walk.add_argument("--budget", type=_non_negative_int, default=None)
    p_walk.add_argument("--output", default=None)
    p_walk.set_defaults(func=_cmd_walk)

    p_verify = subs.add_parser("verify", help="run a verification grid")
    p_verify.add_argument("--suite", required=True,
                          help=", ".join(sorted(SUITES)))
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"truncated: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED


if __name__ == "__main__":
    sys.exit(main())
