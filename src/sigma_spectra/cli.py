"""Command-line front end.

Subcommands: ``spectrum`` (feasible k, gaps), ``check`` (validate a
colouring file), ``construct`` (emit a constructive colouring), ``walk``
(recolouring walk; every step is validated as it is made) and ``verify``
(theorem grids).

Each ``_cmd_*`` returns its ``result`` payload (or the text to write in
place of a report, or None) with its exit code; ``main`` alone checks
``--output``, builds the spec, times the command, wraps the payload in the
``RunReport`` and maps errors to exit codes.  ``wall_time_s`` covers the
whole command after the spec check, reading input files and a ``walk
--start-k`` search included.

Exit codes: 0 success / all pass; 1 invalid colouring, failed suite,
infeasible construction, or a ``walk`` step that breaks validity (one
``walk diagnostic:`` line on stderr); 2 malformed or conflicting
arguments or input files (``construct`` takes ``--k`` exactly when its
kind is not ``beta``), an ``--output`` that cannot be written (checked
before any work), or an instance with more classes than the engine
search's recursion depth allows or, without edges, more vertices than
``WITNESS_VERTEX_LIMIT`` in a witness (``SPECTRUM_WITNESS_VERTEX_LIMIT``
over all of a ``spectrum``'s); 3 budget truncation in ``spectrum``, or
a ``walk`` or ``construct`` cut short by ``--budget``.
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
    _check_walk_spec,
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


_SPEC_FIELDS = ("n", "r", "q", "sigma", "alpha", "beta")


def _spec_to_dict(spec: HypergraphSpec) -> dict[str, Any]:
    return ({f: getattr(spec, f) for f in _SPEC_FIELDS}
            | {"sigma": list(spec.sigma.parts)})


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


class CommandFailure(Exception):
    """The command ran and failed: exit 1, the message its one stderr line."""


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
    data = {f: getattr(args, f) for f in _SPEC_FIELDS
            if getattr(args, f) is not None}
    if args.spec_file is not None:
        if data:
            raise UsageError("--spec-file conflicts with "
                             + ", ".join("--" + f for f in data))
        data = _read(args.spec_file, "spec file", json.loads)
        if not isinstance(data, dict):
            raise UsageError("spec file must hold a JSON object")
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise UsageError("unknown spec fields: " + ", ".join(map(repr, unknown)))
        prefix = ""
    else:
        if args.sigma is not None:
            try:
                data["sigma"] = [int(p) for p in args.sigma.split(",")]
            except ValueError as exc:
                raise UsageError(f"cannot parse --sigma {args.sigma!r}") from exc
        prefix = "--"
    missing = [prefix + f for f in _SPEC_FIELDS if f not in data]
    if missing:
        raise UsageError("missing spec fields: " + ", ".join(missing))
    n, r, q, sigma_parts, alpha, beta = (data[f] for f in _SPEC_FIELDS)
    # Sigma and HypergraphSpec check the other fields
    if type(r) is not int or not isinstance(sigma_parts, list):
        raise UsageError("r must be an integer and sigma a list")
    try:
        sigma = build_sigma(sigma_parts)
        if sigma.r != r:
            raise UsageError(f"sigma parts sum to {sigma.r} but r={r} was given")
        return HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
    except (ValueError, SigmaSpectraError) as exc:
        raise UsageError(str(exc)) from exc


def _engine_colouring(spec: HypergraphSpec, k: int,
                      budget: int | None) -> Colouring:
    try:
        found = k_colourable(spec, k, budget)
    except ValueError as exc:  # k outside [1, n*q], or too many classes
        raise UsageError(str(exc)) from exc
    if found is None:
        raise CommandFailure(f"no colouring with exactly {k} colours")
    return found


def _non_negative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


# A command returns (result, exit code); the result is the report's payload,
# the text to write in place of a report, or None to write nothing.
Outcome = tuple[Any, int]


def _cmd_spectrum(args: argparse.Namespace, spec: HypergraphSpec) -> Outcome:
    try:
        result = spectrum(spec, k_max=args.k_max, node_budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    code = EXIT_OK if result.complete else EXIT_TRUNCATED
    if args.format == "json":
        return result.to_json_dict(), code
    verdicts = (dict.fromkeys(result.unknown_k, "unknown")
                | dict.fromkeys(result.feasible_k, "true"))
    lines = ["k,feasible,nodes_explored"] + [
        f"{k},{verdicts.get(k, 'false')},{result.nodes_explored.get(k, 0)}"
        for k in range(1, result.k_max + 1)
    ]
    return "\n".join(lines) + "\n", code


def _cmd_check(args: argparse.Namespace, spec: HypergraphSpec) -> Outcome:
    colouring = _read(args.colouring_file, "colouring file", colouring_from_json)
    try:
        witness = find_violation(spec, colouring)
    except SigmaSpectraError as exc:
        raise UsageError(str(exc)) from exc
    return {
        "valid": witness is None,
        "colour_count": colouring.colour_count,
        "witness": None if witness is None else _witness_to_dict(witness),
    }, EXIT_OK if witness is None else EXIT_FAIL


# the constructive kinds, each called with the spec and --k; ``engine``
# runs the search instead
_BUILDERS: dict[str, Callable[[HypergraphSpec, Any], Colouring]] = {
    "mono": mono_colouring,
    "layered": layered_colouring,
    "beta": lambda spec, _k: beta_colouring(spec),
}


def _cmd_construct(args: argparse.Namespace, spec: HypergraphSpec) -> Outcome:
    if (args.k is None) != (args.kind == "beta"):
        raise UsageError(f"--kind {args.kind} needs --k" if args.k is None
                         else "--kind beta takes no --k")
    # a count no colouring of the spec can have is malformed for every kind
    if args.k is not None and not 1 <= args.k <= spec.num_vertices:
        raise UsageError(f"--k must be in [1, {spec.num_vertices}], got {args.k}")
    if args.kind == "engine":
        colouring = _engine_colouring(spec, args.k, args.budget)
    else:
        try:
            colouring = _BUILDERS[args.kind](spec, args.k)
        except SigmaSpectraError as exc:
            raise CommandFailure(f"construction failed: {exc}") from exc
    if args.raw:
        return colouring_to_json(colouring) + "\n", EXIT_OK
    return {
        "kind": args.kind,
        "colouring": colouring_to_dict(colouring),
        "colour_count": colouring.colour_count,
    }, EXIT_OK


def _cmd_walk(args: argparse.Namespace, spec: HypergraphSpec) -> Outcome:
    if (args.start_file is None) == (args.start_k is None):
        raise UsageError("walk needs exactly one of --start-file and --start-k")
    try:
        _check_walk_spec(spec)  # before a search builds the start
        if args.start_file is not None:
            start = _read(args.start_file, "start colouring", colouring_from_json)
        else:
            start = _engine_colouring(spec, args.start_k, args.budget)
        steps = spectrum_walk_steps(spec, start, args.direction, args.budget)
    except TheoremViolationError as exc:
        raise CommandFailure(f"walk diagnostic: {exc}") from exc
    except ValueError as exc:  # a spec or start the walk rejects
        raise UsageError(str(exc)) from exc
    return {
        "direction": args.direction,
        "start": colouring_to_dict(start),
        "steps": [{"kind": ws.step.kind, "class_index": ws.step.class_index,
                   "colour_count": ws.colour_count,
                   "colouring": colouring_to_dict(ws.colouring)} for ws in steps],
    }, EXIT_OK


def _cmd_verify(args: argparse.Namespace, spec: None) -> Outcome:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(sorted(SUITES))}")
    # the summary line is printed before main has the run's time
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
    result = None if not args.output else {
        "suite": args.suite,
        "all_passed": all_passed,
        "rows": [dataclasses.asdict(row) for row in rows],
    }
    return result, EXIT_OK if all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-spectra",
        description="Exact constrained-colouring spectra of sigma-class hypergraphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument("--spec-file",
                            help="JSON file with n, r, q, sigma, alpha, beta")
    spec_flags.add_argument("--n", type=int)
    spec_flags.add_argument("--r", type=int)
    spec_flags.add_argument("--q", type=int)
    spec_flags.add_argument("--sigma", help="comma-separated part sizes, e.g. 6,6")
    spec_flags.add_argument("--alpha", type=int)
    spec_flags.add_argument("--beta", type=int)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_non_negative_int, default=None,
                        help="node budget per engine decision")

    def add(name: str, func: Callable[[argparse.Namespace, Any], Outcome],
            summary: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, parents=parents, help=summary)
        sub.add_argument("--output", default=None)
        sub.set_defaults(func=func)
        return sub

    p_spectrum = add("spectrum", _cmd_spectrum, "compute feasible k and gaps",
                     spec_flags, budget)
    p_spectrum.add_argument("--k-max", type=int, default=None)
    p_spectrum.add_argument("--format", choices=("json", "csv"), default="json")

    p_check = add("check", _cmd_check, "validate a colouring file", spec_flags)
    p_check.add_argument("--colouring-file", required=True)

    p_construct = add("construct", _cmd_construct, "emit a constructive colouring",
                      spec_flags, budget)
    p_construct.add_argument("--kind", choices=("mono", "layered", "beta", "engine"),
                             required=True)
    p_construct.add_argument("--k", type=int, default=None)
    p_construct.add_argument("--raw", action="store_true",
                             help="emit the bare colouring file instead of a report")

    p_walk = add("walk", _cmd_walk, "recolouring walk, each step validated",
                 spec_flags, budget)
    p_walk.add_argument("--direction", choices=("up", "down"), required=True)
    p_walk.add_argument("--start-file", default=None)
    p_walk.add_argument("--start-k", type=int, default=None,
                        help="start from an engine colouring with this many colours")

    add("verify", _cmd_verify, "run a verification grid").add_argument(
        "--suite", required=True, help=", ".join(sorted(SUITES)))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        spec = None if args.command == "verify" else _spec_from_args(args)
        t0 = time.perf_counter()
        result, code = args.func(args, spec)
        wall = time.perf_counter() - t0
        if isinstance(result, str):
            _write(result, args.output)
        elif result is not None:
            report = RunReport(
                command=args.command,
                spec=None if spec is None else _spec_to_dict(spec),
                result=result,
                complete=code != EXIT_TRUNCATED,
                wall_time_s=wall,
            )
            _write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                   args.output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"truncated: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except CommandFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
