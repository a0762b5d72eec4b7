"""Command-line front end: build, verify, analyze, bounds, witness, export.

Exit codes: 0 success, 1 verification failure (a checked property does not
hold, or a requested witness provably does not exist / exceeds its budget),
2 invalid input (schema errors, unreadable files, bad parameters).  All
output is deterministic for fixed inputs and seed: JSON is emitted with
sorted keys and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .braces import check_axioms, is_simple
from .bounds import (
    exponent_lower_bounds,
    find_orthogonal_element,
    minimal_witness_dimension,
    witness_block,
)
from .construct import (
    build_family,
    load_spec,
    nonsimple_witness,
    validate_spec,
    verify_prime_example,
)
from .errors import (
    AxiomsNotVerifiedError,
    BracekitError,
    BudgetExceededError,
    ConditionViolationError,
    IncompleteLatticeError,
    NoWitnessError,
    SchemaError,
    SolutionFormatError,
)
from .groupinfo import group_report
from .ybe import check_solution, export_solution, solution_from_brace

_INPUT_ERRORS = (
    SchemaError,
    SolutionFormatError,
    ConditionViolationError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    ValueError,
)
_VERIFICATION_ERRORS = (
    NoWitnessError,
    BudgetExceededError,
    AxiomsNotVerifiedError,
    IncompleteLatticeError,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="bracekit",
        description="Finite brace construction, verification, and export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--spec": dict(required=True, help="path to a family spec JSON file"),
        "--out": dict(help="write the result here instead of standard output"),
        "--budget": dict(type=int, default=1_000_000, help="closure/search budget"),
        "--seed": dict(type=int, default=0, help="seed for sampled checks"),
        "--json": dict(action="store_true", help="emit machine-readable JSON"),
    }

    def add_parser(name, summary, *names):
        p = sub.add_parser(name, help=summary)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    add_parser("build", "build a family brace and report its shape", "--spec", "--out", "--json")

    p = add_parser(
        "verify",
        "axiom-check a family brace and test simplicity",
        "--spec", "--out", "--budget", "--seed", "--json",
    )
    p.add_argument(
        "--expect-simple",
        action="store_true",
        help="exit 1 unless the brace is verified simple",
    )

    add_parser(
        "analyze", "multiplicative group structure report", "--spec", "--out", "--budget", "--json"
    )

    p = add_parser(
        "bounds", "unit orders and exponent lower bounds for a prime cycle", "--out", "--json"
    )
    p.add_argument("--primes", required=True, help="comma-separated primes, e.g. 3,7")

    p = add_parser("witness", "find an orthogonal block witness for (p, p1)", "--budget", "--out")
    p.add_argument("--p", type=int, required=True, help="field characteristic")
    p.add_argument("--p1", type=int, required=True, help="required map order")
    p.add_argument("--dim", type=int, help="dimension (default: the minimal one)")

    add_parser("export", "derive and export the YBE solution table", "--spec", "--out", "--seed")

    add_parser(
        "prime-example",
        "build and verify the prime non-simple product",
        "--out", "--budget", "--json",
    )

    return parser


def _emit(payload, out_path) -> None:
    data = payload if isinstance(payload, bytes) else payload.encode("utf-8")
    if out_path:
        Path(out_path).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            for i, item in enumerate(value):
                inner = ", ".join(f"{k}={item[k]}" for k in sorted(item))
                lines.append(f"  [{i}] {inner}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key} = ({', '.join(str(v) for v in value)})")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class _InvalidSpec(Exception):
    """Raised after every validation failure of a spec has been printed; exit code 2."""


def _build_valid_spec(args):
    """The validation report of ``--spec`` and the brace it describes."""
    spec = load_spec(args.spec)
    report = validate_spec(spec)
    if not report.ok:
        for failure in report.failures:
            print(f"invalid spec: {failure}", file=sys.stderr)
        raise _InvalidSpec
    return report, build_family(spec)


def _cmd_build(args) -> int:
    report, B = _build_valid_spec(args)
    out = {
        "kind": report.kind,
        "order": B.order,
        "moduli": [int(m) for m in B.codec.moduli],
        "predicted_simple": report.predicted_simple,
        "blocks": report.blocks,
    }
    _emit(_render(out, args.json), args.out)
    return 0


def _cmd_verify(args) -> int:
    report, B = _build_valid_spec(args)
    axioms = check_axioms(B, mode="auto", seed=args.seed)
    result = is_simple(B, budget=args.budget)
    out = {
        "kind": report.kind,
        "order": B.order,
        "axioms_ok": axioms.ok,
        "axioms_mode": axioms.mode,
        "predicted_simple": report.predicted_simple,
        "simple": result.simple,
        "closures_run": result.closures_run,
    }
    if result.simple:
        out["ideal_lattice_sizes"] = [1, B.order]
    else:
        out["certificate_size"] = int(result.certificate.size)
        try:
            witness = nonsimple_witness(B)
            out["witness_size"] = witness.size
            out["certificate_inside_witness"] = bool(
                witness.contains(result.certificate.members)
            )
        except NoWitnessError:
            pass
    _emit(_render(out, args.json), args.out)
    if not axioms.ok:
        return 1
    if args.expect_simple and not result.simple:
        return 1
    return 0


def _cmd_analyze(args) -> int:
    _, B = _build_valid_spec(args)
    report = group_report(B, budget=args.budget)
    _emit(_render(report.as_dict(), args.json), args.out)
    return 0


def _cmd_bounds(args) -> int:
    primes = tuple(int(tok) for tok in args.primes.split(",") if tok.strip())
    report = exponent_lower_bounds(primes)
    _emit(_render(report.as_dict(), args.json), args.out)
    return 0


def _cmd_witness(args) -> int:
    dim = args.dim if args.dim is not None else minimal_witness_dimension(args.p, args.p1)
    witness = find_orthogonal_element(args.p, args.p1, dim, search_budget=args.budget)
    block = witness_block(witness)
    _emit(json.dumps(block, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_export(args) -> int:
    _, B = _build_valid_spec(args)
    axioms = check_axioms(B, mode="auto", seed=args.seed)
    if not axioms.ok:
        print("axiom check failed; not exporting", file=sys.stderr)
        return 1
    table = solution_from_brace(B)
    report = check_solution(table, seed=args.seed)
    if not report.ok:
        print(f"solution checks failed: {report}", file=sys.stderr)
        return 1
    if args.out:
        export_solution(table, args.out)
    else:
        export_solution(table, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    return 0


def _cmd_prime_example(args) -> int:
    out = verify_prime_example(budget=args.budget)
    _emit(_render(out, args.json), args.out)
    return 0 if all(v for v in out["checks"].values() if isinstance(v, bool)) else 1


_HANDLERS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "bounds": _cmd_bounds,
    "witness": _cmd_witness,
    "export": _cmd_export,
    "prime-example": _cmd_prime_example,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "budget", 1) < 1:
        print("error: budgets must be positive", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except _InvalidSpec:
        return 2
    except _VERIFICATION_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
