"""Command-line front end: compute cohomology tables and run check suites.

Output is deterministic: the same input produces byte-identical JSON
(canonical key order, canonical form printing).  Exit codes: 0 on success,
1 when a requested check fails, 2 on input errors and when the report
cannot be written, to ``--out`` or to stdout.  A run has four stages:
``parse_args``, ``_build_complex``, the command (``cmd_compute`` or
``cmd_check``, each returning its exit code and report) and ``render``.
A check suite's module is imported only when that suite runs, so
``compute`` never loads one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .cealgebra import AlgebraValidationError, parse_algebra
from .cohomology import GROUP_NAMES, CohomologyCalculator
from .exterior import FormParseError, row_to_str
from .reports import DEFAULT_SEED
from .symplectic import NotSymplecticError, SymplecticComplex, parse_omega

DEFAULT_ALGEBRA = "(0,0,0,12,14,15+23+24)"
DEFAULT_OMEGA = "16+25-34"


class InputError(ValueError):
    pass


def _build_complex(algebra_text: str, omega_text: str) -> SymplecticComplex:
    try:
        algebra = parse_algebra(algebra_text)
    except (FormParseError, AlgebraValidationError) as exc:
        raise InputError(f"bad algebra: {exc}") from exc
    try:
        omega = parse_omega(omega_text, algebra.dim)
    except FormParseError as exc:
        raise InputError(f"bad omega: {exc}") from exc
    try:
        return SymplecticComplex(algebra, omega)
    except NotSymplecticError as exc:
        if exc.reason == "not_closed":
            raise InputError(f"omega is not symplectic: not closed ({exc})") from exc
        if exc.reason == "degenerate":
            raise InputError(f"omega is not symplectic: degenerate ({exc})") from exc
        raise InputError(f"omega is not symplectic: {exc}") from exc


def cmd_compute(args: argparse.Namespace) -> tuple[int, dict]:
    calc = CohomologyCalculator(_build_complex(args.algebra, args.omega))
    for g in args.groups:
        if g not in GROUP_NAMES:
            raise InputError(f"unknown group {g!r}; expected one of {', '.join(GROUP_NAMES)}")
    table: dict[str, dict[str, dict]] = {}
    for g in [g for g in GROUP_NAMES if g in args.groups]:
        legal = calc.legal_degrees(g)
        if args.degrees is None:
            degrees = list(legal)
        else:
            bad = [k for k in args.degrees if k not in legal]
            if bad:
                raise InputError(
                    f"degree {bad[0]} is out of range for group {g!r} "
                    f"(legal: {legal.start}..{legal.stop - 1})")
            degrees = sorted(set(args.degrees))
        table[g] = {}
        for k in degrees:
            grp = calc.group(g, k)
            table[g][str(k)] = {"dim": grp.dimension,
                                "basis": [row_to_str(calc.dim, k, r, r[p]) for p, r in grp.rows]}
    return 0, {"algebra": args.algebra, "omega": args.omega, "groups": table, "checks": {}}


def _suite(module: str):  # imported when its suite runs
    return import_module(f".{module}", __package__)


# each check suite's runner on the parsed arguments and the calculator
SUITES = {
    "identities": lambda args, calc: _suite("identities").run_identity_suite(calc.cx),
    "symbol": lambda args, calc: _suite("symbolcheck").run_symbol_suite(
        args.symbol_n, count=20, seed=args.seed),
    "hodge": lambda args, calc: _suite("hodge").run_hodge_suite(calc.cx, calc),
    "lefschetz": lambda args, calc: calc.check_strong_lefschetz(),
    "ddlambda": lambda args, calc: calc.check_ddlambda_lemma(),
    "index": lambda args, calc: calc.check_index(),
}


def cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    calc = CohomologyCalculator(_build_complex(args.algebra, args.omega))
    results = {name: SUITES[name](args, calc) for name in args.suite}
    code = 0 if all(r.passed for r in results.values()) else 1
    return code, {"algebra": args.algebra, "omega": args.omega,
                  "checks": {name: {"passed": r.passed, "details": list(r.details)}
                             for name, r in results.items()}}


def render(report: dict, fmt: str) -> str:
    """The report as JSON, or as markdown: the header, then the groups table
    if the report has one, then the check list."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = [f"algebra: `{report['algebra']}`  ", f"omega: `{report['omega']}`", ""]
    if "groups" in report:
        degrees = sorted({int(k) for entry in report["groups"].values() for k in entry})
        lines += ["| group | " + " | ".join(f"k={k}" for k in degrees) + " |",
                  "|---" * (len(degrees) + 1) + "|"]
        for g, entry in report["groups"].items():
            cells = (entry.get(str(k)) for k in degrees)
            row = [g, *("" if c is None else f"dim {c['dim']}: " + ", ".join(c["basis"])
                        for c in cells)]
            lines.append("| " + " | ".join(row) + " |")
    for name, chk in report["checks"].items():
        lines.append(f"* {name}: {'pass' if chk['passed'] else 'FAIL'}")
        lines.extend(f"    * {d}" for d in chk["details"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symcoh",
        description="Exact primitive cohomology of symplectic invariant complexes.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--algebra", default=None,
                        help="structure constants in tuple notation or inline JSON "
                             f"(default: {DEFAULT_ALGEBRA})")
        sp.add_argument("--algebra-file", default=None,
                        help="file with structure constants (JSON or tuple notation)")
        sp.add_argument("--omega", default=DEFAULT_OMEGA,
                        help=f"symplectic form (default: {DEFAULT_OMEGA})")
        sp.add_argument("--format", choices=("json", "md"), default="json")
        sp.add_argument("--out", default=None, help="write the report to this path")

    pc = sub.add_parser("compute", help="compute cohomology groups")
    common(pc)
    pc.add_argument("--groups", default=",".join(GROUP_NAMES),
                    help="comma-separated subset of " + ",".join(GROUP_NAMES))
    pc.add_argument("--degrees", default=None,
                    help="comma-separated degrees (default: all legal degrees)")

    ck = sub.add_parser("check", help="run verification suites")
    common(ck)
    ck.add_argument("--suite", default=None,
                    help="comma-separated subset of " + ",".join(SUITES))
    ck.add_argument("--n", dest="symbol_n", type=int, default=3,
                    help="half-dimension for the symbol suite (default 3)")
    ck.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"seed for symbol covector sampling (default {DEFAULT_SEED})")
    return p


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed arguments, checked and normalized in place: ``algebra`` is
    the algebra text, ``groups``, ``degrees`` and ``suite`` are lists, and
    each suite is named once, in first-given order."""
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads the value "--" as []
            option = "n" if name == "symbol_n" else name.replace("_", "-")
            raise InputError(f"--{option} needs a value, got '--'")
    if args.algebra is not None and args.algebra_file is not None:
        raise InputError("use either --algebra or --algebra-file, not both")
    if args.algebra_file is not None:
        try:
            with open(args.algebra_file, "r", encoding="utf-8") as fh:
                args.algebra = fh.read().strip()
        except OSError as exc:
            raise InputError(f"cannot read algebra file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"bad algebra: file is not UTF-8 text ({exc})") from exc
    elif args.algebra is None:
        args.algebra = DEFAULT_ALGEBRA
    if args.command == "compute":
        args.groups = [g.strip() for g in args.groups.split(",") if g.strip()]
        if not args.groups:
            raise InputError("--groups names no group")
        if args.degrees is not None:
            try:
                args.degrees = [int(x) for x in args.degrees.split(",") if x.strip()]
            except ValueError:
                raise InputError(f"bad --degrees value: {args.degrees!r}") from None
            if not args.degrees:
                raise InputError("--degrees names no degree")
        return args
    args.suite = list(dict.fromkeys(s.strip() for s in (args.suite or "").split(",")
                                    if s.strip()))
    for s in args.suite:
        if s not in SUITES:
            raise InputError(f"unknown suite {s!r}; expected one of {', '.join(SUITES)}")
    if "symbol" in args.suite and not 1 <= args.symbol_n <= 7:
        # 2n is capped at 15 by the single-character index grammar
        raise InputError(f"--n must be in 1..7, got {args.symbol_n}")
    if not args.suite:
        raise InputError("check requires --suite")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        code, report = (cmd_compute if args.command == "compute" else cmd_check)(args)
    except (InputError, FormParseError, AlgebraValidationError, NotSymplecticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            if isinstance(exc, BrokenPipeError):
                # so the flush at interpreter exit writes to nothing
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
