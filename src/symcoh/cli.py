"""Command-line front end: compute cohomology tables and run check suites.

Output is deterministic: the same input produces byte-identical JSON
(canonical key order, canonical form printing).  Exit codes: 0 on success,
1 when a requested check fails, 2 on input errors and when the report
cannot be written, to ``--out`` or to stdout.  A check suite's module
is imported only when that suite runs, so ``compute`` never loads one.
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
SUITES = ("identities", "symbol", "hodge", "lefschetz", "ddlambda", "index")


class InputError(ValueError):
    pass


class RunConfig:
    """One command's settings; ``groups`` defaults to every group."""

    def __init__(self, command: str, algebra_source: str = DEFAULT_ALGEBRA,
                 omega_source: str = DEFAULT_OMEGA, groups: list[str] | None = None,
                 degrees: list[int] | None = None, suites: list[str] | None = None,
                 fmt: str = "json", seed: int = DEFAULT_SEED, symbol_n: int = 3,
                 out: str | None = None):
        self.command = command
        self.algebra_source, self.omega_source = algebra_source, omega_source
        self.groups = list(GROUP_NAMES) if groups is None else groups
        self.degrees, self.suites = degrees, [] if suites is None else suites
        self.fmt, self.seed, self.symbol_n, self.out = fmt, seed, symbol_n, out


def _build_complex(cfg: RunConfig) -> SymplecticComplex:
    try:
        algebra = parse_algebra(cfg.algebra_source)
    except (FormParseError, AlgebraValidationError) as exc:
        raise InputError(f"bad algebra: {exc}") from exc
    try:
        omega = parse_omega(cfg.omega_source, algebra.dim)
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


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def cmd_compute(cfg: RunConfig) -> tuple[int, str]:
    cx = _build_complex(cfg)
    calc = CohomologyCalculator(cx)
    for g in cfg.groups:
        if g not in GROUP_NAMES:
            raise InputError(f"unknown group {g!r}; expected one of {', '.join(GROUP_NAMES)}")
    groups = [g for g in GROUP_NAMES if g in cfg.groups]
    table: dict[str, dict[str, dict]] = {}
    for g in groups:
        legal = calc.legal_degrees(g)
        if cfg.degrees is None:
            degrees = list(legal)
        else:
            bad = [k for k in cfg.degrees if k not in legal]
            if bad:
                raise InputError(
                    f"degree {bad[0]} is out of range for group {g!r} "
                    f"(legal: {legal.start}..{legal.stop - 1})")
            degrees = sorted(set(cfg.degrees))
        entry: dict[str, dict] = {}
        for k in degrees:
            grp = calc.group(g, k)
            entry[str(k)] = {"dim": grp.dimension,
                             "basis": [row_to_str(cx.dim, k, r, r[p]) for p, r in grp.rows]}
        table[g] = entry
    report = {"algebra": cfg.algebra_source, "omega": cfg.omega_source,
              "groups": table, "checks": {}}
    if cfg.fmt == "md":
        return 0, _markdown_table(report)
    return 0, json.dumps(report, indent=2) + "\n"


def _markdown_table(report: dict) -> str:
    lines = [f"algebra: `{report['algebra']}`  ", f"omega: `{report['omega']}`", ""]
    groups = report["groups"]
    all_degrees = sorted({int(k) for entry in groups.values() for k in entry},
                         key=int)
    header = "| group | " + " | ".join(f"k={k}" for k in all_degrees) + " |"
    sep = "|---" * (len(all_degrees) + 1) + "|"
    lines += [header, sep]
    for g, entry in groups.items():
        row = [g]
        for k in all_degrees:
            cell = entry.get(str(k))
            row.append("" if cell is None
                       else f"dim {cell['dim']}: " + ", ".join(cell["basis"]))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig) -> tuple[int, str]:
    if not cfg.suites:
        raise InputError("check requires --suite")
    cx = _build_complex(cfg)
    calc = CohomologyCalculator(cx)

    def suite(module: str):  # imported when its suite runs
        return import_module(f".{module}", __package__)

    suites = {"identities": lambda: suite("identities").run_identity_suite(cx),
              "symbol": lambda: suite("symbolcheck").run_symbol_suite(
                  cfg.symbol_n, count=20, seed=cfg.seed),
              "hodge": lambda: suite("hodge").run_hodge_suite(cx, calc),
              "lefschetz": calc.check_strong_lefschetz,
              "ddlambda": calc.check_ddlambda_lemma,
              "index": calc.check_index}
    results = {name: suites[name]() for name in cfg.suites}
    report = {"algebra": cfg.algebra_source, "omega": cfg.omega_source,
              "checks": {name: {"passed": r.passed, "details": list(r.details)}
                         for name, r in results.items()}}
    all_pass = all(r.passed for r in results.values())
    if cfg.fmt == "md":
        lines = [f"algebra: `{report['algebra']}`  ", f"omega: `{report['omega']}`", ""]
        for name, chk in report["checks"].items():
            lines.append(f"* {name}: {'pass' if chk['passed'] else 'FAIL'}")
            lines.extend(f"    * {d}" for d in chk["details"])
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    return (0 if all_pass else 1), text


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
        sp.add_argument("--format", dest="fmt", choices=("json", "md"), default="json")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads the value "--" as []
            option = {"fmt": "format", "symbol_n": "n"}.get(name, name).replace("_", "-")
            raise InputError(f"--{option} needs a value, got '--'")
    if args.algebra is not None and args.algebra_file is not None:
        raise InputError("use either --algebra or --algebra-file, not both")
    if args.algebra_file is not None:
        try:
            with open(args.algebra_file, "r", encoding="utf-8") as fh:
                algebra_source = fh.read().strip()
        except OSError as exc:
            raise InputError(f"cannot read algebra file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"bad algebra: file is not UTF-8 text ({exc})") from exc
    else:
        algebra_source = args.algebra if args.algebra is not None else DEFAULT_ALGEBRA
    cfg = RunConfig(command=args.command, algebra_source=algebra_source,
                    omega_source=args.omega, fmt=args.fmt, out=args.out)
    if args.command == "compute":
        cfg.groups = [g.strip() for g in args.groups.split(",") if g.strip()]
        if not cfg.groups:
            raise InputError("--groups names no group")
        if args.degrees is not None:
            try:
                cfg.degrees = [int(x) for x in args.degrees.split(",") if x.strip()]
            except ValueError:
                raise InputError(f"bad --degrees value: {args.degrees!r}") from None
            if not cfg.degrees:
                raise InputError("--degrees names no degree")
    else:
        # no --suite is an empty list, which cmd_check refuses
        cfg.suites = [s.strip() for s in (args.suite or "").split(",") if s.strip()]
        for s in cfg.suites:
            if s not in SUITES:
                raise InputError(f"unknown suite {s!r}; expected one of {', '.join(SUITES)}")
        if "symbol" in cfg.suites and not 1 <= args.symbol_n <= 7:
            # 2n is capped at 15 by the single-character index grammar
            raise InputError(f"--n must be in 1..7, got {args.symbol_n}")
        cfg.seed = args.seed
        cfg.symbol_n = args.symbol_n
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "compute":
            code, text = cmd_compute(cfg)
        else:
            code, text = cmd_check(cfg)
    except (InputError, FormParseError, AlgebraValidationError, NotSymplecticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
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
