"""Fixtures and the fixed operation list of each workload.

An operation is one symcoh CLI call, given as its argv.  Every value is
passed as ``--flag=value``: in the ``--flag VALUE`` form argparse reads a
value that starts with ``-`` (a scrambled omega often does) as an option.

This module does not import symcoh.
"""

from __future__ import annotations

import random

from scramble import scramble

N6 = ("(0,0,0,12,14,15+23+24)", "16+25-34")
N8 = ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78")
N10 = ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a")
T8 = ("(0,0,0,0,0,0,0,0)", "12+34+56+78")

# base name -> (algebra, omega, generators moved, copies per pass).  All
# generators of the 4- and 6-dimensional bases are moved; moving all 8 of
# N8 takes about 16 s per compute, so N8 moves its first 5 (about 5 s).
# N8 has three copies so that op_p90_s, which falls on the middle one, is a
# median of three seeded scrambles rather than the faster of two.
SCRAMBLE_BASES = {
    "KT4": ("(0,0,0,12)", "13+24", 4, 2),
    "N6": (N6[0], N6[1], 6, 2),
    "N6-omega2": (N6[0], "13+26-45", 6, 2),
    "KTxT2": ("(0,0,0,12,0,0)", "13+24+56", 6, 2),
    "T6": ("(0,0,0,0,0,0)", "12+34+56", 6, 2),
    "N8": (N8[0], N8[1], 5, 3),
}

WORKLOADS = (
    "ladder-compute", "scrambled-compute", "identity-check", "hodge-check")


def _compute(fixture: tuple[str, str]) -> list[str]:
    return ["compute", f"--algebra={fixture[0]}", f"--omega={fixture[1]}"]


def _check(suite: str, fixture: tuple[str, str]) -> list[str]:
    return ["check", f"--suite={suite}", f"--algebra={fixture[0]}",
            f"--omega={fixture[1]}"]


def operations(workload: str, seed: int) -> list[dict]:
    """The ops of one pass, in order.  Each op is a dict with ``id`` (unique
    in the pass), ``argv``, ``kind`` (how its output is checked: "fixed",
    "scrambled" or "symbol") and, for the compute ops, ``fixture`` =
    [algebra, omega] and ``base``."""
    if workload == "ladder-compute":
        return [_op(f"compute {name}", _compute(fx), "fixed", fx)
                for name, fx in (("N8", N8), ("T8", T8), ("N10", N10))]
    if workload == "identity-check":
        return ([_op("identities N8", _check("identities", N8), "fixed", N8)]
                + [_op(f"{suite} N6", _check(suite, N6), "fixed", N6)
                   for suite in ("lefschetz", "ddlambda", "index")])
    if workload == "hodge-check":
        return [_op(f"hodge {name}", _check("hodge", fx), "fixed", fx)
                for name, fx in (("N6", N6), ("N8", N8))]
    if workload == "scrambled-compute":
        ops = []
        for base, (algebra, omega, moved, copies) in SCRAMBLE_BASES.items():
            for copy in range(copies):
                rng = random.Random(f"{seed}:{base}:{copy}")
                fx = scramble(algebra, omega, moved, rng)
                op = _op(f"compute {base}#{copy}", _compute(fx), "scrambled", fx)
                op["base"] = base
                ops.append(op)
        ops.append(_op("symbol n=3", ["check", "--suite=symbol", "--n=3",
                                      f"--seed={seed}"], "symbol", None))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _op(op_id: str, argv: list[str], kind: str, fixture) -> dict:
    op = {"id": op_id, "argv": argv, "kind": kind}
    if fixture is not None:
        op["fixture"] = list(fixture)
    return op


def fixtures(ops: list[dict]) -> list[list[str]]:
    """Distinct [algebra, omega] pairs of a pass, in first-use order."""
    seen: list[list[str]] = []
    for op in ops:
        fx = op.get("fixture")
        if fx is not None and fx not in seen:
            seen.append(fx)
    return seen
