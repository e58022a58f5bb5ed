"""Correctness gate: which operation executions gave a wrong result.

* A fixed operation must reproduce the exit code and stdout sha256 recorded
  in reference.json.
* A scrambled compute must exit 0 with the dimension table of its
  unscrambled base (dimensions do not depend on the basis), and the table
  must satisfy b_k = b_{2n-k}, dim dL^k = b_{2n-k}, dim p+(k) = dim p-(k)
  and sum (-1)^k b_k = 0.
* The symbol suite must exit 0 and report a pass with no details.
* Every later execution of an operation, traced or not, must repeat the
  exit code and stdout of the first.
"""

from __future__ import annotations

import json

SYMBOL_OK = {"symbol": {"passed": True, "details": []}}


def dims_table(text: str) -> dict:
    """{group: [dim per degree, in ascending degree]} of a compute report."""
    groups = json.loads(text)["groups"]
    return {g: [entry[k]["dim"] for k in sorted(entry, key=int)]
            for g, entry in groups.items()}


def dims_problem(dims: dict, base: dict) -> str | None:
    if dims != base:
        return f"dimensions {dims} differ from the base's {base}"
    b, dl = dims["dR"], dims["dL"]
    top = len(b) - 1
    if any(b[k] != b[top - k] for k in range(top + 1)):
        return f"Betti numbers {b} are not symmetric"
    if any(dl[k] != b[top - k] for k in range(top + 1)):
        return f"dL dimensions {dl} are not the reversed Betti numbers {b}"
    if dims["p+"] != dims["p-"]:
        return f"p+ {dims['p+']} != p- {dims['p-']}"
    if sum((-1) ** k * v for k, v in enumerate(b)):
        return f"Euler characteristic of {b} is not 0"
    return None


def expected(op: dict, first: dict, reference: dict, workload: str):
    """(exit code, sha256) every execution of ``op`` must give, or a string
    saying why none can be right."""
    kind = op["kind"]
    if kind == "fixed":
        ref = reference["fixed"].get(workload, {}).get(op["id"])
        if ref is None or ref["argv"] != op["argv"]:
            return f"no reference for {op['id']!r}"
        return ref["rc"], ref["sha256"]
    if first["rc"] != 0:
        return f"exit code {first['rc']}"
    text = first["text"]
    try:
        if kind == "symbol":
            problem = (None if json.loads(text)["checks"] == SYMBOL_OK
                       else "symbol suite did not pass")
        else:
            problem = dims_problem(dims_table(text), reference["dims"][op["base"]])
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable report: {exc!r}"
    if problem is not None:
        return problem
    return 0, first["sha256"]


def failures(workload: str, ops: list[dict], pass_lists: list[list[dict]],
             reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few reasons) over every pass in every list;
    the first pass of the first list is the one whose texts were kept."""
    first = pass_lists[0][0]["ops"]
    attempted = failed = 0
    reasons: list[str] = []
    for i, op in enumerate(ops):
        want = expected(op, first[i], reference, workload)
        for passes in pass_lists:
            for p in passes:
                res = p["ops"][i]
                attempted += 1
                if isinstance(want, str):
                    reason = want
                elif (res["rc"], res["sha256"]) != want:
                    reason = f"exit code {res['rc']!r} or stdout differs from the expected"
                else:
                    continue
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{op['id']}: {reason}")
    return attempted, failed, reasons
