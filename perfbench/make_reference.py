"""Write reference.json: what every fixed operation must print.

    python3 perfbench/make_reference.py

For each fixed operation of every workload it records the argv, the exit
code and the sha256 of stdout; for each scramble base, the dimension table
of all six cohomology families in the unscrambled basis.  Run it only on a
commit whose outputs are known to be right (the table in README.md names
the one it was made on): a later change that moves a hash is a correctness
bug, not a new reference.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def main() -> None:
    from symcoh.cli import main as cli_main
    fixed: dict = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, 0):
            if op["kind"] != "fixed":
                continue
            dt, rc, text = run_op(cli_main, op["argv"])
            fixed.setdefault(workload, {})[op["id"]] = {
                "argv": op["argv"], "rc": rc,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
            print(f"{workload:<18} {op['id']:<16} exit {rc}  {dt:7.3f} s", file=sys.stderr)
    dims = {}
    for base, (algebra, omega, _moves, _copies) in workloads.SCRAMBLE_BASES.items():
        _, rc, text = run_op(cli_main, ["compute", f"--algebra={algebra}", f"--omega={omega}"])
        if rc != 0:
            raise SystemExit(f"base {base} does not compute (exit {rc})")
        dims[base] = check.dims_table(text)
        problem = check.dims_problem(dims[base], dims[base])
        if problem is not None:
            raise SystemExit(f"base {base}: {problem}")
    out = {"fixed": fixed, "dims": dims}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
