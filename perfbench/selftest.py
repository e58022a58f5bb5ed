"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py                      # about 3 minutes
    python3 perfbench/selftest.py --workloads identity-check

Checks that
* one seed always gives the same argv list, and two seeds give different
  scrambles, with every value passed as ``--flag=value``;
* every traced function exists in this symcoh, so no call site is missed;
* for each workload, a traced run (one untraced and one traced pass) is
  correct: traced and untraced stdout are byte-identical for every
  operation, every fixed operation matches reference.json and every
  scrambled fixture has its base's dimensions;
* every layer that a workload is meant to exercise records calls there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def check_generator() -> list[str]:
    problems = []
    for seed in (1, 2):
        a = workloads.operations("scrambled-compute", seed)
        if a != workloads.operations("scrambled-compute", seed):
            problems.append(f"seed {seed} gives two different argv lists")
    if workloads.operations("scrambled-compute", 1) == workloads.operations("scrambled-compute", 2):
        problems.append("seeds 1 and 2 give the same scrambles")
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, 1):
            bad = [a for a in op["argv"][1:] if not (a.startswith("--") and "=" in a)]
            if bad:
                problems.append(f"{workload} {op['id']}: values not in --flag=value form: {bad}")
    return problems


def check_trace_targets() -> list[str]:
    sys.path.insert(0, str(HERE.parent / "src"))
    import symcoh.cli  # noqa: F401  (loads every module the CLI uses)
    rec = tracer.Recorder()
    tracer.install(rec)
    return [f"traced function {name} not found" for name in rec.names if name not in rec.found]


def check_workload(workload: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"], capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        return [f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}"]
    print(proc.stdout.rsplit("\n", 2)[0])
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    if not result["correct"]:
        problems.append(f"{workload}: {result['failed']} of {result['attempted']} executions wrong")
    for layer in report.EXERCISED[workload]:
        if layer == "scalars":
            calls = metrics["scalars.gaussian.created"]
        else:
            calls = sum(metrics[f"{layer}.{fn}.calls"] for fn in tracer.TRACED[layer])
        if not calls:
            problems.append(f"{workload}: layer {layer} recorded no calls")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args()
    problems = check_generator() + check_trace_targets()
    for workload in args.workloads.split(","):
        problems += check_workload(workload)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
