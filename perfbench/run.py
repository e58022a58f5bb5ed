"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ladder-compute --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; symcoh is imported from its ``src``
directory.  Each operation is one in-process call to ``symcoh.cli.main``,
one at a time (closed loop, one client, one thread).  Set-up is timed in
several fresh processes and the passes run in one more, so import cost and
peak memory belong to this workload alone.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are a readable
report.  Exit code 0 means the run completed (check ``correct``); any other
code means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_PROCESSES = 8   # set-up samples besides the measuring process
DEADLINE_S = 170      # every child is stopped by then


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SYMCOH_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, deadline: float) -> dict:
    """Start worker.py, give it ``spec``, wait for its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "symcoh" / "cli.py").is_file():
        raise BenchError(f"no symcoh sources under {SRC}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ops = workloads.operations(workload, seed)
    spec = {"src": str(SRC), "fixtures": workloads.fixtures(ops), "ops": ops,
            "seconds": seconds, "mode": "setup"}
    setups = [run_child(spec, deadline) for _ in range(SETUP_PROCESSES)]
    spec["mode"] = "trace" if trace else "run"
    if trace:
        OUT.mkdir(exist_ok=True)
        spec["spans"] = str(OUT / f"spans-{workload}-seed{seed}.jsonl")
    res = run_child(spec, deadline)
    setups.append(res)
    setup_samples = [r["setup_s"] for r in setups]

    pass_lists = [res["passes"]] + ([res["traced"]["passes"]] if trace else [])
    attempted, failed, reasons = check.failures(workload, ops, pass_lists, reference)
    lines = [f"workload {workload}, seed {seed}: {len(ops)} operations per pass, "
             f"{len(res['passes'])} untraced passes"
             + (f", {len(res['traced']['passes'])} traced passes" if trace else "")]
    lines.append(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} "
                 "operation executions wrong)")
    lines += [f"  FAILED {r}" for r in reasons]
    if trace:
        metrics = report.per_layer(res["passes"], res["traced"])
        lines += report.share_lines(workload, metrics)
        lines.append(f"tracing overhead {metrics['trace.overhead_s']:.3f} s per pass; "
                     f"{res['traced']['spans']} spans kept, "
                     f"{res['traced']['spans_dropped']} dropped, log in {spec['spans']}")
    else:
        metrics = report.end_to_end(res["passes"], setup_samples, res["peak_rss_mb"])
        lines.append(f"op percentiles over {len(ops)} operations, each the median of "
                     f"{len(res['passes'])} executions; "
                     f"setup_s median of {len(setup_samples)} processes; "
                     "times normalised to the reference machine speed (speed.py)")
        wall = report.end_to_end(report.wall_passes(res["passes"]),
                                 [r["setup_wall_s"] for r in setups], res["peak_rss_mb"])
        lines.append("as wall time: " + ", ".join(
            f"{name} {wall[name]:.4f} s" for name in ("run_s", "op_p50_s", "op_p90_s", "setup_s"))
            + f"; wall / normalised run_s = {wall['run_s'] / metrics['run_s']:.3f}")
        lines += [f"  {name:<12} {value:.4f} {report.unit_of(name)}"
                  for name, value in metrics.items()]
        lines += [f"op {name}: median {value:.4f} s over {count} samples"
                  for name, (value, count) in report.op_medians(ops, res["passes"]).items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": report.unit_of(name)}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
