"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py                         # all four, seeds 1-3
    python3 perfbench/suite.py --seeds 1-10 --workloads hodge-check
    python3 perfbench/suite.py --trace 1 --seeds 1     # layer shares
    python3 perfbench/suite.py --seeds 1-10 --json perfbench/baseline.json

Each run is a separate ``run.py`` process, started the way the command in
BENCHMARK.json starts it.  For every workload and metric it prints the
median and the spread, the distance between the first and third quartile
as a share of the median.
With ``--trace 1`` it also prints each run's layer-share report.

``--json PATH`` stores the summary under the key "end_to_end" (or
"per_layer" with ``--trace 1``) of the JSON file at PATH, keeping its other
keys, together with the Python version, core count and seeds.  That is how
baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summarise(results: list[dict], skip_zero: bool) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if skip_zero and statistics.median(values) == 0:
            continue
        q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
                  else (values[0], values[0]))
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": spread(values), "values": values}
    return out


def op_lines(stdout: str) -> dict:
    """{op name: median seconds} from run.py's "op ..." report lines."""
    return {m[1]: float(m[2]) for m in re.finditer(
        r"^op (.+): median ([0-9.]+) s", stdout, re.M)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also store the summary in this JSON file")
    args = p.parse_args()
    runs: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            runs.setdefault(workload, []).append(
                {"seed": seed, "op_median_s": op_lines(proc.stdout), **result})
            ok = ok and result["correct"]
            if args.trace:
                print("\n".join(lines[:-1]))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
    summary = {}
    for workload, results in runs.items():
        metrics = summarise(results, bool(args.trace))
        print(f"\n{workload}: {len(results)} runs")
        for name, m in metrics.items():
            print(f"  {name:<48} median {m['median']:12.4f} {m['unit']:<6} "
                  f"spread {m['spread']:6.1%}  min {min(m['values']):.4f} "
                  f"max {max(m['values']):.4f}")
        ops = {}
        for r in results:
            for name, value in r["op_median_s"].items():
                ops.setdefault(name, []).append(value)
        op_median_s = {name: statistics.median(v) for name, v in ops.items()}
        summary[workload] = {"metrics": metrics, "op_median_s": op_median_s}
        for name, value in op_median_s.items():
            print(f"  op {name:<45} median {value:12.4f} s")
    if args.json:
        path = Path(args.json)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["environment"] = {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "SYMCOH_THREADS": "unset (run.py removes it from the child environment)",
            "run_seconds": args.seconds}
        data["per_layer" if args.trace else "end_to_end"] = {
            "seeds": seed_list(args.seeds), "workloads": summary}
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
