"""Metrics of a run, and the layer-share report of a traced run."""

from __future__ import annotations

import math
import statistics

import tracer

END_TO_END_UNITS = {"run_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# The per-layer table of README.md, as predicted self-time shares of traced
# run_s: layer -> workload -> (low, high, wording).  "most" is at least
# half, "moves <metric>" at least 5% (less cannot move an end-to-end metric
# beyond its run-to-run noise), "none" at most 1%.  A measured share outside
# [low, high] contradicts the prediction.
PREDICTIONS = {
    "linalg": {"ladder-compute": (0.5, 1.0, "most"),
               "scrambled-compute": (0.5, 1.0, "most"),
               "identity-check": (0.0, 0.05, "about 0 (3%)"),
               "hodge-check": (0.2, 0.5, "about 34% (Gram inversion, elimination)")},
    "exterior": {"ladder-compute": (0.0, 0.1, "little"),
                 "identity-check": (0.05, 1.0, "moves run_s, op_p50_s"),
                 "hodge-check": (0.05, 1.0, "moves run_s, op_p50_s")},
    "cealgebra": {"identity-check": (0.05, 1.0, "moves run_s")},
    "symplectic": {"ladder-compute": (0.05, 0.35, "about 20% of N8 (operator builds)"),
                   "identity-check": (0.05, 1.0, "moves run_s")},
    "cohomology": {"ladder-compute": (0.05, 1.0, "moves op_p90_s"),
                   "scrambled-compute": (0.05, 1.0, "moves op_p90_s")},
    "hodge": {"hodge-check": (0.05, 1.0, "moves run_s, op_p90_s"),
              "ladder-compute": (0.0, 0.01, "none"),
              "scrambled-compute": (0.0, 0.01, "none"),
              "identity-check": (0.0, 0.01, "none")},
    "symbolcheck": {"scrambled-compute": (0.05, 1.0, "moves run_s"),
                    "ladder-compute": (0.0, 0.01, "none"),
                    "identity-check": (0.0, 0.01, "none"),
                    "hodge-check": (0.0, 0.01, "none")},
    "identities": {"identity-check": (0.05, 1.0, "moves run_s")},
    "cli": {"ladder-compute": (0.05, 1.0, "moves op_p50_s")},
}

# Figures quoted in the workload descriptions: (workload, metrics summed,
# low, high, wording).  A ``*.total_s`` metric counts as its share of traced
# run_s; anything else is compared as it stands.
QUOTED = [
    ("ladder-compute", ["linalg.echelon.total_s"], 0.8, 0.9,
     "linalg.echelon inclusive: 80-90% (cProfile)"),
    ("identity-check", ["share.exterior", "share.symplectic", "share.cealgebra"], 0.9, 1.0,
     "form-level exterior + symplectic + cealgebra: about 95%"),
    ("hodge-check", ["hodge.CompatibleTriple.jay_complex.total_s"], 0.45, 0.65,
     "Q(i) jay_complex substitution inclusive: about 56%"),
    ("scrambled-compute", ["symbolcheck.structure_builds"], 21, 21,
     "symbol suite builds one structure per covector: 21"),
]

# layers whose calls a workload must record (the self-test checks these)
EXERCISED = {
    "ladder-compute": ("linalg", "symplectic", "cohomology", "cli"),
    "scrambled-compute": ("linalg", "cohomology", "symbolcheck", "cli"),
    "identity-check": ("exterior", "cealgebra", "symplectic", "identities", "cli"),
    "hodge-check": ("linalg", "exterior", "hodge", "scalars", "cli"),
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(passes: list[dict], setup_samples: list[float], peak_rss_mb: float) -> dict:
    # Each operation's median over the passes, so that a percentile which
    # falls between two operations' times (the 50th of identity-check's four)
    # does not sit on the slowest execution of the faster one.
    op_times = [statistics.median(p["ops"][i]["s"] for p in passes)
                for i in range(len(passes[0]["ops"]))]
    return {
        "run_s": statistics.median(p["s"] for p in passes),
        "op_p50_s": nearest_rank(op_times, 0.5),
        "op_p90_s": nearest_rank(op_times, 0.9),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def wall_passes(passes: list[dict]) -> list[dict]:
    """``passes`` with every normalised time replaced by its wall time."""
    return [{"s": p["wall_s"], "ops": [{"s": r["wall_s"]} for r in p["ops"]]}
            for p in passes]


def op_medians(ops: list[dict], passes: list[dict]) -> dict:
    """{op name: (median seconds, samples)}; copies of one scramble base
    ("compute N6#0", "compute N6#1", ...) are pooled under the base."""
    times: dict = {}
    for p in passes:
        for op, res in zip(ops, p["ops"]):
            times.setdefault(op["id"].split("#")[0], []).append(res["s"])
    return {name: (statistics.median(ts), len(ts)) for name, ts in times.items()}


def layer_names() -> list[str]:
    return [layer for layer, fns in tracer.TRACED.items() if fns]


def per_layer(untraced: list[dict], traced: dict) -> dict:
    """Every per-layer metric: counts of one pass (they repeat exactly),
    medians over traced passes for times and shares."""
    layers = traced["layers"]
    pass_s = [p["s"] for p in traced["passes"]]
    out = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        out[key] = statistics.median(values) if key.endswith("_s") else values[0]
    for layer in layer_names():
        out[f"share.{layer}"] = statistics.median(
            tracer.layer_seconds(m)[layer] / s for m, s in zip(layers, pass_s))
    out["trace.run_s"] = statistics.median(pass_s)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(p["s"] for p in untraced)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith("share."):
        return "frac"
    if name.endswith("rank_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def share_lines(workload: str, metrics: dict) -> list[str]:
    """The layer-share table of one workload, predictions beside the
    measured shares, contradicted ones marked."""
    run_s = metrics["trace.run_s"]
    lines = [f"layer shares of traced run_s ({run_s:.3f} s) on {workload} (self time):"]
    for layer in layer_names():
        share = metrics[f"share.{layer}"]
        pred = PREDICTIONS.get(layer, {}).get(workload)
        verdict = "no prediction" if pred is None else _verdict(share, *pred)
        lines.append(f"  {layer:<12} {share:7.1%}  {verdict}")
    created = metrics["scalars.gaussian.created"]
    expect_q_i = workload == "hodge-check"
    mark = "ok" if (created > 0) == expect_q_i else "CONTRADICTED"
    lines.append(f"  {'scalars':<12} {created} GaussianRational constructions; "
                 f"predicted {'some' if expect_q_i else 'none'}: {mark}")
    for quoted_workload, keys, low, high, words in QUOTED:
        if quoted_workload == workload:
            value = sum(metrics[k] / run_s if k.endswith(".total_s") else metrics[k]
                        for k in keys)
            shown = f"{value:7.1%}" if high <= 1 else f"{value:7g}"
            lines.append(f"  quoted       {shown}  {_verdict(value, low, high, words)}")
    return lines


def _verdict(value: float, low: float, high: float, words: str) -> str:
    mark = "ok" if low <= value <= high else "CONTRADICTED"
    span = f"{low:.0%}-{high:.0%}" if high <= 1 else f"{low:g}-{high:g}"
    return f"predicted {words} [{span}]: {mark}"
