"""One workload run in a fresh process; started by run.py.

Reads a JSON spec on stdin and writes one JSON result on stdout.  Spec keys:
``src`` (directory that holds the symcoh package), ``fixtures`` (list of
[algebra, omega]), ``ops`` (see workloads.operations), ``seconds`` (the
measuring budget), ``mode`` ("setup", "run" or "trace") and, for "trace",
``spans`` (path of the span log to write).

"setup" imports symcoh, then parses and validates every fixture and builds
its SymplecticComplex, and reports how long that took.  "run" does the same
and then runs passes over ``ops`` until the budget is spent.  "trace" splits
the budget: untraced passes first, then the tracer is installed and traced
passes follow.

Every time is reported twice: ``wall_s`` as measured and ``s`` normalised
to the reference machine speed (speed.py).  "setup" and "run" measure the
speed while they work; "trace" does not (the probe would run inside the
traced spans), so there ``s`` is wall time too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import speed


class WallClock:
    """The ``mark``/``since`` interface of speed.Speedometer, unnormalised."""

    def mark(self) -> float:
        return time.perf_counter()

    def since(self, mark: float) -> tuple[float, float]:
        dt = time.perf_counter() - mark
        return dt, dt


def setup(src: str, fixtures: list, clock) -> tuple[float, float]:
    """(wall, normalised) seconds to import symcoh and build every
    fixture's complex."""
    t0 = clock.mark()
    sys.path.insert(0, src)
    from symcoh.cealgebra import parse_algebra
    from symcoh.symplectic import SymplecticComplex, parse_omega
    import symcoh.cli  # noqa: F401  (the module every operation enters)
    for algebra, omega in fixtures:
        spec = parse_algebra(algebra)
        SymplecticComplex(spec, parse_omega(omega, spec.dim))
    return clock.since(t0)


def run_op(main, argv: list[str], clock) -> tuple[float, float, object, str]:
    """(wall seconds, normalised seconds, exit code, stdout) of one
    in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock.mark()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
    wall, norm = clock.since(t0)
    return wall, norm, rc, out.getvalue()


def run_passes(main, ops: list[dict], budget: float, keep_text: bool, clock,
               before_op=None) -> list[dict]:
    """At least one pass; another only while the median pass still fits."""
    passes = []
    start = time.perf_counter()
    while True:
        p0 = clock.mark()
        results = []
        for i, op in enumerate(ops):
            if before_op is not None:
                before_op(i)
            wall, norm, rc, text = run_op(main, op["argv"], clock)
            res = {"s": norm, "wall_s": wall, "rc": rc,
                   "sha256": hashlib.sha256(text.encode()).hexdigest()}
            if keep_text and not passes and op["kind"] != "fixed":
                res["text"] = text
            results.append(res)
        wall, norm = clock.since(p0)
        passes.append({"s": norm, "wall_s": wall, "ops": results})
        est = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + est > budget:
            return passes


def main() -> None:
    spec = json.load(sys.stdin)
    if spec["mode"] == "trace":
        result = measure(spec, WallClock())
    else:
        with speed.Speedometer() as clock:
            result = measure(spec, clock)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


def measure(spec: dict, clock) -> dict:
    wall, norm = setup(spec["src"], spec["fixtures"], clock)
    result = {"setup_s": norm, "setup_wall_s": wall}
    if spec["mode"] != "setup":
        from symcoh.cli import main as cli_main
        ops, budget = spec["ops"], spec["seconds"]
        if spec["mode"] == "run":
            result["passes"] = run_passes(cli_main, ops, budget, True, clock)
        else:
            result["passes"] = run_passes(cli_main, ops, budget / 2, True, clock)
            result["traced"] = trace(ops, budget / 2, spec["spans"])
    return result


def trace(ops: list[dict], budget: float, spans_path: str) -> dict:
    import symcoh.cli
    import tracer
    rec = tracer.Recorder()
    tracer.install(rec)
    cli_main = symcoh.cli.main  # the wrapped entry point
    snaps = []

    def before_op(i: int) -> None:
        rec.op += 1
        if i == 0:
            snaps.append(rec.snapshot())

    passes = run_passes(cli_main, ops, budget, False, WallClock(), before_op)
    snaps.append(rec.snapshot())
    rec.write_spans(spans_path)
    return {"passes": passes,
            "layers": [tracer.pass_metrics(a, b) for a, b in zip(snaps, snaps[1:])],
            "spans": len(rec.spans), "spans_dropped": rec.dropped}


if __name__ == "__main__":
    main()
