"""Layer spans and counters, wrapped around symcoh from outside.

``install()`` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, operation id) and adds the call to
per-function totals: calls, total (inclusive) time and self time.  A
span's self time is its duration minus the time covered by its child spans;
totals are summed online, so they are exact even when the span log is
capped.  The program itself is not changed.

A function bound with ``from .x import y`` is a separate name in every
importing module, so each wrapper replaces every global in every loaded
``symcoh`` module that still points at the original.  Methods are patched
on their class, which every caller shares.

Names that a later version of the program no longer has are skipped and
read as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer (symcoh module) -> traced functions, as qualified names.  The first
# block is the per-layer table of perfbench/README.md; the check-suite entry
# points after it are traced so that their time is charged to their own
# layer rather than to cli.main.
TRACED = {
    "linalg": ["rref", "echelon", "det", "OperatorMatrix.invert"],
    "exterior": ["Form.wedge", "contract", "form_to_coords"],
    "cealgebra": ["LieAlgebraSpec.d", "parse_algebra"],
    "symplectic": [
        "SymplecticStructure.__init__", "SymplecticStructure.Lambda",
        "SymplecticStructure.components", "SymplecticStructure.primitive_basis",
        "SymplecticComplex.del_plus", "SymplecticComplex.del_minus",
        "SymplecticComplex.d_lambda", "matrix_on_blades"],
    "cohomology": [
        "CohomologyCalculator.group", "CohomologyCalculator.d_matrix",
        "CohomologyCalculator.dl_matrix",
        "CohomologyCalculator.check_strong_lefschetz",
        "CohomologyCalculator.check_ddlambda_lemma",
        "CohomologyCalculator.check_index"],
    "hodge": [
        "CompatibleTriple.__init__", "CompatibleTriple.jay_complex",
        "InnerProduct.gram", "HodgeTheory.harmonic_space",
        "HodgeTheory.check_jay_conjugation", "run_hodge_suite"],
    "scalars": [],
    "symbolcheck": ["build_symbols", "check_exactness", "run_symbol_suite"],
    "identities": ["run_identity_suite"],
    "cli": ["main"],
}

# counters that are not spans
COUNTERS = ("scalars.gaussian.created", "symbolcheck.structure_builds")
RREF_STATS = ("rows_in", "nnz_in", "rank_out", "max_bits")

SPAN_CAP = 50_000


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def _bits(v) -> int:
    num = getattr(v, "numerator", None)
    if num is None:  # an exact complex scalar: bits of both parts
        return max(_bits(v.re), _bits(v.im))
    return max(abs(num).bit_length(), v.denominator.bit_length())


class Recorder:
    """Span log plus per-function totals for one process."""

    def __init__(self):
        self.names = span_names()
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.rref = dict.fromkeys(RREF_STATS, 0)
        self.op = -1
        self.found: set[str] = set()
        self._stack: list[list] = []  # [child seconds, span index]
        self.spans: list[list] = []   # [name id, op, parent span, start, end]
        self.dropped = 0

    # -- wrappers ----------------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([nid, self.op, parent, 0.0, 0.0])
        else:
            idx = -1
            self.dropped += 1
        frame = [0.0, idx]
        stack.append(frame)
        return frame

    def _exit(self, nid: int, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.total_s[nid] += dur
        self.self_s[nid] += dur - frame[0]
        self.calls[nid] += 1
        if stack:
            stack[-1][0] += dur
        if frame[1] >= 0:
            rec = self.spans[frame[1]]
            rec[3] = t0
            rec[4] = t1

    def _exclude(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the caller's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def wrap(self, nid: int, fn):
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid, frame, t0, clock())
        return traced

    def wrap_rref(self, nid: int, fn):
        """rref with its input shape and output rank and coefficient size."""
        clock = time.perf_counter
        stats = self.rref

        @functools.wraps(fn)
        def traced(rows, ncols):
            s0 = clock()
            rows = list(rows)
            self._exclude(clock() - s0)
            frame = self._enter(nid)
            t0 = clock()
            try:
                pivots, out = fn(rows, ncols)
            finally:
                t1 = clock()
                self._exit(nid, frame, t0, t1)
            stats["rows_in"] += len(rows)
            stats["nnz_in"] += sum(1 for r in rows for v in r.values() if v)
            stats["rank_out"] += len(pivots)
            bits = max((_bits(v) for r in out for v in r.values()), default=0)
            stats["max_bits"] = max(stats["max_bits"], bits)
            self._exclude(clock() - t1)
            return pivots, out
        return traced

    def count_calls(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far; the difference of two snapshots is one pass."""
        return {"calls": list(self.calls), "total_s": list(self.total_s),
                "self_s": list(self.self_s),
                "counters": dict(self.counters), "rref": dict(self.rref)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "fields": ["name", "op", "parent", "start", "end"]}) + "\n")
            for nid, op, parent, t0, t1 in self.spans:
                fh.write(f"[{nid},{op},{parent},{t0:.9f},{t1:.9f}]\n")


def _modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "symcoh" or name.startswith("symcoh."))]


def _rebind(original, replacement) -> None:
    """Point every symcoh module global that names ``original`` at
    ``replacement``."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every traced function that this version of symcoh has."""
    for nid, full in enumerate(rec.names):
        layer, qual = full.split(".", 1)
        try:
            mod = importlib.import_module(f"symcoh.{layer}")
        except ImportError:
            continue
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            continue
        wrap = rec.wrap_rref if full == "linalg.rref" else rec.wrap
        wrapper = wrap(nid, original)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
        rec.found.add(full)
    _install_counters(rec)


def _install_counters(rec: Recorder) -> None:
    try:
        scalars = importlib.import_module("symcoh.scalars")
        cls = scalars.GaussianRational
    except (ImportError, AttributeError):
        pass
    else:
        cls.__init__ = rec.count_calls("scalars.gaussian.created", cls.__init__)
    try:
        symbolcheck = importlib.import_module("symcoh.symbolcheck")
        structure = symbolcheck.SymplecticStructure
    except (ImportError, AttributeError):
        pass
    else:
        symbolcheck.SymplecticStructure = rec.count_calls(
            "symbolcheck.structure_builds", structure)


def pass_metrics(before: dict, after: dict) -> dict:
    """Per-function and per-counter values of one pass."""
    out = {}
    names = span_names()
    for i, name in enumerate(names):
        out[f"{name}.calls"] = after["calls"][i] - before["calls"][i]
        out[f"{name}.total_s"] = after["total_s"][i] - before["total_s"][i]
        out[f"{name}.self_s"] = after["self_s"][i] - before["self_s"][i]
    for name in COUNTERS:
        out[name] = after["counters"][name] - before["counters"][name]
    rows = after["rref"]["rows_in"] - before["rref"]["rows_in"]
    rank = after["rref"]["rank_out"] - before["rref"]["rank_out"]
    out["linalg.rref.rows_in"] = rows
    out["linalg.rref.nnz_in"] = after["rref"]["nnz_in"] - before["rref"]["nnz_in"]
    out["linalg.rref.rank_out"] = rank
    out["linalg.rref.rank_ratio"] = rank / rows if rows else 0.0
    # the running maximum: exact for the first pass, and every pass repeats it
    out["linalg.rref.max_bits"] = after["rref"]["max_bits"]
    return out


def layer_seconds(metrics: dict) -> dict:
    """Self time per layer, from one pass's metrics."""
    return {layer: sum(metrics[f"{layer}.{fn}.self_s"] for fn in fns)
            for layer, fns in TRACED.items()}
