"""Spans around calls into fxattn's public functions, recorded from outside.

The package carries no timing hooks, so tracing replaces each listed
function, in every fxattn module that looks it up by name, with a wrapper
that records a span: name, start, end, parent and the id of the benchmark
op it belongs to. Spans stay in memory. A pool worker forked during a
traced op inherits the wrappers and the open op; it writes its spans to a
spool file when it exits and the parent reads them back.

A span's self time is its duration minus the part of it that its children
in the same process cover, so the self times of one process's spans in an
op add up to that process's root span.
"""
from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The table of traced layers: "<module>.<function>" -> stats reported per op.
# "s" is inclusive time, "self_s" exclusive time. fxp.quantize (the scalar
# per-element path) is deliberately absent: a span per element would swamp
# the object-path timings it sits inside.
FXP_KERNELS = ("fx_matmul", "fx_add_array", "fx_mul_array", "fx_sum", "fx_relu",
               "quantize_array")
TRACED = {
    **{f"fxp.{k}": ("calls", "self_s") for k in FXP_KERNELS},
    "softmax.softmax_lut": ("calls", "rows", "self_s"),
    "softmax.make_softmax_config": ("calls", "s"),
    "softmax.softmax_exact": ("self_s",),
    "attention.mha_forward_batch": ("calls", "self_s"),
    "attention.run_mha_streaming": ("self_s",),
    "attention.stage1_project": ("self_s",),
    "attention.stage2_scores": ("self_s",),
    "attention.stage3_apply": ("self_s",),
    "attention.stage4_concat_project": ("self_s",),
    "attention.quantize_mha_weights": ("s",),
    "model.forward_batch": ("calls", "self_s"),
    "model.quantize_weights": ("calls", "s"),
    "model.load_weights": ("s",),
    "layers.quantize_dense": ("s",),
    "data.generate_synthetic": ("s",),
    "data.save_csv": ("s",),
    "data.load_csv": ("s",),
    "metrics.one_vs_rest_aucs": ("calls", "s"),
    "sweeps.sweep_precision": ("self_s",),
    # one sweep grid point, so pool-worker time is attributed per point
    "sweeps._precision_point": ("s",),
}
# Functions that only run while the inputs are built, before the first op.
SETUP_ONLY = ("data.generate_synthetic", "data.save_csv", "data.load_csv",
              "model.load_weights")
ROOT_SPAN = "bench.op"

# metrics that are not "<traced function>.<stat>"
EXTRA_METRICS = {
    "fxp.elems": "count",
    "fxp.object_share": "ratio",
    "sweeps.points": "count",
    "sweeps.worker_busy_share": "ratio",
    "bench.op.s": "s",
    "bench.op.self_s": "s",
    "bench.jets_per_s_untraced": "1/s",
    "bench.jets_per_s_traced": "1/s",
    "bench.trace_overhead_share": "ratio",
}
STAT_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in TRACED.items() for stat in stats
             if name != "sweeps._precision_point"}
    units.update(EXTRA_METRICS)
    return units


def _counts(name: str, args, out) -> tuple[int, int, int]:
    """(elements produced, object-dtype result, softmax rows) for one call."""
    if name.startswith("fxp."):
        raw = out.raw
        return int(raw.size), int(raw.dtype == object), 0
    if name == "softmax.softmax_lut":
        return 0, 0, math.prod(args[1].shape[:-1])
    return 0, 0, 0


class Tracer:
    """Span recorder; records only while an op id is set."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.op = None
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._next = 0
        self._pid = os.getpid()

    def install(self, modules) -> list[str]:
        """Wrap every TRACED function at each place fxattn looks it up.

        Returns the names that could not be found.
        """
        missing = []
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            home = modules.get(mod_name)
            original = getattr(home, fn_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("fxattn"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        return missing

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if os.getpid() != self._pid:
                self._adopt_fork()
            self._next += 1
            sid = (self._pid, self._next)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                self._stack.pop()
                counts = _counts(name, args, out) if out is not None else (0, 0, 0)
                self.spans.append((self.op, sid, parent, name, start, end, *counts))
        return traced

    def _adopt_fork(self) -> None:
        """First span in a forked worker: drop the parent's spans, spool at exit."""
        self._pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self._spool_out, exitpriority=10)

    def _spool_out(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"spans-{self._pid}.json"
        path.write_text(json.dumps(self.spans))

    def root(self, op_id, fn):
        """Run fn() as op op_id under a root span; return its result."""
        self.op = op_id
        try:
            return self._wrap(fn, ROOT_SPAN)()
        finally:
            self.op = None

    def collect_workers(self) -> None:
        """Move spans spooled by exited pool workers into this recorder."""
        if not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("spans-*.json")):
            for s in json.loads(path.read_text()):
                self.spans.append((s[0], tuple(s[1]), tuple(s[2]) if s[2] else None,
                                   *s[3:]))
            path.unlink()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict:
    """span id -> duration minus the union of its same-process children."""
    children = defaultdict(list)
    for s in spans:
        _, sid, parent, _, start, end = s[:6]
        if parent is not None and parent[0] == sid[0]:
            children[parent].append((start, end))
    return {s[1]: (s[5] - s[4]) - _covered(children.get(s[1], [])) for s in spans}


def check_attribution(spans: list[tuple]) -> float:
    """Largest gap, over ops and processes, between the summed self times of
    a process's spans and the duration of its root spans (seconds)."""
    selfs = self_times(spans)
    ids = {s[1] for s in spans}
    by_key = defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        op, sid, parent = s[:3]
        key = (op, sid[0])
        by_key[key][0] += selfs[sid]
        if parent is None or parent[0] != sid[0] or parent not in ids:
            by_key[key][1] += s[5] - s[4]
    return max((abs(a - b) for a, b in by_key.values()), default=0.0)


def layer_metrics(spans: list[tuple], jobs: int) -> dict[str, float]:
    """Per-op medians of every traced stat; setup-only functions come from
    the setup op. Ops are the distinct op ids other than "setup"."""
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    for s in spans:
        op, sid, _, name, start, end, elems, obj, rows = s
        acc = per_op[op]
        acc[f"{name}.calls"] += 1
        acc[f"{name}.s"] += end - start
        acc[f"{name}.self_s"] += selfs[sid]
        acc[f"{name}.rows"] += rows
        if name.startswith("fxp."):
            acc["fxp.elems"] += elems
            acc["fxp.objects"] += obj
            acc["fxp.kernel_calls"] += 1
    ops = [op for op in per_op if op != "setup"]
    for op in ops:
        acc = per_op[op]
        acc["fxp.object_share"] = (acc["fxp.objects"] / acc["fxp.kernel_calls"]
                                   if acc["fxp.kernel_calls"] else 0.0)
        acc["sweeps.points"] = acc["sweeps._precision_point.calls"]
        wall = acc["sweeps.sweep_precision.s"]
        acc["sweeps.worker_busy_share"] = (
            acc["sweeps._precision_point.s"] / (jobs * wall) if wall and jobs else 0.0)

    def median(key: str) -> float:
        return statistics.median(per_op[op][key] for op in ops) if ops else 0.0

    out = {}
    for name in metric_units():
        if name.startswith("bench.jets_per_s") or name == "bench.trace_overhead_share":
            continue
        if any(name.startswith(f + ".") for f in SETUP_ONLY):
            out[name] = per_op["setup"][name] if "setup" in per_op else 0.0
        else:
            out[name] = median(name)
    return out


def varying_counts(spans: list[tuple]) -> list[str]:
    """Count metrics whose per-op value differs between ops (should be none)."""
    per_op = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s[0] != "setup":
            per_op[s[0]][f"{s[3]}.calls"] += 1
            per_op[s[0]][f"{s[3]}.rows"] += s[8]
            per_op[s[0]]["fxp.elems"] += s[6]
    seen = list(per_op.values())
    keys = set().union(*seen) if seen else set()
    return sorted(k for k in keys if len({acc.get(k, 0) for acc in seen}) > 1)
