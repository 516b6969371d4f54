"""In-memory span tracer for the per-layer benchmark run.

The tracer wraps public functions of the ``longvq`` modules from outside:
it swaps a module or class attribute for a timing wrapper and puts the
original back on ``uninstall``. Nothing under ``src/`` changes. A wrapped
op that returns a tape node also gets its backward closure (``_vjp``)
wrapped, so backward time is attributed to the op that built the node.

Each span is (id, name, start, end, parent, step). Spans stay in memory
and are written once, at the end of the run. Self time is a span's
duration minus the durations of its direct children; the wrappers run on
one thread, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

import longvq.attention as attention
import longvq.model as model
import longvq.ssm as ssm
import longvq.tasks as tasks
import longvq.train as train

__all__ = ["Tracer", "layer_metrics", "self_times", "median", "LAYER_UNITS"]

# (owner, attribute, span name, wraps the backward closure of the result)
TARGETS = [
    (tasks.ReductionHeadTask, "sample", "tasks.sample", False),
    (tasks.PixelTask, "sample", "tasks.sample", False),
    (ssm, "ssm_kernels", "ssm.kernels", True),
    (ssm, "conv_causal_channels", "tensor.conv", True),
    (train, "grad", "tensor.backward", False),
    (attention, "quantize_st", "vq.quantize", False),
    (train, "ema_update", "vq.ema", False),
    (attention, "build_code_stats", "factored.stats", False),
    (attention, "attn_factored", "factored.attn", True),
    (attention, "attn_dense_oracle", "attention.dense", True),
    (attention.LongVQLayer, "__call__", "attention.layer", False),
    (attention.LongVQLayer, "project_inputs", "attention.project_inputs",
     False),
    (attention.LongVQLayer, "gate_output", "attention.gate_output", False),
    (model.Model, "__call__", "model.forward", False),
    (model.Block, "__call__", "model.block", False),
    (model.Ffn, "__call__", "model.ffn", False),
    (model.Norm, "__call__", "model.norm", False),
    (train, "total_loss", "train.loss", False),
    (train, "clip_grads", "train.clip", False),
    (train.AdamW, "step", "train.adamw", False),
]

# per-step metric -> (spans summed, "total" or "self" time)
TIMED = {
    "ssm.kernels_fwd_ms": (("ssm.kernels",), "total"),
    "ssm.kernels_bwd_ms": (("ssm.kernels.bwd",), "total"),
    "tensor.conv_fwd_ms": (("tensor.conv",), "total"),
    "tensor.conv_bwd_ms": (("tensor.conv.bwd",), "total"),
    "tensor.backward_ms": (("tensor.backward",), "total"),
    "factored.stats_ms": (("factored.stats",), "total"),
    "factored.attn_fwd_ms": (("factored.attn",), "total"),
    "factored.attn_bwd_ms": (("factored.attn.bwd",), "total"),
    "vq.quantize_ms": (("vq.quantize",), "total"),
    "vq.ema_ms": (("vq.ema",), "total"),
    "attention.layer_fwd_ms": (("attention.layer",), "total"),
    "attention.proj_gate_self_ms": (("attention.project_inputs",
                                     "attention.gate_output"), "self"),
    "model.forward_ms": (("model.forward",), "total"),
    "model.ffn_norm_self_ms": (("model.ffn", "model.norm"), "self"),
    "train.sample_ms": (("tasks.sample",), "total"),
    "train.loss_ms": (("train.loss",), "self"),
    "train.clip_ms": (("train.clip",), "total"),
    "train.adamw_ms": (("train.adamw",), "total"),
}

LAYER_UNITS = {name: "ms" for name in TIMED}
LAYER_UNITS.update({name[:-3] + "_share": "ratio" for name in TIMED})
LAYER_UNITS.update({
    "tensor.tape_nodes": "count",
    "factored.chunks_per_call": "count",
    "factored.attn_bwd_peak_mb": "MB",
    "factored.dense_over_factored": "ratio",
    "vq.code_usage": "ratio",
    "train.step_peak_mb": "MB",
    "trace.overhead_ratio": "ratio",
})


def _tape_nodes(root):
    """Nodes the backward sweep from ``root`` replays (those with a vjp)."""
    seen, todo, n = set(), [root], 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            n += 1
        todo.extend(node._parents)
    return n


class Tracer:
    """Collects spans and per-step counts while installed."""

    def __init__(self):
        self.spans = []        # closed spans: (id, name, t0, t1, parent, step)
        self.counts = []       # (step, name, value)
        self.step = None       # id of the open step, None between steps
        self._open = []        # stack of (id, name, t0)
        self._next_id = 0
        self._saved = []
        self.mem_peak = {}     # name -> bytes, filled while tracemalloc runs

    # -- spans ----------------------------------------------------------

    def _begin(self, name):
        sid = self._next_id
        self._next_id += 1
        self._open.append((sid, name, time.perf_counter()))

    def _end(self):
        t1 = time.perf_counter()
        sid, name, t0 = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans.append((sid, name, t0, t1, parent, self.step))

    def begin_step(self, step, t0):
        """Open the root span of a train step that started at ``t0``."""
        self.step = step
        sid = self._next_id
        self._next_id += 1
        self._open.append((sid, "step", t0))

    def end_step(self, t1):
        sid, name, t0 = self._open.pop()
        self.spans.append((sid, name, t0, t1, None, self.step))
        self.step = None

    def abandon_step(self):
        """Drop spans left open by an exception that aborted a step."""
        while self._open:
            self._end()
        self.step = None

    def count(self, name, value):
        self.counts.append((self.step, name, value))

    # -- memory ---------------------------------------------------------

    def start_memory(self):
        self.mem_peak = {}
        tracemalloc.start()

    def stop_memory(self):
        self._fold_peak()
        tracemalloc.stop()

    def _fold_peak(self):
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            self.mem_peak["step"] = max(self.mem_peak.get("step", 0), peak)

    def _measure_bwd(self, vjp, g):
        """Run a backward closure, recording its allocation peak."""
        self._fold_peak()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return vjp(g)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.mem_peak["factored.attn.bwd"] = max(
                self.mem_peak.get("factored.attn.bwd", 0), peak)
            self._fold_peak()

    # -- wrapping -------------------------------------------------------

    def _wrap_vjp(self, node, name):
        vjp = getattr(node, "_vjp", None)
        if vjp is None:
            return
        measure = name == "factored.attn.bwd"

        def timed(g):
            self._begin(name)
            try:
                if measure and tracemalloc.is_tracing():
                    return self._measure_bwd(vjp, g)
                return vjp(g)
            finally:
                self._end()

        node._vjp = timed

    def _wrapper(self, fn, name, backward):
        def wrapped(*args, **kwargs):
            if name == "tensor.backward":
                self.count("tensor.tape_nodes", _tape_nodes(args[0]))
            elif name == "factored.attn":
                stats = args[2]
                self.count("factored.chunks_per_call",
                           stats.n.shape[-2] if stats.chunk else 1)
            self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
            if backward:
                self._wrap_vjp(out, name + ".bwd")
            return out
        return wrapped

    def install(self):
        if self._saved:
            return
        for owner, attr, name, backward in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, backward))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- output ---------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, step in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "step": step}) + "\n")


def self_times(spans):
    """Map span id -> duration minus the durations of its children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None and parent in own:
            own[parent] -= t1 - t0
    return own


def step_table(spans):
    """Per traced step: wall ms, and total/self ms per span name."""
    own = self_times(spans)
    steps = {}
    for sid, name, t0, t1, parent, step in spans:
        if step is None:
            continue
        row = steps.setdefault(step, {"wall": 0.0, "total": {}, "self": {}})
        if name == "step":
            row["wall"] = (t1 - t0) * 1e3
            continue
        row["total"][name] = row["total"].get(name, 0.0) + (t1 - t0) * 1e3
        row["self"][name] = row["self"].get(name, 0.0) + own[sid] * 1e3
    return steps


def median(xs):
    """Median of a sample; NaN when every sampled operation failed."""
    return statistics.median(xs) if xs else float("nan")


def layer_metrics(tracer, steps):
    """Median per-step layer metrics over the given traced step ids, and
    the median traced step wall time in ms."""
    table = step_table([s for s in tracer.spans if s[5] in steps])
    rows = [table[k] for k in steps if k in table and table[k]["wall"] > 0]
    out = {}
    for metric, (names, kind) in TIMED.items():
        vals, shares = [], []
        for row in rows:
            ms = sum(row[kind].get(n, 0.0) for n in names)
            vals.append(ms)
            shares.append(ms / row["wall"])
        out[metric] = median(vals)
        out[metric[:-3] + "_share"] = median(shares)
    for name in ("tensor.tape_nodes", "factored.chunks_per_call"):
        per_step = {}
        for step, n, value in tracer.counts:
            if n == name and step in steps:
                per_step.setdefault(step, []).append(value)
        if name == "factored.chunks_per_call":
            vals = [sum(v) / len(v) for v in per_step.values()]
        else:
            vals = [sum(v) for v in per_step.values()]
        out[name] = median(vals)
    return out, median([row["wall"] for row in rows])
