"""Training benchmark for longvq: named workloads, end-to-end and traced runs.

A run builds one workload from the benchmark's seed, trains it through the
same ``train_loop`` that ``longvq train`` uses (``eval_every=0``), times
each step from outside through ``stop_fn`` timestamps and, between steps,
times the ``longvq eval`` path (``total_loss(..., gamma=0)`` with
``model.training=False``). Outputs are checked against the dense oracle in
float64 on the workload's first batch. ``setup_s`` is the median of
several cold set-ups, each from process start to the end of the first
train step: the run's own and those of short child processes.

With ``trace=1`` the run instead alternates untraced and traced steps; the
traced ones record spans around the public functions of each module (see
``spans.py``) and yield the per-layer metrics.

Workloads, and why each was chosen:

* ``lm-causal-256``: the acceptance learning recipe with the factored
  implementation. Short sequences, so the 32-chunk causal loop, small-op
  tape overhead, FFN/norms and the fixed per-step costs (AdamW, clip, EMA)
  dominate; SSM and FFT costs barely show.
* ``cls-bidir-1024``: pixel-shaped classification on synthetic uint8
  sequences (no CIFAR files). Runs the bidirectional per-element kernels,
  whole-sequence stats and the real-valued embedding; no causal chunk code.
* ``lm-causal-4096``: the long causal recipe, where the O(L) SSM kernel
  loop and the n=8192 FFT weigh most. Not listed in BENCHMARK.json: in
  float32 its train steps abort with ``ValueError: stats/z mismatch:
  counts or value sums inconsistent`` (``_check_stats_batch`` tolerances
  against float32 prefix-sum drift), which the run reports as failed
  operations. It can be run by name to show the failures falling.

Which per-layer metric should move which end-to-end metric, and where:

* ``ssm.kernels_{fwd,bwd}_ms``: both throughputs on lm-causal-4096; barely
  on lm-causal-256.
* ``tensor.conv_{fwd,bwd}_ms``: train throughput on lm-causal-4096 and
  cls-bidir-1024.
* ``tensor.backward_ms``, ``tensor.tape_nodes``: train throughput on
  lm-causal-256.
* ``factored.stats_ms``, ``factored.chunks_per_call``: both throughputs on
  the causal workloads.
* ``factored.attn_fwd_ms``: eval throughput on every workload.
* ``factored.attn_bwd_ms``: train throughput on cls-bidir-1024, then
  lm-causal-256.
* ``factored.attn_bwd_peak_mb``: peak RSS on cls-bidir-1024.
* ``factored.dense_over_factored``: the "factored path wins" goal, against
  train throughput.
* ``vq.quantize_ms``, ``vq.ema_ms``, ``vq.code_usage``: eval throughput on
  cls-bidir-1024 (S=256) and ``ce_end``.
* ``attention.layer_fwd_ms``, ``attention.proj_gate_self_ms``: eval
  throughput.
* ``model.forward_ms``, ``model.ffn_norm_self_ms``: lm-causal-256.
* ``train.{sample,loss,clip,adamw}_ms``, ``train.step_peak_mb``: train
  throughput on lm-causal-256.
* ``trace.overhead_ratio``: traced over untraced step time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

import longvq.attention
from longvq.attention import attn_dense_oracle
from longvq.config import apply_sets, build_run, load_run_config
from longvq.factored import attn_factored, build_code_stats
from longvq.model import Model
from longvq.rng import Rng
from longvq.tasks import PixelTask, TaskSpec
from longvq.tensor import Tensor, get_dtype, no_grad, precision
from longvq.train import total_loss, train_loop

from spans import LAYER_UNITS, Tracer, layer_metrics, median

__all__ = ["Workload", "WORKLOADS", "END_TO_END_UNITS", "run", "summary"]

COLD_SETUPS = 3         # cold set-ups per end-to-end run; setup_s: median
TRAIN_SHARE = 0.75      # of the measured time, for train steps; rest eval
MIN_SAMPLES = 3         # eval batches / traced steps even past the budget
EVAL_POOL = 4           # distinct eval batches, cycled
ORACLE_TOL = 1e-10      # max |f - d| / (1 + |d|), as the acceptance test
TRACE_SHARE = 0.8       # of --seconds, for alternating plain/traced steps
COMPARE_REPS = 3        # dense vs factored timings in the traced run

END_TO_END_UNITS = {
    "train_tokens_per_s": "tokens/s",
    "eval_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ce_end": "nats",
    "failed_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """A named recipe. ``ce_steps`` = (first, end) is the window of timed
    train steps whose mean CE is ``ce_end``; every end-to-end run trains
    at least ``end`` timed steps, so the window does not move with speed.
    """
    name: str
    sets: tuple            # --set overrides on the config defaults
    pixels: bool = False   # synthetic pixel sequences instead of the task
    ce_steps: tuple = (0, 12)


LEARN_RECIPE = (
    "task.name=reduction", "task.L=256", "task.vocab=16", "task.lm=true",
    "model.depth=2", "model.d_model=64", "model.S=64", "model.impl=factored",
    "model.d_ffn=64", "model.n_state=16",
    "attn.z_dim=16", "attn.v_dim=32", "attn.window=8", "attn.causal=true",
    "train.lr=0.003", "train.batch_size=32", "train.warmup_steps=150",
    "train.total_steps=5000", "train.eval_every=0", "train.grad_clip=1.0",
)

# build_run would load CIFAR for task.name=pixels, so the pixel workload
# keeps the reduction task name for the config build and swaps the model's
# input/output interface for the synthetic pixel task's
PIXEL_RECIPE = (
    "task.L=1024", "task.channels=1",
    "model.depth=2", "model.d_model=64", "model.S=256", "model.impl=factored",
    "model.d_ffn=128",
    "attn.z_dim=16", "attn.v_dim=32", "attn.window=16", "attn.causal=false",
    "train.lr=0.002", "train.batch_size=8", "train.warmup_steps=200",
    "train.eval_every=0", "train.grad_clip=1.0",
)

WORKLOADS = {
    # by timed step 30 the LM's CE has fallen well below its start (about
    # 2.2 against 3.0 nats); with the gradients zeroed it stays at 3.0
    "lm-causal-256": Workload("lm-causal-256", LEARN_RECIPE,
                              ce_steps=(30, 40)),
    # deep in warmup (lr <= 2.5e-4): CE barely falls within the budget, so
    # here ce_end cannot show a learning break; lm-causal-256 does
    "cls-bidir-1024": Workload("cls-bidir-1024", PIXEL_RECIPE, pixels=True,
                               ce_steps=(12, 24)),
    "lm-causal-4096": Workload("lm-causal-4096", (
        "task.name=reduction", "task.L=4096", "task.lm=true",
        "attn.window=16", "train.batch_size=2", "train.eval_every=0")),
}


# ---------------------------------------------------------------------------
# inputs

class FeedTask:
    """A task whose batches come from the benchmark's seeded stream.

    ``train_loop`` passes its own rng to ``sample``; it is ignored, so the
    program only ever sees inputs generated from the benchmark's seed.
    """

    def __init__(self, task, rng):
        self.task = task
        self.rng = rng

    def model_kwargs(self):
        return self.task.model_kwargs()

    def sample(self, split, batch_size, rng=None):
        return self.task.sample(split, batch_size, self.rng)


def synthetic_pixels(rng, L, n_train=512, n_test=128, classes=10):
    """uint8 (N, L, 3) sequences: a per-class pattern plus pixel noise."""
    proto = rng.uniform((classes, L, 3), 0.0, 255.0)

    def draw(n):
        y = rng.integers(0, classes, (n,))
        x = proto[y] + rng.normal((n, L, 3), std=48.0)
        return np.clip(np.rint(x), 0, 255).astype(np.uint8), y

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return {"train_x": train_x, "train_y": train_y, "val_x": test_x,
            "val_y": test_y, "test_x": test_x, "test_y": test_y,
            "grayscale": True}


def build(wl, seed):
    """(model, train feed, eval feed, train config), current precision."""
    cfg = apply_sets(load_run_config(None), list(wl.sets))
    task, mcfg, tcfg, impl = build_run(cfg)
    root = Rng(seed, f"perfbench-{wl.name}")
    if wl.pixels:
        t = cfg["task"]
        spec = TaskSpec(name="pixels", L=t["L"], channels=t["channels"],
                        train_size=t["train_size"])
        task = PixelTask(spec, data=synthetic_pixels(root.child("data"),
                                                     t["L"]))
        mk = task.model_kwargs()
        mcfg = dataclasses.replace(mcfg, vocab=0, in_dim=mk["in_dim"],
                                   head=mk["head"], n_out=mk["n_out"])
    # the model is initialised from the recipe's train seed, as by
    # ``longvq train``; the benchmark's seed varies the data only
    model = Model(mcfg, Rng(tcfg.seed, "model"), impl=impl)
    return (model, FeedTask(task, root.child("train")),
            FeedTask(task, root.child("eval")), tcfg)


# ---------------------------------------------------------------------------
# the train loop, timed from outside

class StepLog:
    """What ``stop_fn`` sees of the train loop: step times and outcomes.

    The first completed step ever is the untimed set-up step. A step that
    train_loop skips as non-finite shows up as a gap in the step numbers;
    the interval that contains it is not used as a step time.
    """

    def __init__(self, t0):
        self.last = t0
        self.last_step = 0
        self.setup_end = None
        self.times = []        # seconds of each clean timed step
        self.ce = []
        self.usage = []        # codebook perplexity / S, mean over layers
        self.done = 0          # timed steps completed
        self.failed = 0        # timed steps skipped or aborted
        self.errors = {}       # message -> count

    def restart(self):
        self.last = time.perf_counter()
        self.last_step = 0

    def record(self, rec, S):
        now = time.perf_counter()
        skipped = rec["step"] - self.last_step - 1
        self.last_step = rec["step"]
        if self.setup_end is None:
            self.setup_end = now
            self.failed += skipped
        else:
            self.done += 1
            self.failed += skipped
            if not skipped:
                self.times.append(now - self.last)
            self.ce.append(rec["ce"])
            self.usage.append(float(np.mean(rec["codebook_perplexity"])) / S)
        self.last = now
        return now

    def abort(self, exc):
        msg = f"{type(exc).__name__}: {exc}"
        if msg not in self.errors:
            traceback.print_exception(exc, file=sys.stderr)
        self.errors[msg] = self.errors.get(msg, 0) + 1
        self.failed += 1


def drive(model, feed, tcfg, log, on_step):
    """Run train_loop until on_step(now) returns True.

    An exception aborts train_loop; it counts as one failed step and the
    loop restarts on the same model, so the rest of the budget is still
    attempted.
    """
    S = model.cfg.S

    def stop(rec):
        return on_step(log.record(rec, S))

    while True:
        log.restart()
        try:
            train_loop(model, feed, tcfg, stop_fn=stop)
            return
        except Exception as exc:   # noqa: BLE001 - keep measuring
            if log.setup_end is None:
                raise
            log.abort(exc)
            if on_step(time.perf_counter()):
                return


# ---------------------------------------------------------------------------
# the oracle check

@contextlib.contextmanager
def layer_stats():
    """Collect the CodeStats each LongVQLayer builds while inside, so the
    checks use the layer's own stats (and chunk size), not a copy of its
    policy."""
    built = []
    real = longvq.attention.build_code_stats

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    longvq.attention.build_code_stats = spy
    try:
        yield built
    finally:
        longvq.attention.build_code_stats = real


def oracle_check(wl, seed):
    """Worst factored-vs-dense relative difference on the first batch in
    float64, and whether that batch's loss is finite."""
    worst = 0.0
    with precision("float64"), no_grad():
        model, feed, _, tcfg = build(wl, seed)
        x, y = feed.sample("train", tcfg.batch_size)
        with layer_stats() as built:
            loss, _, auxes = total_loss(model, x, y, tcfg.gamma)
        for layer, aux, stats in zip(model.layers(), auxes, built):
            cfg = layer.cfg
            Q, V, kh = aux["Q"], aux["V"], aux["K_hat"].data
            f = attn_factored(Tensor(Q), layer.codebook, stats, Tensor(kh),
                              Tensor(V), layer.local_bias, cfg).data
            for b in range(Q.shape[0]):
                d = attn_dense_oracle(Tensor(Q[b]), Tensor(kh[b]),
                                      Tensor(V[b]), layer.local_bias,
                                      cfg).data
                worst = max(worst, float(np.max(np.abs(f[b] - d)
                                                / (1.0 + np.abs(d)))))
        finite = bool(np.isfinite(loss.data))
    return worst, finite


# ---------------------------------------------------------------------------
# measurement

def _stats(xs):
    return {"median": median(xs), "min": float(min(xs)) if xs else None,
            "max": float(max(xs)) if xs else None, "n": len(xs)}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EvalLoop:
    """The ``longvq eval`` path: total_loss(gamma=0), model.training=False,
    timed per batch over a small pool of seeded batches."""

    def __init__(self, model, efeed, tcfg):
        self.model = model
        self.pool = [efeed.sample("test", tcfg.batch_size)
                     for _ in range(EVAL_POOL)]
        self.times = []
        self.spent = 0.0       # wall seconds in eval, failures included
        self.n = 0
        self.failed = 0
        self.errors = {}

    def batch(self):
        x, y = self.pool[self.n % EVAL_POOL]
        self.n += 1
        was = self.model.training
        self.model.training = False
        t0 = time.perf_counter()
        try:
            _, parts, _ = total_loss(self.model, x, y, gamma=0.0)
            ok = bool(np.isfinite(parts["ce"]))
        except Exception as exc:   # noqa: BLE001 - keep measuring
            msg = f"{type(exc).__name__}: {exc}"
            self.errors[msg] = self.errors.get(msg, 0) + 1
            ok = False
        finally:
            dt = time.perf_counter() - t0
            self.model.training = was
        self.spent += dt
        if ok:
            self.times.append(dt)
        else:
            self.failed += 1


def first_step(wl, seed, t_start):
    """Build the workload and run its first train step; seconds from
    t_start (the process start) to the end of that step."""
    model, feed, _, tcfg = build(wl, seed)
    log = StepLog(t_start)
    drive(model, feed, tcfg, log, lambda now: True)
    return log.setup_end - t_start


def _end_to_end(wl, seed, seconds, t_start):
    """Set up once (cold), then time train steps with eval batches between
    them, so both see the whole measured window."""
    model, feed, efeed, tcfg = build(wl, seed)
    log = StepLog(t_start)
    first, end = wl.ce_steps
    state = {}

    def on_step(now):
        if now == log.setup_end:
            state["ev"] = EvalLoop(model, efeed, tcfg)
            state["t0"] = log.last = time.perf_counter()
            return False
        ev = state["ev"]
        # eval until it has had its share of the time so far
        train_s = now - state["t0"] - ev.spent
        while (ev.spent < (1.0 - TRAIN_SHARE) / TRAIN_SHARE * train_s
               or ev.n < MIN_SAMPLES):
            ev.batch()
        log.last = time.perf_counter()
        return (log.done + log.failed >= end
                and log.last >= state["t0"] + seconds)

    drive(model, feed, tcfg, log, on_step)
    ev = state["ev"]
    tok = tcfg.batch_size * feed.task.spec.L
    errors = dict(log.errors)
    for k, v in ev.errors.items():
        errors[k] = errors.get(k, 0) + v
    window = log.ce[first:end]
    metrics = {
        "train_tokens_per_s": tok / median(log.times) if log.times else 0.0,
        "eval_tokens_per_s": tok / median(ev.times) if ev.times else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": log.setup_end - t_start,
        "ce_end": float(np.mean(window)) if window else float("nan"),
    }
    detail = {"train_step_s": _stats(log.times),
              "eval_batch_s": _stats(ev.times),
              "tokens_per_batch": tok, "ce_steps": [first, end],
              "ce_window": window, "ce_first": log.ce[:1]}
    attempted = log.done + log.failed + ev.n
    failed = log.failed + ev.failed
    return metrics, detail, attempted, failed, errors


def _dense_over_factored(model, feed, tcfg):
    """Time attn_dense_oracle against stats + attn_factored, forward plus
    backward, on the first layer's inputs for one batch."""
    x, _ = feed.sample("train", tcfg.batch_size)
    layer = model.layers()[0]
    model.training = False
    with no_grad():
        with layer_stats() as built:
            _, auxes = model(x)
    aux, chunk = auxes[0], built[0].chunk or None
    cfg = layer.cfg
    gout = Rng(0, "cotangent").normal(aux["V"].shape, dtype=get_dtype())

    def factored():
        Q, kh, V = Tensor(aux["Q"], True), Tensor(aux["K_hat"].data, True), \
            Tensor(aux["V"], True)
        st = build_code_stats(aux["z"], V, layer.S, cfg.causal, chunk)
        attn_factored(Q, layer.codebook, st, kh, V, layer.local_bias,
                      cfg).backward(gout)

    def dense():
        Q, kh, V = Tensor(aux["Q"], True), Tensor(aux["K_hat"].data, True), \
            Tensor(aux["V"], True)
        attn_dense_oracle(Q, kh, V, layer.local_bias, cfg).backward(gout)

    times = {factored: [], dense: []}
    for _ in range(COMPARE_REPS):
        for fn in (factored, dense):
            t0 = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t0)
    layer.local_bias.grad = None
    return median(times[dense]) / median(times[factored])


def _traced(wl, seed, seconds, spans_path):
    """Alternate untraced and traced steps, then one tracemalloc step."""
    t0 = time.perf_counter()
    model, feed, _, tcfg = build(wl, seed)
    log = StepLog(t0)
    tracer = Tracer()
    traced, plain = [], []
    st = {"kind": None, "t_open": None, "failed": 0, "end": None, "k": 0}

    def on_step(now):
        kind, ok = st["kind"], log.failed == st["failed"]
        st["failed"] = log.failed
        if kind == "plain" and ok:
            plain.append(now - st["t_open"])
        elif kind in ("traced", "mem"):
            if ok:
                tracer.end_step(now)
                if kind == "traced":
                    traced.append(st["k"])
            else:
                tracer.abandon_step()
            tracer.uninstall()
            if kind == "mem":
                tracer.stop_memory()
                return True
        if st["end"] is None:
            st["end"] = now + TRACE_SHARE * seconds
        st["k"] += 1
        enough = min(len(traced), len(plain)) >= MIN_SAMPLES or log.failed
        if now >= st["end"] and enough:
            kind = "mem"
            tracer.start_memory()
        else:
            kind = "traced" if st["k"] % 2 else "plain"
        if kind != "plain":
            tracer.install()
            tracer.begin_step(st["k"], now)
        st["kind"], st["t_open"] = kind, now
        return False

    try:
        drive(model, feed, tcfg, log, on_step)
    finally:
        tracer.uninstall()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    metrics, step_ms = layer_metrics(tracer, traced)
    plain_ms = median(plain) * 1e3
    metrics.update({
        "factored.attn_bwd_peak_mb":
            tracer.mem_peak.get("factored.attn.bwd", 0) / 2 ** 20,
        "train.step_peak_mb": tracer.mem_peak.get("step", 0) / 2 ** 20,
        "factored.dense_over_factored": _dense_over_factored(model, feed,
                                                             tcfg),
        "vq.code_usage": median(log.usage),
        "trace.overhead_ratio": step_ms / plain_ms,
    })
    if spans_path is not None:
        tracer.write(spans_path)
    detail = {"traced_steps": len(traced), "plain_steps": len(plain),
              "traced_step_ms": step_ms, "plain_step_ms": plain_ms}
    attempted = log.done + log.failed
    return metrics, detail, attempted, log.failed, dict(log.errors)


# ---------------------------------------------------------------------------
# environment and result

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout's .git, read directly; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, root):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "precision": np.dtype(get_dtype()).name,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(root), "seed": seed}


def run(wl, seed, seconds, trace, root, out_dir=None, t_start=None,
        cold_setup=None):
    """Measure one workload in float32; returns the full result dict.

    t_start is the process start on the ``time.perf_counter`` clock (now,
    when None). cold_setup, when given, returns the seconds of one more
    cold set-up measured the same way in a fresh process; the end-to-end
    run takes COLD_SETUPS - 1 of them and reports the median with its own.
    """
    if t_start is None:
        t_start = time.perf_counter()
    spans_path = None
    if out_dir is not None and trace:
        spans_path = os.path.join(out_dir, f"{wl.name}-seed{seed}-spans.jsonl")
    with precision("float32"):
        env = environment(seed, root)
        if trace:
            metrics, detail, attempted, failed, errors = _traced(
                wl, seed, seconds, spans_path)
            units = LAYER_UNITS
        else:
            metrics, detail, attempted, failed, errors = _end_to_end(
                wl, seed, seconds, t_start)
            units = END_TO_END_UNITS
    if not trace and cold_setup is not None:
        cold = [metrics["setup_s"]]
        cold += [cold_setup() for _ in range(COLD_SETUPS - 1)]
        metrics["setup_s"] = median(cold)
        detail["cold_setup_s"] = cold
    worst, finite = oracle_check(wl, seed)
    correct = worst < ORACLE_TOL and finite
    attempted += 1             # the first batch, checked against the oracle
    failed += 0 if correct else 1
    if not trace:
        metrics["failed_ratio"] = failed / attempted
    result = {"workload": wl.name, "trace": int(bool(trace)),
              "seconds": seconds, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "errors": errors,
              "oracle": {"max_rel_diff": worst, "tol": ORACLE_TOL,
                         "loss_finite": finite},
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "detail": detail}
    if out_dir is not None:
        path = os.path.join(out_dir, f"{wl.name}-seed{seed}-trace"
                                     f"{int(bool(trace))}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return result


def summary(result, names):
    """The contract line: correct/attempted/failed and the named metrics."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: result["metrics"][n] for n in names}}
