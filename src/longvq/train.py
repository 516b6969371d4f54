"""Loss assembly, AdamW with global-norm clipping and a warmup/linear
schedule, the training loop with EMA codebook stepping, and the
finite-difference gradient check harness."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .factored import attn_row_entropy
from .tensor import NumericsError, cross_entropy, finite_diff, grad, no_grad
from .rng import Rng
from .vq import codebook_perplexity, commit_loss, ema_update

__all__ = ["TrainConfig", "total_loss", "clip_grads", "AdamW", "lr_at",
           "evaluate", "train_loop", "gradcheck_model", "assignment_margin"]


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.98
    grad_clip: float = 0.1
    warmup_steps: int = 100
    total_steps: int = 1000
    gamma: float = 0.0001
    batch_size: int = 128
    seed: int = 0
    eval_every: int = 200
    eval_batches: int = 8

    def __post_init__(self):
        # a comparison with nan is False, so each check asks for the good
        # range, which nan is never in
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got "
                             f"{self.gamma}")
        if not (np.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ValueError(f"grad_clip must be finite and > 0, got "
                             f"{self.grad_clip}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got "
                             f"{self.weight_decay}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got "
                                 f"{getattr(self, name)}")
        for name in ("batch_size", "eval_batches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def lr_at(cfg, step):
    """1-based step: linear warmup to lr, then linear decay to zero."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = max(1, cfg.total_steps - cfg.warmup_steps)
    frac = (step - cfg.warmup_steps) / span
    return cfg.lr * max(0.0, 1.0 - frac)


# ---------------------------------------------------------------------------
# loss

def total_loss(model, x, y, gamma, frozen=None):
    """CE plus gamma * mean per-layer commitment loss.

    The CE and the accuracy are means over every target, whatever the
    head: (B,) targets of a per-sequence head and (B, L) targets of a
    per-position one go through the same cross_entropy call and the same
    argmax over the last axis.

    Returns (loss tensor, parts dict, auxes); parts carries floats only.
    frozen, when given, replays recorded quantizations (see
    LongVQLayer.__call__).
    """
    logits, auxes = model(x, frozen=frozen)
    y = np.asarray(y)
    ce = cross_entropy(logits, y)
    acc = float((logits.data.argmax(axis=-1) == y).mean())
    parts = {"ce": float(ce.data), "acc": acc}
    if gamma == 0.0:
        parts["vq"] = 0.0
        return ce, parts, auxes
    layers = model.layers()
    vq = None
    for layer, aux in zip(layers, auxes):
        c = commit_loss(aux["K"], layer.codebook, aux["z"])
        vq = c if vq is None else vq + c
    vq = vq * (1.0 / len(layers))
    parts["vq"] = float(vq.data)
    return ce + gamma * vq, parts, auxes


# ---------------------------------------------------------------------------
# optimizer

def global_norm(grads):
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def clip_grads(grads, clip):
    """Scale the whole gradient list so its global norm is <= clip."""
    nrm = global_norm(grads)
    if nrm > clip:
        s = clip / nrm
        grads = [g * s for g in grads]
    return grads, nrm


class AdamW:
    """Decoupled weight decay; moments match the usual bias correction."""

    EPS = 1e-8

    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, grads, lr):
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        wd = self.cfg.weight_decay
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            upd = (m / c1) / (np.sqrt(v / c2) + self.EPS)
            if wd > 0.0:
                upd = upd + wd * p.data
            p.data -= lr * upd


# ---------------------------------------------------------------------------
# the loop

def _finite(x):
    return bool(np.isfinite(x))


def _perplexities(model, auxes):
    return [codebook_perplexity(a["z"], model.cfg.S) for a in auxes]


def _dead_codes(auxes, S):
    """Per layer, the number of codes that no key of the batch uses."""
    return [int(S - np.count_nonzero(np.bincount(
        np.asarray(a["z"]).reshape(-1), minlength=S))) for a in auxes]


def _rel_change(new, old):
    """||new - old|| / ||old||, with a zero ||old|| read as the tiniest
    normal number so the ratio stays finite."""
    norm = max(np.linalg.norm(old), np.finfo(old.dtype).tiny)
    return float(np.linalg.norm(new - old) / norm)


def _quant_errs(auxes):
    """Per layer, the relative quantization error ||K - K_hat|| / ||K||."""
    return [_rel_change(a["K_hat"].data, a["K"].data) for a in auxes]


def _ema_step(layers, auxes):
    """EMA-update each layer's codebook from its step's keys and codes;
    returns, per layer, the code drift ||C_after - C_before|| / ||C_before||
    of that update."""
    drift = []
    for layer, aux in zip(layers, auxes):
        before = layer.codebook.C.copy()
        ema_update(layer.codebook, aux["K"].data, aux["z"])
        drift.append(_rel_change(layer.codebook.C, before))
    return drift


def emit(records, fh, rec):
    records.append(rec)
    if fh is not None:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.flush()


def evaluate(model, batches, gamma):
    """One no-grad pass over (inputs, targets) batches: the example count
    and the example-weighted loss, ce, vq and acc; from the first batch,
    per layer, the codebook_perplexity and the attn_entropy
    (attn_row_entropy averaged over every row of every element). Raises
    ValueError when batches yields no batch: an eval of nothing has no
    loss to report."""
    tot = dict.fromkeys(("loss", "ce", "vq", "acc"), 0.0)
    n, first = 0, {"codebook_perplexity": [], "attn_entropy": []}
    with no_grad():
        for x, y in batches:
            loss, parts, auxes = total_loss(model, x, y, gamma)
            parts["loss"] = float(loss.data)
            bs = np.asarray(y).shape[0]
            for k in tot:
                tot[k] += parts[k] * bs
            if n == 0:
                first = {"codebook_perplexity": _perplexities(model, auxes),
                         "attn_entropy": [float(attn_row_entropy(
                             a["Q"], a["z"], lay.local_bias.data,
                             lay.codebook.C, lay.cfg).mean())
                             for a, lay in zip(auxes, model.layers())]}
            n += bs
    if n == 0:
        raise ValueError("evaluate needs at least one batch with examples")
    return {"examples": n, **{k: v / n for k, v in tot.items()},
            **first}


def train_loop(model, task, cfg: TrainConfig, metrics_path=None,
               stop_fn=None):
    """Run cfg.total_steps optimizer steps; returns the metrics records.

    task.sample(split, batch_size, rng) -> (inputs, targets). Metrics go
    one JSON object per line to metrics_path when given. stop_fn, when
    given, sees each train record and may return True to stop early.
    A train record's wallclock_ms holds the step's total and four of its
    phases: forward (total_loss), backward (grad), optimizer (clip_grads
    and AdamW.step) and ema (the codebook update).
    """
    rng = Rng(cfg.seed, "train")
    erng = Rng(cfg.seed, "eval")
    params = model.params()
    opt = AdamW(params, cfg)
    records = []
    fh = open(metrics_path, "w") if metrics_path is not None else None
    bad = 0
    last_step = 0

    def eval_pass(sub, step):
        batches = (task.sample("test", cfg.batch_size, sub)
                   for _ in range(cfg.eval_batches))
        emit(records, fh, {"step": step, "split": "eval",
                           **evaluate(model, batches, cfg.gamma)})

    try:
        for step in range(1, cfg.total_steps + 1):
            last_step = step
            t0 = time.perf_counter()
            x, y = task.sample("train", cfg.batch_size, rng)
            t_fwd = time.perf_counter()
            try:
                loss, parts, auxes = total_loss(model, x, y, cfg.gamma)
                event = (None if _finite(loss.data)
                         else "nonfinite_loss_skipped")
            except NumericsError:
                event = "nonfinite_loss_skipped"
            t_bwd = time.perf_counter()
            if event is None:
                grads = grad(loss, params)
                t_grads = time.perf_counter()
                if not all(np.all(np.isfinite(g)) for g in grads):
                    event = "nonfinite_grads_skipped"
            if event is not None:
                bad += 1
                if bad > 10:
                    raise RuntimeError(
                        "aborting: >10 consecutive steps with a non-finite "
                        "loss or non-finite gradients")
                emit(records, fh, {"step": step, "split": "train",
                                   "event": event})
                continue
            bad = 0
            t_opt = time.perf_counter()
            grads, gnorm = clip_grads(grads, cfg.grad_clip)
            lr = lr_at(cfg, step)
            opt.step(grads, lr)
            t_ema = time.perf_counter()
            drift = _ema_step(model.layers(), auxes)
            t_end = time.perf_counter()
            phases = {"total": t_end - t0, "forward": t_bwd - t_fwd,
                      "backward": t_grads - t_bwd, "optimizer": t_ema - t_opt,
                      "ema": t_end - t_ema}
            rec = {"step": step, "split": "train",
                   "loss": float(loss.data), "ce": parts["ce"],
                   "vq": parts["vq"], "acc": parts["acc"],
                   "codebook_perplexity": _perplexities(model, auxes),
                   "dead_codes": _dead_codes(auxes, model.cfg.S),
                   "quant_err": _quant_errs(auxes), "code_drift": drift,
                   "lr": lr, "grad_norm": float(gnorm),
                   "wallclock_ms": {k: round(dt * 1000.0, 3)
                                    for k, dt in phases.items()}}
            emit(records, fh, rec)
            if cfg.eval_every > 0 and step % cfg.eval_every == 0:
                eval_pass(erng.child(f"e{step}"), step)
            # stop_fn sees the newest record (the eval one when step
            # landed on an eval boundary)
            if stop_fn is not None and stop_fn(records[-1]):
                break
        if cfg.eval_every > 0 and (not records
                                   or records[-1]["split"] != "eval"):
            eval_pass(erng.child("final"), last_step)
    finally:
        if fh is not None:
            fh.close()
    return records


# ---------------------------------------------------------------------------
# gradient checking

# gradcheck_model passes when every parameter's max relative error is below
# _GC_TOL; it draws up to _GC_TRIES models and batches until every key
# clears its runner-up codeword by _GC_MARGIN, and checks the loss with
# commitment weight _GC_GAMMA
_GC_TOL = 1e-4
_GC_TRIES = 100
_GC_MARGIN = 1e-3
_GC_GAMMA = 0.01


def assignment_margin(K, C):
    """Smallest gap between best and runner-up codeword distance."""
    k = K.reshape(-1, C.shape[1])
    d = ((k[:, None, :] - C[None, :, :]) ** 2).sum(2)
    if C.shape[0] < 2:
        return np.inf
    part = np.sort(np.sqrt(d), axis=1)
    return float((part[:, 1] - part[:, 0]).min())


def _rel_table(analytic, numeric, names):
    """Per-parameter max relative error with a small absolute floor.

    Central differences carry ~1e-10 absolute noise at 64-bit, so below
    1e-6 magnitude the comparison would measure the oracle, not the
    gradient.
    """
    out = {}
    for a, b, name in zip(analytic, numeric, names):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        out[name] = float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
    return out


def gradcheck_model(make_model, make_batch, seed=0):
    """Check every parameter gradient of a full model against central
    finite differences.

    Quantization is frozen first (recorded shortcodes and key offsets are
    replayed), because that frozen map is the function whose derivative
    both the tape and the differencer compute; the straight-through rule
    defines the gradient at the requantization jump rather than
    approximating anything measurable there. Inputs are resampled until
    every key's assignment margin exceeds ``_GC_MARGIN`` so the frozen
    codes are locally stable. Returns a report dict.
    """
    for attempt in range(1, _GC_TRIES + 1):
        model = make_model(seed + attempt)
        x, y = make_batch(seed + attempt)
        _, auxes = model(x)      # seeds codebooks, records assignments
        mg = min(assignment_margin(a["K"].data, lay.codebook.C)
                 for a, lay in zip(auxes, model.layers()))
        if mg > _GC_MARGIN:
            break
    else:
        return {"skipped": True, "tries": _GC_TRIES,
                "reason": f"no draw reached assignment margin {_GC_MARGIN}"}

    frozen = [{"z": a["z"], "offset": a["K_hat"].data - a["K"].data}
              for a in auxes]
    model.impl = "dense"   # factored insists K_hat rows equal codewords,
    params = model.params()    # which perturbed parameters break

    def loss_fn():
        return total_loss(model, x, y, _GC_GAMMA, frozen=frozen)[0]

    analytic = grad(loss_fn(), params)
    numeric = finite_diff(loss_fn, params)
    names = [p.name for p in params]
    table = _rel_table(analytic, numeric, names)
    worst = max(table, key=table.get)
    return {"skipped": False, "tries": attempt, "margin": mg, "tol": _GC_TOL,
            "passed": max(table.values()) < _GC_TOL,
            "params": table, "worst": (worst, table[worst])}
