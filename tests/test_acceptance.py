"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [accept] line with the measured margin next to
the bound it must clear, so a log scan shows the whole contract at a
glance. Budgets are wall-clock on one core; the slow entries (scaling
bench, learning run) sit at the bottom of the file.
"""

import json
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

import longvq.factored as factored
from longvq.attention import AttentionConfig, attn_dense_oracle
from longvq.cli import GRADCHECK_TINY
from longvq.config import apply_sets, build_run, load_run_config
from longvq.factored import attn_factored, build_code_stats, stats_chunk
from longvq.model import Model
from longvq.rng import Rng
from longvq.ssm import discretize, init_s4, scan_recurrent, ssm_scan
from longvq.tasks import find_pixel_data
from longvq.tensor import Tensor, precision
from longvq.train import gradcheck_model, train_loop
from longvq.vq import EMA_ETA, Codebook, ema_update


def _seed(name):
    return zlib.crc32(name.encode())


def _line(capsys, name, ok, detail):
    msg = f"[accept] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(msg, flush=True)
    assert ok, msg


# ---------------------------------------------------------------------------
# exact equalities

def test_factored_attention_equals_dense_oracle(capsys):
    # every kernel x direction x window over random instances; the
    # factored path must agree with the quadratic oracle to round-off
    t0 = time.time()
    worst = 0.0
    with precision("float64"):
        for fn in ("softmax", "relu2", "laplace"):
            for causal in (True, False):
                for w in (0, 2, 8):
                    root = Rng(_seed(f"accept-ld-{fn}-{causal}-{w}"))
                    for i in range(50):
                        r = root.child(f"i{i}")
                        L = 256 if i == 0 else int(r.integers(1, 257))
                        S = 16 if i == 0 else int(r.integers(1, 17))
                        zd = int(r.integers(1, 9))
                        vd = int(r.integers(1, 9))
                        C = r.normal((S, zd))
                        z = r.integers(0, S, (L,))
                        Q = r.normal((L, zd))
                        V = r.normal((L, vd))
                        bias = r.normal((2 * w + 1,))
                        cfg = AttentionConfig(fn, w, causal,
                                              z_dim=zd, v_dim=vd)
                        cb = Codebook(C=C, ema_count=np.ones(S),
                                      ema_sum=C.copy())
                        # the op takes a batch axis: B = 1
                        st = build_code_stats(z[None], V[None], S, causal,
                                              stats_chunk(w, causal))
                        f = attn_factored(Tensor(Q[None]), cb, st,
                                          Tensor(C[z][None]),
                                          Tensor(V[None]), Tensor(bias),
                                          cfg).data[0]
                        d = attn_dense_oracle(Tensor(Q), Tensor(C[z]),
                                              Tensor(V), Tensor(bias),
                                              cfg).data
                        rel = float(np.max(np.abs(f - d) / (1.0 + np.abs(d))))
                        worst = max(worst, rel)
    el = time.time() - t0
    _line(capsys, "factored == dense, 18 combos x 50",
          worst < 1e-10 and el < 60.0,
          f"max rel diff {worst:.2e} < 1e-10, {el:.0f}s/60s")


def test_ssm_convolution_equals_recurrence(capsys):
    # the op the model runs, one channel at a time, against the literal
    # recurrence: the blocked scan is the convolution by the kernel C
    # A_bar^j B_bar, plus the skip (0 here)
    t0 = time.time()
    worst = 0.0
    with precision("float64"):
        root = Rng(_seed("accept-convscan"))
        for trial in range(100):
            r = root.child(f"c{trial}")
            n = int(r.integers(1, 17))
            L = int(r.integers(2, 257))
            a, b = init_s4(n)
            dt = float(10.0 ** r.uniform(low=-3.0, high=-1.0))
            a_bar, b_bar = discretize(a, b, [dt])
            c = r.normal((n,))
            u = r.normal((L,))
            y = ssm_scan(Tensor(c[None]), Tensor([np.log(dt)]), Tensor([0.0]),
                         b, a, Tensor(u[None, :, None])).data[0, :, 0]
            worst = max(worst, float(np.max(np.abs(
                y - scan_recurrent(a_bar[0], b_bar[0], c, u)))))
    el = time.time() - t0
    _line(capsys, "ssm blocked scan == recurrent scan, 100 channels",
          worst < 1e-6 and el < 30.0,
          f"max abs diff {worst:.2e} < 1e-6, {el:.0f}s/30s")


def test_state_matrix_init_matches_case_formulas(capsys):
    # independent entry-by-entry re-evaluation of the three-case init
    worst = 0.0
    upper_ok = True
    for n in range(1, 9):
        a, b = init_s4(n)
        upper_ok = upper_ok and bool(np.all(np.triu(a, 1) == 0.0))
        for i in range(n):
            worst = max(worst, abs(b[i] - np.sqrt(2.0 * i + 1.0)))
            for j in range(i + 1):
                want = -(i + 1.0) if i == j else \
                    -2.0 * np.sqrt((i + 0.5) * (j + 0.5))
                worst = max(worst, abs(a[i, j] - want))
    a2, _ = init_s4(2)
    anchors = max(abs(a2[0, 0] + 1.0), abs(a2[1, 0] + np.sqrt(3.0)))
    _line(capsys, "state matrix init exact, N <= 8",
          upper_ok and worst < 1e-12 and anchors < 1e-12,
          f"upper triangle zero: {upper_ok}, worst entry {worst:.2e}, "
          f"anchors {anchors:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# gradients

def test_full_layer_gradients_match_finite_differences(capsys):
    t0 = time.time()
    reports = {}
    with precision("float64"):
        for fn in ("softmax", "relu2"):
            cfg = apply_sets(load_run_config(None),
                             GRADCHECK_TINY + [f"attn.attn_fn={fn}"])
            task, mcfg, tcfg, _ = build_run(cfg)
            model = Model(mcfg, Rng(tcfg.seed, "model"), impl="dense")
            x, y = task.sample("train", tcfg.batch_size,
                               Rng(tcfg.seed, "gradcheck-batch"))
            reports[fn] = gradcheck_model(model, x, y)
    el = time.time() - t0
    worst = max(r["worst"][1] for r in reports.values())
    ok = all(r["passed"] for r in reports.values()) and el < 300.0
    _line(capsys, "one-block gradients vs central differences "
          "(softmax, relu2)", ok,
          f"worst param rel err {worst:.2e} < 1e-4, {el:.0f}s/300s")


# ---------------------------------------------------------------------------
# codebook EMA law

def test_codebook_ema_contraction_and_batch_means(capsys):
    with precision("float64"):
        r = Rng(_seed("accept-ema"))
        S, D = 4, 3
        C = r.normal((S, D))
        cb = Codebook(C=C.copy(), ema_count=np.ones(S), ema_sum=C.copy())
        targets = r.normal((S, D))
        prev = np.linalg.norm(cb.C - targets, axis=1)
        ratio_err = 0.0
        for _ in range(50):
            ema_update(cb, targets, np.arange(S))
            cur = np.linalg.norm(cb.C - targets, axis=1)
            ratio_err = max(ratio_err,
                            float(np.max(np.abs(cur / prev - EMA_ETA))))
            prev = cur
        # from zero accumulators the codewords are the batch means
        cb0 = Codebook(C=r.normal((S, D)), ema_count=np.zeros(S),
                       ema_sum=np.zeros((S, D)))
        K = r.normal((4 * S, D))
        z = np.repeat(np.arange(S), 4)
        ema_update(cb0, K, z)
        mean_err = max(float(np.max(np.abs(cb0.C[s] - K[z == s].mean(0))))
                       for s in range(S))
    _line(capsys, "ema codebook: eta contraction and zero-history batch means",
          ratio_err < 1e-6 and mean_err < 1e-12,
          f"contraction off by {ratio_err:.2e} < 1e-6, "
          f"batch-mean err {mean_err:.2e}")


# ---------------------------------------------------------------------------
# causality

def test_future_inputs_cannot_touch_past_logits(capsys):
    sets = [
        "task.name=reduction", "task.L=32", "task.vocab=8", "task.lm=true",
        "model.depth=2", "model.d_model=16", "model.S=8", "model.n_state=4",
        "model.impl=factored", "attn.z_dim=4", "attn.v_dim=8",
        "attn.window=2", "attn.causal=true",
    ]
    worst = 0.0
    with precision("float64"):
        cfg = apply_sets(load_run_config(None), sets)
        task, mcfg, tcfg, impl = build_run(cfg)
        model = Model(mcfg, Rng(_seed("accept-causal"), "model"), impl=impl)
        model.training = False
        x, _ = task.sample("train", 4, Rng(1, "causal-batch"))
        model(x)                    # seeds the codebooks once
        base = model(x)[0].data
        r = Rng(2, "causal-perturb")
        for t in (5, 16, 31):
            x2 = x.copy()
            x2[:, t:] = r.integers(0, 8, x2[:, t:].shape)
            pert = model(x2)[0].data
            worst = max(worst,
                        float(np.max(np.abs(pert[:, :t] - base[:, :t]))))
    _line(capsys, "no future influence on past logits",
          worst < 1e-12, f"max past-logit shift {worst:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# determinism

def _stripped_metrics(path):
    lines = []
    with open(path) as fh:
        for raw in fh:
            rec = json.loads(raw)
            rec.pop("wallclock_ms", None)
            lines.append(json.dumps(rec, sort_keys=True))
    return lines


def test_identical_config_and_seed_reproduce_metrics(capsys, tmp_path):
    tiny = [
        "--set", "task.L=16", "--set", "task.vocab=8",
        "--set", "model.depth=1", "--set", "model.d_model=8",
        "--set", "model.S=4", "--set", "model.n_state=4",
        "--set", "attn.z_dim=4", "--set", "attn.v_dim=8",
        "--set", "attn.window=2", "--set", "train.batch_size=4",
        "--set", "train.total_steps=6", "--set", "train.eval_every=3",
        "--seed", "7",
    ]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cmd = [sys.executable, "-m", "longvq.cli", "train",
               "--out", str(out)] + tiny
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=300)
        assert res.returncode == 0, res.stderr
        outs.append(_stripped_metrics(out / "metrics.jsonl"))
    same = outs[0] == outs[1]
    _line(capsys, "identical config+seed -> identical metrics",
          same, f"{len(outs[0])} records byte-equal apart from wall-clock")


# ---------------------------------------------------------------------------
# trajectory equivalence

TRAJ_STEPS = 40
TRAJ_RECIPE = [
    "task.name=reduction", "task.L=64", "task.vocab=16",
    "model.depth=2", "model.d_model=16", "model.S=16", "model.d_ffn=16",
    "model.n_state=4", "attn.z_dim=8", "attn.v_dim=16", "attn.window=4",
    "train.batch_size=8", f"train.total_steps={TRAJ_STEPS}",
    "train.warmup_steps=10",
    "train.eval_every=0", "train.lr=0.003", "train.grad_clip=1.0",
]


def _train_records(sets):
    cfg = apply_sets(load_run_config(None), TRAJ_RECIPE + sets)
    task, mcfg, tcfg, impl = build_run(cfg)
    model = Model(mcfg, Rng(tcfg.seed, "model"), impl=impl)
    return [r for r in train_loop(model, task, tcfg)
            if r["split"] == "train"]


def _trajectory_gap(a, b):
    """Largest relative difference of loss, grad_norm and per-layer
    codebook perplexity over the train records of two runs."""
    assert len(a) == len(b) == TRAJ_STEPS and all("loss" in r for r in a + b)

    def row(r):
        return np.array([r["loss"], r["grad_norm"], *r["codebook_perplexity"]])

    return max(float(np.max(np.abs(row(x) - row(y)) / np.abs(row(y))))
               for x, y in zip(a, b))


def test_dense_and_factored_train_the_same_trajectory(capsys, monkeypatch):
    # float64 training through train_loop: the tape op, the EMA codebook
    # updates and AdamW together, on a causal LM and a bidirectional
    # classifier; a sign fault in the factored backward must show
    t0 = time.time()
    gaps, control = [], []
    real = factored._backward

    def negated(*args):
        return tuple(-g for g in real(*args))

    with precision("float64"):
        for kind in (["task.lm=true", "attn.causal=true"],
                     ["task.lm=false", "attn.causal=false"]):
            dense = _train_records(kind + ["model.impl=dense"])
            fact = _train_records(kind + ["model.impl=factored"])
            with monkeypatch.context() as m:
                m.setattr(factored, "_backward", negated)
                bad = _train_records(kind + ["model.impl=factored"])
            gaps.append(_trajectory_gap(fact, dense))
            control.append(_trajectory_gap(bad, dense))
    ok = max(gaps) <= 1e-10 and min(control) > 1e-10
    _line(capsys, "dense and factored train the same trajectory", ok,
          f"max rel gap causal {gaps[0]:.1e} / bidirectional {gaps[1]:.1e} "
          f"<= 1e-10 over {TRAJ_STEPS} steps; with a faulted factored "
          f"backward {control[0]:.1e} / {control[1]:.1e} > 1e-10, "
          f"{time.time() - t0:.1f}s")


# ---------------------------------------------------------------------------
# scaling

def test_scaling_separates_linear_from_quadratic(capsys, tmp_path):
    t0 = time.time()
    cmd = [sys.executable, "-m", "longvq.cli", "bench-scaling",
           "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=660)
    assert res.returncode == 0, res.stderr
    rep = json.loads((tmp_path / "report.json").read_text())
    vq = rep["modes"]["vq"]["slope"]
    dense = rep["modes"]["dense"]["slope"]
    t_vq = rep["modes"]["vq"]["times_s"]["4096"]
    t_dense = rep["modes"]["dense"]["times_s"]["4096"]
    el = time.time() - t0
    ok = vq <= 1.3 and dense >= 1.7 and t_vq < t_dense and el < 600.0
    _line(capsys, "log-log scaling: vq linear, dense quadratic", ok,
          f"vq slope {vq:.2f} <= 1.3, dense slope {dense:.2f} >= 1.7, "
          f"vq {t_vq * 1e3:.0f}ms < dense {t_dense * 1e3:.0f}ms at L=4096, "
          f"{el:.0f}s/600s")


# ---------------------------------------------------------------------------
# learning

LEARN_RECIPE = [
    "task.name=reduction", "task.L=256", "task.vocab=16", "task.lm=true",
    "model.depth=2", "model.d_model=64", "model.S=64", "model.impl=factored",
    "model.d_ffn=64", "model.n_state=16",
    "attn.z_dim=16", "attn.v_dim=32", "attn.window=8", "attn.causal=true",
    "train.lr=0.003", "train.batch_size=32", "train.warmup_steps=150",
    "train.total_steps=5000", "train.eval_every=100", "train.grad_clip=1.0",
    "train.seed=0",
]


def _query_accuracy(model, x, y):
    was = model.training
    model.training = False
    correct = 0
    for i in range(0, x.shape[0], 64):
        logits, _ = model(x[i:i + 64])
        pred = logits.data[:, -1, :].argmax(axis=1)
        correct += int((pred == y[i:i + 64, -1]).sum())
    model.training = was
    return correct / float(x.shape[0])


def _train_reduction_arm(extra_sets, stop_at=None, step_cap=None,
                         budget_s=900.0):
    cfg = apply_sets(load_run_config(None), LEARN_RECIPE + extra_sets)
    task, mcfg, tcfg, impl = build_run(cfg)
    model = Model(mcfg, Rng(tcfg.seed, "model"), impl=impl)
    qx, qy = task.sample("val", 256, Rng(tcfg.seed, "query-heldout"))
    t0 = time.time()
    state = {"steps": 0, "qacc": 0.0}

    def stop(rec):
        state["steps"] = rec["step"]
        if step_cap is not None and rec["step"] >= step_cap:
            return True
        if rec.get("split") != "eval":
            return False
        state["qacc"] = _query_accuracy(model, qx, qy)
        if stop_at is not None and state["qacc"] >= stop_at:
            return True
        return (time.time() - t0) > budget_s

    train_loop(model, task, tcfg, stop_fn=stop)
    state["qacc"] = _query_accuracy(model, qx, qy)
    state["seconds"] = time.time() - t0
    return state


def test_reduction_learning_and_ssm_ablation(capsys):
    with precision("float32"):
        main = _train_reduction_arm([], stop_at=0.95)
        abl = _train_reduction_arm(["model.ssm_enabled=false"],
                                   step_cap=main["steps"])
    ok = (main["qacc"] >= 0.95 and main["steps"] <= 5000
          and main["seconds"] < 900.0 and abl["qacc"] < main["qacc"])
    _line(capsys, "reduction learning + ssm ablation", ok,
          f"query acc {main['qacc']:.3f} >= 0.95 at step {main['steps']} "
          f"in {main['seconds']:.0f}s/900s; ablated "
          f"{abl['qacc']:.3f} < {main['qacc']:.3f}")


# ---------------------------------------------------------------------------
# pixel classification

def test_pixel_subset_classification(capsys):
    root = find_pixel_data()
    if root is None:
        with capsys.disabled():
            print("[accept] pixel subset classification: SKIP "
                  "(CIFAR-10 binary batches not present; "
                  "set LONGVQ_CIFAR_DIR)", flush=True)
        pytest.skip("CIFAR-10 binary batches not present in this "
                    "environment; set LONGVQ_CIFAR_DIR to run")
    sets = [
        "task.name=pixels", f"task.path={root}", "task.train_size=10000",
        "task.channels=1", "task.L=1024",
        "model.depth=4", "model.d_model=64", "model.S=256",
        "model.impl=factored", "model.d_ffn=128",
        "attn.z_dim=16", "attn.v_dim=32", "attn.window=16",
        "attn.causal=false",
        "train.lr=0.002", "train.batch_size=64", "train.warmup_steps=200",
        "train.eval_every=0", "train.grad_clip=1.0",
    ]
    steps_per_epoch = (10000 + 63) // 64
    t0 = time.time()
    with precision("float32"):
        cfg = apply_sets(load_run_config(None), sets)
        cfg["train"]["total_steps"] = 20 * steps_per_epoch
        task, mcfg, tcfg, impl = build_run(cfg)
        model = Model(mcfg, Rng(tcfg.seed, "model"), impl=impl)
        train_loop(model, task, tcfg)
        model.training = False
        correct = total = 0
        for x, y in task.eval_batches("test", 100):
            logits, _ = model(x)
            correct += int((logits.data.argmax(axis=1) == y).sum())
            total += len(y)
    acc = correct / float(total)
    el = time.time() - t0
    _line(capsys, "pixel subset classification", acc >= 0.55,
          f"test acc {acc:.3f} >= 0.55 after 20 epochs, {el:.0f}s")
