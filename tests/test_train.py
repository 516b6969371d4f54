"""Loss assembly, optimizer behavior, loop plumbing, gradient checking."""

import json

import numpy as np
import pytest

import longvq.tensor as T
from longvq.attention import AttentionConfig
from longvq.model import Model, ModelConfig
from longvq.rng import Rng
from longvq.tensor import Tensor, precision, set_backward_fault
from longvq.train import (
    AdamW, TrainConfig, _dead_codes, _ema_step, _quant_errs,
    assignment_margin,
    clip_grads, global_norm, gradcheck_model, lr_at, total_loss, train_loop,
)
from longvq.vq import EMA_EPSILON, EMA_ETA, Codebook, ema_update


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        set_backward_fault(None)
        yield
        set_backward_fault(None)


def tiny_lm_cfg(attn_fn="softmax", depth=1):
    return ModelConfig(depth=depth, d_model=8, S=4, head="per_position_lm",
                       n_out=8, vocab=8,
                       attn=AttentionConfig(attn_fn, 2, True, z_dim=4,
                                            v_dim=8),
                       n_state=4)


class ToyTask:
    """Binary rule on the mean of the first input channel."""

    L = 8

    def sample(self, split, batch_size, rng):
        x = rng.normal((batch_size, self.L, 2))
        y = (x[:, :, 0].mean(axis=1) > 0).astype(int)
        return x, y


def toy_model(seed=0, **kw):
    cfg = ModelConfig(depth=1, d_model=8, S=4, head="mean_pool_classify",
                      n_out=2, in_dim=2,
                      attn=AttentionConfig("softmax", 2, True, z_dim=4,
                                           v_dim=8),
                      n_state=4, **kw)
    return Model(cfg, Rng(seed, "model"))


# ---------------------------------------------------------------------------
# config and schedule

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=0.0)


def test_lr_schedule_shape():
    cfg = TrainConfig(lr=2.0, warmup_steps=100, total_steps=300)
    assert lr_at(cfg, 50) == pytest.approx(1.0)     # warmup midpoint
    assert lr_at(cfg, 100) == pytest.approx(2.0)
    assert lr_at(cfg, 200) == pytest.approx(1.0)    # decay midpoint
    assert lr_at(cfg, 300) == pytest.approx(0.0)
    vals = [lr_at(cfg, s) for s in range(101, 301)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_no_warmup():
    cfg = TrainConfig(lr=1.0, warmup_steps=0, total_steps=10)
    assert lr_at(cfg, 1) == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# clipping

def test_clip_exact_scale():
    g = [np.array([0.6, 0.8])]        # global norm 1.0
    clipped, nrm = clip_grads(g, 0.1)
    assert nrm == pytest.approx(1.0)
    np.testing.assert_allclose(clipped[0], [0.06, 0.08], atol=1e-15)


def test_clip_below_threshold_untouched():
    g = [np.array([0.01, 0.02])]
    clipped, _ = clip_grads(g, 0.1)
    np.testing.assert_array_equal(clipped[0], g[0])


def test_clip_invariance_to_overall_scale():
    rng = Rng(0)
    g = [rng.normal((4, 3)), rng.normal((5,))]
    a, _ = clip_grads([x.copy() for x in g], 0.1)
    b, _ = clip_grads([10.0 * x for x in g], 0.1)
    for u, v in zip(a, b):
        np.testing.assert_allclose(u, v, atol=1e-12)


def test_global_norm():
    assert global_norm([np.array([3.0]), np.array([4.0])]) == \
        pytest.approx(5.0)


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_zero_beta_sign_scaled():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
    cfg = TrainConfig(lr=0.5, beta1=0.0, beta2=0.0, weight_decay=0.0)
    opt = AdamW([p], cfg)
    g = np.array([0.3, -0.4])
    opt.step([g], lr=0.1)
    want = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + AdamW.EPS)
    np.testing.assert_allclose(p.data, want, atol=1e-12)


def test_adamw_decoupled_weight_decay():
    p = Tensor(np.array([2.0]), requires_grad=True, name="p")
    cfg = TrainConfig(lr=1.0, beta1=0.9, beta2=0.98, weight_decay=0.5)
    opt = AdamW([p], cfg)
    opt.step([np.zeros(1)], lr=0.1)
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-12)


def test_adamw_zero_lr_is_identity():
    p = Tensor(np.array([1.5]), requires_grad=True, name="p")
    opt = AdamW([p], TrainConfig(lr=1.0))
    opt.step([np.array([0.7])], lr=0.0)
    np.testing.assert_array_equal(p.data, [1.5])


# ---------------------------------------------------------------------------
# loss

def test_total_loss_gamma_zero_is_ce():
    model = toy_model(1)
    x, y = ToyTask().sample("train", 4, Rng(2))
    loss, parts, _ = total_loss(model, x, y, 0.0)
    assert float(loss.data) == parts["ce"]
    assert parts["vq"] == 0.0


def test_total_loss_two_layer_mean():
    model = Model(tiny_lm_cfg(depth=2), Rng(3, "model"))
    x = Rng(4).integers(0, 8, (2, 12))
    y = Rng(5).integers(0, 8, (2, 12))
    gamma = 0.25
    loss, parts, auxes = total_loss(model, x, y, gamma)
    from longvq.vq import commit_loss
    vqs = [float(commit_loss(a["K"], lay.codebook, a["z"]).data)
           for a, lay in zip(auxes, model.layers())]
    assert parts["vq"] == pytest.approx(sum(vqs) / 2, rel=1e-12)
    assert float(loss.data) == pytest.approx(
        parts["ce"] + gamma * parts["vq"], rel=1e-12)


def test_total_loss_perfectly_quantized_vq_zero():
    model = toy_model(6)
    x, y = ToyTask().sample("train", 1, Rng(7))
    _, _, auxes = total_loss(model, x, y, 1.0)
    layer = model.layers()[0]
    aux = auxes[0]
    # snap each used codeword onto its (unique-coded) key rows
    z = aux["z"].reshape(-1)
    K = aux["K"].data.reshape(-1, 4)
    for i, s in enumerate(z):
        layer.codebook.C[s] = K[i]
    if len(set(z.tolist())) == len(z):
        _, parts, _ = total_loss(model, x, y, 1.0)
        assert parts["vq"] < 1e-20


# ---------------------------------------------------------------------------
# loop

def run_toy(seed, steps=40, path=None, **kw):
    model = toy_model(seed)
    cfg = TrainConfig(lr=1e-2, warmup_steps=10, total_steps=steps,
                      batch_size=8, seed=seed, eval_every=20,
                      eval_batches=2, **kw)
    recs = train_loop(model, ToyTask(), cfg, metrics_path=path)
    return model, recs


def test_loop_record_schema():
    model, recs = run_toy(0, steps=5)
    train_recs = [r for r in recs if r["split"] == "train"]
    assert len(train_recs) == 5
    for k in ("step", "split", "loss", "ce", "vq", "acc",
              "codebook_perplexity", "dead_codes", "quant_err",
              "code_drift", "lr", "grad_norm", "wallclock_ms"):
        assert k in train_recs[0]
    S = model.cfg.S
    for r in train_recs:
        # one value per layer; a used code leaves at most S - 1 dead
        assert len(r["dead_codes"]) == len(r["quant_err"]) \
            == len(r["code_drift"]) == 1
        assert all(0.0 <= e < np.inf for e in r["code_drift"])
        assert all(isinstance(n, int) and 0 <= n < S for n in r["dead_codes"])
        assert all(0.0 <= e < np.inf for e in r["quant_err"])
        # exp(entropy) of the code histogram is at most the used-code count
        assert r["codebook_perplexity"][0] <= S - r["dead_codes"][0] + 1e-9
        # per-phase timing: the total also holds sampling and the checks
        ms = r["wallclock_ms"]
        assert set(ms) == {"total", "forward", "backward", "optimizer", "ema"}
        assert all(t >= 0.0 for t in ms.values())
        assert ms["total"] >= (ms["forward"] + ms["backward"]
                               + ms["optimizer"] + ms["ema"])
    assert all("attn_entropy" not in r for r in train_recs)
    # grad_norm is the pre-clip global norm: here it exceeds the 0.1 clip
    assert all(r["grad_norm"] > TrainConfig().grad_clip for r in train_recs)
    evals = [r for r in recs if r["split"] == "eval"]
    assert evals
    for r in evals:
        assert len(r["attn_entropy"]) == 1          # one value per layer
        assert all(0.0 <= e <= 1.0 for e in r["attn_entropy"])
    assert all("lr" not in r and "wallclock_ms" not in r for r in evals)


def test_code_signals_planted():
    # keys (3, 4) and (0, 0) snapped to (3, 4) and (0, 1): ||K - K_hat||
    # is 1 and ||K|| is 5; codes 1 and 2 of S=4 are used, so 2 are dead
    K = np.array([[[3.0, 4.0], [0.0, 0.0]]])
    K_hat = np.array([[[3.0, 4.0], [0.0, 1.0]]])
    aux = {"K": Tensor(K), "K_hat": Tensor(K_hat), "z": np.array([[2, 1]])}
    assert _dead_codes([aux], 4) == [2]
    assert _quant_errs([aux]) == [pytest.approx(0.2, rel=1e-15)]
    aux["K_hat"] = Tensor(K.copy())
    assert _quant_errs([aux]) == [0.0]


def test_code_drift_planted():
    # one key (3, 6) on code 0 = (3, 4): the count stays 1 and the sum
    # goes to (3, 4 + 2 (1 - eta)), so C_0 moves by about 2 (1 - eta) and
    # the drift is that over ||(3, 4)|| = 5; the unused code 1 stays 0.
    # Exactly, C_0 is the sum over its smoothed count
    C = np.array([[3.0, 4.0], [0.0, 0.0]])
    cb = Codebook(C=C, ema_count=np.ones(2), ema_sum=C.copy())
    aux = {"K": Tensor(np.array([[[3.0, 6.0]]])), "z": np.array([[0]])}
    layer = type("Layer", (), {"codebook": cb})()
    n = np.array([1.0, EMA_ETA])
    m0 = EMA_ETA * C[0] + (1.0 - EMA_ETA) * np.array([3.0, 6.0])
    c0 = m0 / ((1.0 + EMA_EPSILON) / (n.sum() + 2 * EMA_EPSILON) * n.sum())
    drift = np.linalg.norm(c0 - C[0]) / 5.0
    assert _ema_step([layer], [aux]) == [pytest.approx(drift, rel=1e-12)]
    assert drift == pytest.approx(2 * (1.0 - EMA_ETA) / 5.0, rel=1e-3)
    np.testing.assert_allclose(cb.C, [c0, [0.0, 0.0]], rtol=1e-15)


def test_loop_deterministic_modulo_wallclock(tmp_path):
    lines = []
    for run in range(2):
        p = str(tmp_path / f"m{run}.jsonl")
        run_toy(1, steps=8, path=p)
        with open(p) as fh:
            recs = [json.loads(x) for x in fh]
        for r in recs:
            r.pop("wallclock_ms", None)
        lines.append(json.dumps(recs, sort_keys=True))
    assert lines[0] == lines[1]


def test_loop_loss_decreases():
    _, recs = run_toy(2, steps=250)
    tr = [r["loss"] for r in recs if r["split"] == "train"]
    assert np.median(tr[-50:]) < np.median(tr[:50])


def test_loop_ownership_separation():
    model = toy_model(8)
    x, y = ToyTask().sample("train", 4, Rng(9))
    loss, _, auxes = total_loss(model, x, y, 0.01)
    params = model.params()
    grads = T.grad(loss, params)
    layer = model.layers()[0]
    cb_before = layer.codebook.C.copy()
    opt = AdamW(params, TrainConfig(lr=0.1))
    opt.step(grads, 0.1)
    np.testing.assert_array_equal(layer.codebook.C, cb_before)

    p_before = [p.data.copy() for p in params]
    ema_update(layer.codebook, auxes[0]["K"].data, auxes[0]["z"])
    for p, before in zip(params, p_before):
        np.testing.assert_array_equal(p.data, before)
    assert not np.array_equal(layer.codebook.C, cb_before)


class PoisonTask(ToyTask):
    """NaN inputs on selected steps."""

    def __init__(self, bad_steps):
        self.bad = set(bad_steps)
        self.calls = 0

    def sample(self, split, batch_size, rng):
        x, y = super().sample(split, batch_size, rng)
        if split == "train":
            self.calls += 1
            if self.calls in self.bad:
                x = x + np.nan
        return x, y


def test_loop_skips_nonfinite_then_recovers():
    model = toy_model(10)
    cfg = TrainConfig(lr=1e-2, total_steps=6, batch_size=4, seed=0,
                      eval_every=0)
    recs = train_loop(model, PoisonTask({2}), cfg)
    events = [r for r in recs if r.get("event")]
    assert len(events) == 1 and events[0]["step"] == 2
    assert sum(r["split"] == "train" and "loss" in r for r in recs) == 5


def test_loop_aborts_after_repeated_nonfinite():
    model = toy_model(11)
    cfg = TrainConfig(lr=1e-2, total_steps=30, batch_size=4, seed=0,
                      eval_every=0)
    with pytest.raises(RuntimeError, match="non-finite"):
        train_loop(model, PoisonTask(range(1, 31)), cfg)


def test_loop_aborts_after_repeated_nonfinite_grads(monkeypatch):
    import longvq.train as train_mod

    def nan_grads(loss, params):
        return [np.full_like(p.data, np.nan) for p in params]

    monkeypatch.setattr(train_mod, "grad", nan_grads)
    model = toy_model(12)
    before = [p.data.copy() for p in model.params()]
    cfg = TrainConfig(lr=1e-2, total_steps=30, batch_size=4, seed=0,
                      eval_every=0)
    with pytest.raises(RuntimeError, match="non-finite gradients"):
        train_loop(model, ToyTask(), cfg)
    for p, b in zip(model.params(), before):
        np.testing.assert_array_equal(p.data, b)


# ---------------------------------------------------------------------------
# gradient checking

def test_finite_diff_linear_model_tight():
    rng = Rng(12)
    w = Tensor(rng.normal((3, 2)), requires_grad=True, name="w")
    b = Tensor(np.zeros(2), requires_grad=True, name="b")
    x = rng.normal((5, 3))
    y = rng.integers(0, 2, (5,))

    def loss_fn():
        return T.cross_entropy(T.matmul(Tensor(x), w) + b, y)

    analytic = T.grad(loss_fn(), [w, b])
    numeric = T.finite_diff(loss_fn, [w, b])
    for a, n in zip(analytic, numeric):
        assert np.max(np.abs(a - n)) < 1e-8


def _mk(attn_fn):
    def make_model(seed):
        return Model(tiny_lm_cfg(attn_fn), Rng(seed, "model"))

    def make_batch(seed):
        r = Rng(seed, "batch")
        return r.integers(0, 8, (1, 16)), r.integers(0, 8, (1, 16))

    return make_model, make_batch


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2"])
def test_gradcheck_one_block(attn_fn):
    make_model, make_batch = _mk(attn_fn)
    rep = gradcheck_model(make_model, make_batch, seed=100)
    assert not rep["skipped"]
    assert rep["passed"], rep["worst"]


def test_gradcheck_detects_planted_fault():
    make_model, make_batch = _mk("softmax")
    set_backward_fault("matmul")
    rep = gradcheck_model(make_model, make_batch, seed=100)
    set_backward_fault(None)
    assert not rep["skipped"] and not rep["passed"]


def test_gradcheck_margin_skip(monkeypatch):
    import longvq.train as train_mod
    monkeypatch.setattr(train_mod, "_GC_MARGIN", 1e9)
    monkeypatch.setattr(train_mod, "_GC_TRIES", 3)
    make_model, make_batch = _mk("softmax")
    rep = gradcheck_model(make_model, make_batch, seed=0)
    assert rep["skipped"] and rep["tries"] == 3


def test_assignment_margin_hand():
    C = np.array([[0.0, 0.0], [1.0, 0.0]])
    K = np.array([[0.1, 0.0], [0.9, 0.0]])
    m = assignment_margin(K, C)
    assert m == pytest.approx(0.8, abs=1e-12)
