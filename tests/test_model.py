"""Block composition, norms, heads, parameter accounting, checkpoints."""

import tracemalloc
import weakref

import numpy as np
import pytest

import longvq.tensor as T
import longvq.vq as vq
from longvq.attention import ATTN_FNS, AttentionConfig
from longvq.model import (
    Ffn, Model, ModelConfig, Norm, load_checkpoint, save_checkpoint,
)
from longvq.rng import Rng
from longvq.tensor import Tensor, precision
from longvq.train import total_loss


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def small_cfg(**kw):
    base = dict(depth=2, d_model=8, S=6, head="mean_pool_classify", n_out=3,
                vocab=0, in_dim=2,
                attn=AttentionConfig("softmax", 2, True, z_dim=4, v_dim=12),
                n_state=4)
    base.update(kw)
    return ModelConfig(**base)


def lm_cfg(**kw):
    base = dict(depth=2, d_model=8, S=6, head="per_position_lm", n_out=11,
                vocab=11,
                attn=AttentionConfig("softmax", 2, True, z_dim=4, v_dim=12),
                n_state=4)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config validation

def test_config_defaults_and_checks():
    cfg = small_cfg()
    assert cfg.d_ffn == 16
    with pytest.raises(ValueError):
        small_cfg(depth=0)
    with pytest.raises(ValueError):
        small_cfg(d_ffn=4)
    with pytest.raises(ValueError):
        small_cfg(head="cls")
    with pytest.raises(ValueError):
        small_cfg(vocab=5)          # both vocab and in_dim set
    with pytest.raises(ValueError):
        lm_cfg(attn=AttentionConfig("softmax", 2, False, z_dim=4, v_dim=12))


# ---------------------------------------------------------------------------
# norms

def test_layer_norm_constant_vector_zero_pre_gain():
    nm = Norm(4, "n")
    x = Tensor(np.full((1, 2, 4), 3.7))
    np.testing.assert_allclose(nm(x).data, 0.0, atol=1e-3)


# ---------------------------------------------------------------------------
# ffn

def test_ffn_hand_composition():
    ffn = Ffn(1, 1, Rng(0).child("f"), "f")
    ffn.w1.data[...] = 2.0
    ffn.w2.data[...] = 3.0
    x = np.array([[[0.5], [-1.0]]])
    want = T.silu(Tensor(2.0 * x)).data * 3.0
    np.testing.assert_allclose(ffn(Tensor(x)).data, want, atol=1e-12)


def test_ffn_zero_weights():
    ffn = Ffn(3, 6, Rng(1).child("f"), "f")
    for p in ffn.params():
        p.data[...] = 0.0
    out = ffn(Tensor(Rng(2).normal((1, 5, 3))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_ffn_position_equivariance():
    rng = Rng(3)
    ffn = Ffn(4, 8, rng.child("f"), "f")
    x = rng.normal((1, 6, 4))
    perm = rng.permutation(6)
    out = ffn(Tensor(x)).data
    out_p = ffn(Tensor(x[:, perm])).data
    np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)


# ---------------------------------------------------------------------------
# block composition

def test_block_dead_ffn_reduces_to_normed_layer():
    rng = Rng(4)
    model = Model(small_cfg(depth=1), rng.child("m"))
    blk = model.blocks[0]
    blk.ffn.w2.data[...] = 0.0
    x = Tensor(Rng(5).normal((1, 12, 8)))
    out, _ = blk(x)
    a, _ = blk.attn(x)
    want = blk.norm1(a).data
    # norm-of-norm is idempotent only up to the eps inside the variance
    np.testing.assert_allclose(out.data, want, rtol=1e-3, atol=1e-3)


def test_block_post_norm_composition():
    model = Model(small_cfg(depth=1), Rng(6).child("m"))
    blk = model.blocks[0]
    x = Tensor(Rng(7).normal((1, 10, 8)))
    out, _ = blk(x)
    a, _ = blk.attn(x)
    y = blk.norm1(a)
    want = blk.norm2(y + blk.ffn(y)).data
    np.testing.assert_array_equal(out.data, want)


def test_block_shape_preserved():
    model = Model(small_cfg(depth=1), Rng(8))
    x = Tensor(Rng(9).normal((2, 7, 8)))
    out, aux = model.blocks[0](x)
    assert out.data.shape == (2, 7, 8)
    assert aux["z"].shape == (2, 7)


# ---------------------------------------------------------------------------
# full model

def test_classify_logits_shape():
    model = Model(small_cfg(), Rng(10))
    x = Rng(11).normal((3, 9, 2))
    logits, auxes = model(x)
    assert logits.data.shape == (3, 3)
    assert len(auxes) == 2


def test_lm_logits_shape_and_causality():
    model = Model(lm_cfg(), Rng(12))
    rng = Rng(13)
    tok = rng.integers(0, 11, (1, 20))
    logits, _ = model(tok)
    assert logits.data.shape == (1, 20, 11)
    tok2 = tok.copy()
    tok2[0, 13:] = (tok2[0, 13:] + 5) % 11
    logits2, _ = model(tok2)
    assert np.max(np.abs(logits.data[0, :13] - logits2.data[0, :13])) < 1e-12


def test_model_deterministic():
    runs = []
    for _ in range(2):
        model = Model(small_cfg(), Rng(14))
        x = Rng(15).normal((2, 8, 2))
        logits, _ = model(x)
        runs.append(logits.data.copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_param_names_and_registry():
    model = Model(lm_cfg(), Rng(16))
    names = [p.name for p in model.params()]
    assert "blocks.0.attn.w_q" in names
    assert "blocks.1.ffn.w1" in names
    assert "blocks.0.attn.ssm.C_out" in names
    assert "embed.table" in names and "head.w" in names
    assert len(names) == len(set(names))
    head_b = [p for p in model.params() if p.name == "head.b"]
    assert [p.data.shape for p in head_b] == [(11,)]


def _closed_form_param_count(cfg):
    d, f, n = cfg.d_model, cfg.d_ffn, cfg.n_state
    z, v, w = cfg.attn.z_dim, cfg.attn.v_dim, cfg.attn.window
    ssm = d * n + 2 * d if cfg.ssm_enabled else 0
    gates = (d * v + v) + 2 * (d * z + z) + (d * v + v) \
        + (d * d + d) + (v * d + d)
    layer = ssm + gates + (2 * w + 1)
    ffn = d * f + f + f * d + d
    block = layer + 2 * (2 * d) + ffn     # two LayerNorms, gain and bias
    embed = cfg.vocab * d if cfg.vocab > 0 else cfg.in_dim * d + d
    head = d * cfg.n_out + cfg.n_out
    return embed + cfg.depth * block + head


@pytest.mark.parametrize("ssm_enabled", [True, False])
def test_param_count_formula(ssm_enabled):
    for cfg in (small_cfg(ssm_enabled=ssm_enabled),
                lm_cfg(ssm_enabled=ssm_enabled, depth=3)):
        model = Model(cfg, Rng(17))
        actual = sum(p.data.size for p in model.params())
        assert actual == _closed_form_param_count(cfg)


def test_gradients_flow_to_all_params():
    model = Model(lm_cfg(depth=1), Rng(18))
    tok = Rng(19).integers(0, 11, (2, 12))
    logits, auxes = model(tok)
    loss = T.cross_entropy(logits, Rng(20).integers(0, 11, (2, 12)))
    gs = T.grad(loss, model.params())
    zero = [p.name for p, g in zip(model.params(), gs)
            if np.max(np.abs(g)) == 0.0]
    # biases of dead-zero layers can be zero-gradient; core weights not
    assert "embed.table" not in zero
    assert "blocks.0.attn.w_q" not in zero
    assert "blocks.0.ffn.w1" not in zero
    assert "head.w" not in zero


def _tape(root):
    """Every node reachable from root through its parents."""
    seen, todo, out = set(), [root], []
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            todo.extend(node._parents)
    return out


@pytest.mark.parametrize("impl", ["factored", "dense"])
def test_backward_releases_interior_nodes(impl):
    model = Model(small_cfg(), Rng(29), impl=impl)
    x = Tensor(Rng(30).normal((2, 12, 2)), requires_grad=True)
    loss, _, _ = total_loss(model, x, np.array([0, 2]), 0.25)
    interior = [n for n in _tape(loss) if n._parents]
    closures = [weakref.ref(n._vjp) for n in interior]
    params = model.params()
    gs = T.grad(loss, params)
    assert len(interior) > 20
    assert all(n.grad is None for n in interior)
    assert all(ref() is None for ref in closures)
    assert all(p.grad is g for p, g in zip(params, gs))
    assert x.grad is not None and x.grad.shape == x.shape


@pytest.mark.parametrize("cfg, y", [
    (lm_cfg(depth=1), Rng(52).integers(0, 11, (3, 10))),
    (small_cfg(depth=1), np.array([2, 0, 1])),
], ids=["lm", "classify"])
def test_total_loss_is_the_flattened_cross_entropy(cfg, y):
    # one cross_entropy call on the head's logits, whatever their rank:
    # the CE and accuracy of the (B * L, C) and (B,) flattened forms
    model = Model(cfg, Rng(50))
    x = Rng(51).normal((3, 10, 2)) if cfg.in_dim else \
        Rng(51).integers(0, 11, (3, 10))
    _, parts, _ = total_loss(model, x, y, 0.0)
    logits = model(x)[0].data
    flat = logits.reshape(-1, logits.shape[-1])
    ce = T.cross_entropy(Tensor(flat), y.reshape(-1))
    assert parts["ce"] == float(ce.data)
    assert parts["acc"] == float((flat.argmax(axis=1) == y.reshape(-1)).mean())


def test_tape_census_lm_recipe():
    # the lm benchmark recipe at L=32: every interior node's array is
    # named below by its width in (B, L, .) rows. Per block, the SSM scan
    # node is the whole branch, skip included (no kernel array), gate_mix
    # carries its sigmoid, norm2 the FFN residual and the commitment loss
    # its difference and square, so none of those joins is a node of its
    # own. The gate_mix output and the FFN w2 output are read by norm1's
    # and norm2's backward, which rebuild the normalized rows from them.
    # The loss takes the (B, L, n_out) logits as they are: no reshape.
    B, L, d, f, z, v, n_out = 4, 32, 64, 64, 16, 32, 16
    with precision("float32"):
        cfg = ModelConfig(depth=2, d_model=d, S=64, head="per_position_lm",
                          n_out=n_out, vocab=16, d_ffn=f, n_state=16,
                          attn=AttentionConfig("softmax", 8, True, z_dim=z,
                                               v_dim=v))
        model = Model(cfg, Rng(40))
        r = Rng(41)
        x, y = r.integers(0, 16, (B, L)), r.integers(0, 16, (B, L))
        loss, _, _ = total_loss(model, x, y, 1e-4)
    interior = [n for n in _tape(loss) if n._vjp is not None]
    block = (8 * d      # scan, silu Z, proj, go, gate_mix, norm1, w2, norm2
             + 2 * f    # w1, silu
             + 6 * v    # ga, silu G_a, v, silu V, attn, G_a * O
             + 3 * z)   # q, k, quantize
    rows = 2 * block + d + n_out         # embed; head logits
    want = 4 * (B * L * rows + 7)               # + 7 scalars
    census = sorted((n._op, n.data.shape) for n in interior)
    assert len(interior) == 47, census
    assert sum(n.data.nbytes for n in interior) == want, census


@pytest.mark.parametrize("cfg", [lm_cfg(), small_cfg()],
                         ids=["lm", "classify"])
def test_dense_tape_holds_one_attention_node_per_layer(cfg):
    # the oracle is one attn_dense node, as the factored op is one
    # attn_factored node: no generic product or difference is left, and
    # the classifier's mean pool runs with no broadcast
    model = Model(cfg, Rng(42), impl="dense")
    x = Rng(43).normal((2, 10, 2)) if cfg.in_dim else \
        Rng(43).integers(0, 11, (2, 10))
    y = Rng(44).integers(0, 3, (2,)) if cfg.in_dim else x
    loss, _, _ = total_loss(model, x, y, 1e-4)
    ops = [n._op for n in _tape(loss)]
    assert ops.count("attn_dense") == cfg.depth
    assert not {"attn_factored", "matmul", "sub", "dense_weights"} & set(ops)


def test_tape_memory_lm_recipe():
    # the lm benchmark recipe's step at B=32, L=256 with seeded codebooks.
    # A node keeps its parents and only what its backward cannot rebuild,
    # so 4.5 MB of the forward's traced memory lies outside the node
    # arrays (25.8 MB when nodes kept their activations), and the step
    # peaks at 75.5 MB (94.4 MB with whole-size SSM and attention backward
    # workspaces). tracemalloc counts the same numpy allocations on every
    # run, so both bounds are exact
    with precision("float32"):
        cfg = ModelConfig(depth=2, d_model=64, S=64, head="per_position_lm",
                          n_out=16, vocab=16, d_ffn=64, n_state=16,
                          attn=AttentionConfig("softmax", 8, True, z_dim=16,
                                               v_dim=32))
        model = Model(cfg, Rng(44))
        r = Rng(45)
        x, y = r.integers(0, 16, (32, 256)), r.integers(0, 16, (32, 256))
        model(x)                                   # seeds the codebooks
        params = model.params()
        tracemalloc.start()
        try:
            loss, _, _ = total_loss(model, x, y, 0.25)
            held = tracemalloc.get_traced_memory()[0]
            nodes = sum(n.data.nbytes for n in _tape(loss)
                        if n._vjp is not None)
            T.grad(loss, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    mb = 2.0 ** 20
    assert held - nodes <= 8 * mb, f"{(held - nodes) / mb:.2f} MB"
    assert peak <= 80 * mb, f"{peak / mb:.2f} MB"


@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("impl", ["factored", "dense"])
@pytest.mark.parametrize("attn_fn", ATTN_FNS)
def test_float32_tape_stays_float32(attn_fn, impl, causal):
    with precision("float32"):
        cfg = small_cfg(attn=AttentionConfig(attn_fn, 2, causal, z_dim=4,
                                             v_dim=12))
        model = Model(cfg, Rng(31), impl=impl)
        x = Rng(32).normal((2, 12, 2), dtype=np.float32)
        loss, _, _ = total_loss(model, x, np.array([1, 2]), 0.25)
        wide = {n._op or n.name for n in _tape(loss)
                if n.data.dtype != np.float32}
        assert not wide, f"non-float32 nodes from {sorted(map(str, wide))}"
        gs = T.grad(loss, model.params())
    assert all(g.dtype == np.float32 for g in gs)


def test_float32_lm_loss_and_gradients_match_float64(monkeypatch):
    # the lm recipe's layer shapes on one small batch: the float32 loss and
    # every parameter gradient against float64 at the same (float32)
    # weights and codebooks, with the float64 codes replayed in float32 so
    # a near-tie in the assignment cannot pick another code
    cfg = ModelConfig(depth=2, d_model=64, S=64, head="per_position_lm",
                      n_out=16, vocab=16, d_ffn=64, n_state=16,
                      attn=AttentionConfig("softmax", 8, True, z_dim=16,
                                           v_dim=32))
    r = Rng(43)
    x, y = r.integers(0, 16, (4, 96)), r.integers(0, 16, (4, 96))
    model = Model(cfg, Rng(42))
    model(x)                                       # seeds the codebooks
    state = {k: a.astype(np.float32) for k, a in model.state_arrays().items()}
    model.load_state(state)
    loss, _, auxes = total_loss(model, x, y, 0.25)
    hi = [loss.data, *T.grad(loss, model.params())]
    codes = [aux["z"] for aux in auxes]
    monkeypatch.setattr(vq, "assign_batch", lambda k, cb: codes.pop(0))
    with precision("float32"):
        model = Model(cfg, Rng(42))
        model.load_state(state)
        loss, _, _ = total_loss(model, x, y, 0.25)
        lo = [loss.data, *T.grad(loss, model.params())]
    names = ["loss"] + [p.name for p in model.params()]
    for name, a, b in zip(names, lo, hi):
        assert a.dtype == np.float32, name
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err < 1e-5, (name, f"{err:.2e}")


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    # the file holds each array at the model's own dtype, so a restored
    # model is the saved one, bit for bit
    cfg = lm_cfg()
    tok = Rng(22).integers(0, 11, (2, 16))
    for prec in ("float64", "float32"):
        with precision(prec):
            model = Model(cfg, Rng(21))
            ref, _ = model(tok)              # seeds the codebooks
            path = str(tmp_path / f"ckpt-{prec}.bin")
            save_checkpoint(path, model)

            model2 = Model(cfg, Rng(23))     # different init
            load_checkpoint(path, model2)
            got, _ = model2(tok)
        want = model.state_arrays()
        have = model2.state_arrays()
        assert list(have) == list(want)
        for name in want:
            assert have[name].dtype == want[name].dtype == prec, name
            np.testing.assert_array_equal(have[name], want[name],
                                          err_msg=name)
        assert got.data.dtype == prec
        np.testing.assert_array_equal(got.data, ref.data)


def test_checkpoint_without_codebook_fails_to_load(tmp_path):
    # saved before any forward: the codebooks are unseeded, so loading
    # must not leave them to be seeded later from eval data
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, Model(lm_cfg(), Rng(27)))
    model = Model(lm_cfg(), Rng(28))
    with pytest.raises(ValueError, match="codebook for 'blocks.0.attn'"):
        load_checkpoint(path, model)


def test_checkpoint_rejects_wrong_shape(tmp_path):
    model = Model(small_cfg(), Rng(24))
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, model)
    other = Model(small_cfg(d_model=16,
                            attn=AttentionConfig("softmax", 2, True,
                                                 z_dim=4, v_dim=12)),
                  Rng(25))
    with pytest.raises(ValueError, match=r"shape mismatch for 'embed.w': "
                       r"checkpoint \(2, 8\), model \(2, 16\)"):
        load_checkpoint(path, other)


def _codebook_checkpoint(tmp_path, entry, shape):
    """A seeded lm_cfg checkpoint whose `entry` is zeros of `shape`."""
    model = Model(lm_cfg(), Rng(30))
    model(Rng(22).integers(0, 11, (2, 16)))
    arrays = dict(model.state_arrays())
    arrays[entry] = np.zeros(shape)
    path = str(tmp_path / "ckpt.bin")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def test_checkpoint_rejects_wrong_ema_count_shape(tmp_path):
    # a (1,) count would broadcast over all S codes at the first EMA step
    path = _codebook_checkpoint(
        tmp_path, "blocks.0.attn.codebook.ema_count", (1,))
    model = Model(lm_cfg(), Rng(31))
    before = {n: a.copy() for n, a in model.state_arrays().items()}
    with pytest.raises(ValueError, match=(
            r"shape mismatch for 'blocks.0.attn.codebook.ema_count': "
            r"checkpoint \(1,\), model \(6,\)")):
        load_checkpoint(path, model)
    # a refused checkpoint leaves the model as it was
    after = model.state_arrays()
    assert list(after) == list(before)
    for name in before:
        np.testing.assert_array_equal(after[name], before[name])


def test_checkpoint_rejects_wrong_ema_sum_shape(tmp_path):
    path = _codebook_checkpoint(
        tmp_path, "blocks.0.attn.codebook.ema_sum", (1, 4))
    with pytest.raises(ValueError, match=(
            r"shape mismatch for 'blocks.0.attn.codebook.ema_sum': "
            r"checkpoint \(1, 4\), model \(6, 4\)")):
        load_checkpoint(path, Model(lm_cfg(), Rng(31)))


def test_checkpoint_rejects_a_codebook_of_no_layer(tmp_path):
    # lm_cfg has two blocks: a third codebook is not silently dropped
    path = _codebook_checkpoint(tmp_path, "blocks.2.attn.codebook.C", (6, 4))
    with pytest.raises(ValueError, match=(
            r"unexpected checkpoint entry 'blocks.2.attn.codebook.C'")):
        load_checkpoint(path, Model(lm_cfg(), Rng(31)))


def test_embed_names_the_input_shape_it_got():
    with pytest.raises(ValueError, match=r"\(B, L\), got shape \(5,\)"):
        Model(lm_cfg(), Rng(29)).embed(np.zeros(5, dtype=int))
    with pytest.raises(ValueError,
                       match=r"\(B, L, 2\), got shape \(1, 4, 3\)"):
        Model(small_cfg(), Rng(29)).embed(np.zeros((1, 4, 3)))


def test_checkpoint_file_holds_state_arrays(tmp_path):
    # one .npz at the given path, no sidecar: its members are
    # state_arrays() by name, order, shape and dtype
    for prec in ("float64", "float32"):
        with precision(prec):
            model = Model(small_cfg(depth=1), Rng(26))
            model(Rng(30).normal((2, 6, 2)))     # seeds the codebook
        path = tmp_path / f"ckpt-{prec}.bin"
        save_checkpoint(str(path), model)
        want = model.state_arrays()
        with np.load(path, allow_pickle=False) as z:
            assert z.files == list(want)
            for name in want:
                assert z[name].dtype == want[name].dtype == prec, name
                assert z[name].shape == want[name].shape, name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ckpt-float32.bin", "ckpt-float64.bin"]
