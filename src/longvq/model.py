"""Blocks, stacking, embeddings, and task heads.

One block is the gated quantized-key layer followed by a feed-forward
sublayer, both post-normed with LayerNorm: Y = Norm(Layer(X));
Y' = Norm(Y + FFN(Y)). The attention sublayer carries its own gated
residual, so no outer residual is added around it. norm2 takes FFN(Y)
with Y as its residual and normalizes the sum in one ``layer_norm`` node,
so the sum is never a tape array.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionConfig, LongVQLayer, _linear_init, _zeros_param,
)
from .tensor import (
    Tensor, gather_rows, get_dtype, layer_norm, linear, silu, tmean,
)
from .vq import Codebook

__all__ = ["ModelConfig", "Norm", "Ffn", "Block", "Model", "save_checkpoint",
           "load_checkpoint"]

HEADS = ("mean_pool_classify", "per_position_lm")


@dataclass
class ModelConfig:
    attn: AttentionConfig
    head: str
    n_out: int
    depth: int = 2
    d_model: int = 64
    S: int = 64
    vocab: int = 0          # token table when > 0 ...
    in_dim: int = 0         # ... or a linear map from channel values
    d_ffn: int = 0          # defaults to 2 * d_model
    n_state: int = 16
    ssm_enabled: bool = True    # False ablates the state branch: Z = silu(X)

    def __post_init__(self):
        for name in ("depth", "d_model", "S", "n_state"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_ffn == 0:
            self.d_ffn = 2 * self.d_model
        if self.d_ffn < self.d_model:
            raise ValueError("d_ffn must be >= d_model")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}")
        if (self.vocab > 0) == (self.in_dim > 0):
            raise ValueError("exactly one of vocab / in_dim must be set")
        if self.head == "per_position_lm" and not self.attn.causal:
            raise ValueError("per_position_lm needs causal attention")


class Norm:
    """LayerNorm over the channel axis with a learned gain and bias."""

    def __init__(self, d, prefix):
        self.gain = Tensor(np.ones(d, dtype=get_dtype()), requires_grad=True,
                           name=f"{prefix}.gain")
        self.bias = _zeros_param(d, f"{prefix}.bias")

    def __call__(self, x, residual=None):
        """Normalize x, or x + residual in the same node."""
        return layer_norm(x, self.gain, self.bias, residual=residual)

    def params(self):
        return [self.gain, self.bias]


class Ffn:
    """Position-wise Linear(d->f) -> silu -> Linear(f->d)."""

    def __init__(self, d, f, rng, prefix):
        self.w1 = _linear_init(rng.child("w1"), d, f, f"{prefix}.w1")
        self.b1 = _zeros_param(f, f"{prefix}.b1")
        self.w2 = _linear_init(rng.child("w2"), f, d, f"{prefix}.w2")
        self.b2 = _zeros_param(d, f"{prefix}.b2")

    def __call__(self, y):
        h = silu(linear(y, self.w1, self.b1))
        return linear(h, self.w2, self.b2)

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


class Block:
    def __init__(self, cfg: ModelConfig, rng, prefix, impl="factored"):
        self.attn = LongVQLayer(cfg.d_model, cfg.attn, cfg.S,
                                rng.child("attn"), n_state=cfg.n_state,
                                prefix=f"{prefix}.attn",
                                ssm_enabled=cfg.ssm_enabled, impl=impl)
        self.norm1 = Norm(cfg.d_model, f"{prefix}.norm1")
        self.norm2 = Norm(cfg.d_model, f"{prefix}.norm2")
        self.ffn = Ffn(cfg.d_model, cfg.d_ffn, rng.child("ffn"),
                       f"{prefix}.ffn")

    def __call__(self, x, frozen=None):
        a, aux = self.attn(x, frozen=frozen)
        y = self.norm1(a)
        return self.norm2(self.ffn(y), residual=y), aux

    def params(self):
        return (self.attn.params() + self.norm1.params()
                + self.norm2.params() + self.ffn.params())


class Model:
    """Embedding -> depth x Block -> head.

    forward() returns (logits, auxes): one aux dict per block carrying
    the keys, quantized keys, and shortcodes for the commitment loss and
    the EMA codebook update.
    """

    def __init__(self, cfg: ModelConfig, rng, impl="factored"):
        self.cfg = cfg
        # a train/eval flag kept for callers that toggle it; nothing here
        # reads it, since the block has no mode-dependent part
        self.training = False
        d = cfg.d_model
        er = rng.child("embed")
        if cfg.vocab > 0:
            # a lookup table at std d^-1/2, not a linear layer's 1/fan_in
            self.embed_w = Tensor(er.normal((cfg.vocab, d), std=d ** -0.5,
                                            dtype=get_dtype()),
                                  requires_grad=True, name="embed.table")
            self.embed_b = None
        else:
            self.embed_w = _linear_init(er, cfg.in_dim, d, "embed.w")
            self.embed_b = _zeros_param(d, "embed.b")
        self.blocks = [Block(cfg, rng.child(f"block{i}"), f"blocks.{i}",
                             impl=impl)
                       for i in range(cfg.depth)]
        self.head_w = _linear_init(rng.child("head"), d, cfg.n_out, "head.w")
        self.head_b = _zeros_param(cfg.n_out, "head.b")

    # -- plumbing ----------------------------------------------------------

    def params(self):
        ps = [self.embed_w] + ([self.embed_b] if self.embed_b is not None
                               else [])
        for b in self.blocks:
            ps += b.params()
        ps += [self.head_w, self.head_b]
        return ps

    def layers(self):
        return [b.attn for b in self.blocks]

    # -- forward -----------------------------------------------------------

    def embed(self, batch):
        if self.cfg.vocab > 0:
            idx = np.asarray(batch)
            if idx.ndim != 2:
                raise ValueError(f"token input must be (B, L), got shape "
                                 f"{idx.shape}")
            return gather_rows(self.embed_w, idx)
        x = batch if isinstance(batch, Tensor) else Tensor(
            np.asarray(batch, dtype=get_dtype()))
        if x.data.ndim != 3 or x.data.shape[2] != self.cfg.in_dim:
            raise ValueError(f"real input must be (B, L, {self.cfg.in_dim}), "
                             f"got shape {x.data.shape}")
        return linear(x, self.embed_w, self.embed_b)

    def forward(self, batch, frozen=None):
        h = self.embed(batch)
        auxes = []
        for i, blk in enumerate(self.blocks):
            h, aux = blk(h, frozen=None if frozen is None else frozen[i])
            auxes.append(aux)
        if self.cfg.head == "mean_pool_classify":
            logits = linear(tmean(h, axis=1), self.head_w, self.head_b)
        else:
            logits = linear(h, self.head_w, self.head_b)
        return logits, auxes

    __call__ = forward

    # -- persistent state --------------------------------------------------

    def state_arrays(self):
        """Ordered name -> array map: parameters, then the codebooks."""
        out = {p.name: p.data for p in self.params()}
        for b in self.blocks:
            cb = b.attn.codebook
            if cb is not None:
                out.update({f"{b.attn.prefix}.codebook.{n}": a
                            for n, a in vars(cb).items()})
        return out

    def load_state(self, arrays):
        """Install a state_arrays() map, after checking every entry's name
        and shape; the model changes only if all of them pass."""
        params = {p.name: p.data for p in self.params()}
        S, D = self.cfg.S, self.cfg.attn.z_dim
        layers = [b.attn.prefix for b in self.blocks]
        fields = {"C": (S, D), "ema_count": (S,), "ema_sum": (S, D)}
        want = {n: a.shape for n, a in params.items()}
        want.update({f"{lay}.codebook.{n}": shape for lay in layers
                     for n, shape in fields.items()})
        for name, arr in arrays.items():
            if name not in want:
                raise ValueError(f"unexpected checkpoint entry '{name}'")
            if arr.shape != want[name]:
                raise ValueError(f"shape mismatch for '{name}': checkpoint "
                                 f"{arr.shape}, model {want[name]}")
        missing = [n for n in params if n not in arrays]
        if missing:
            raise ValueError(f"checkpoint missing entries: {missing}")
        # a codebook left out would be seeded from whatever batch comes
        # next, eval data included, so a checkpoint must carry every one
        for lay in layers:
            if not all(f"{lay}.codebook.{n}" in arrays for n in fields):
                raise ValueError(
                    f"checkpoint has no codebook for '{lay}' "
                    "(saved before the model's first forward?)")
        for name, data in params.items():
            data[...] = arrays[name].astype(data.dtype)
        for lay, b in zip(layers, self.blocks):
            b.attn.codebook = Codebook(**{
                n: arrays[f"{lay}.codebook.{n}"].astype(get_dtype())
                for n in fields})


# ---------------------------------------------------------------------------
# checkpoints: one .npz of state_arrays(), each array at the model's dtype

def save_checkpoint(path, model):
    with open(path, "wb") as fh:
        np.savez(fh, **model.state_arrays())


def load_checkpoint(path, model):
    # BadZipFile covers truncation and a failed CRC-32; ValueError covers
    # pickles and files that are neither .npz nor .npy; a damaged central
    # directory can raise any of the others
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array, not an .npz")
        with npz:
            arrays = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError,
            NotImplementedError) as e:
        raise ValueError(f"{path}: not a readable checkpoint ({e})") from e
    model.load_state(arrays)
    return model
