"""Blocks, stacking, embeddings, and task heads.

One block is the gated quantized-key layer followed by a feed-forward
sublayer, both post-normed with LayerNorm: Y = Norm(Layer(X));
Y' = Norm(Y + FFN(Y)). The attention sublayer carries its own gated
residual, so no outer residual is added around it. norm2 takes FFN(Y)
with Y as its residual and normalizes the sum in one ``layer_norm`` node,
so the sum is never a tape array.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .attention import AttentionConfig, LongVQLayer
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
        dt = get_dtype()
        self.gain = Tensor(np.ones(d, dtype=dt), requires_grad=True,
                           name=f"{prefix}.gain")
        self.bias = Tensor(np.zeros(d, dtype=dt), requires_grad=True,
                           name=f"{prefix}.bias")

    def __call__(self, x, residual=None):
        """Normalize x, or x + residual in the same node."""
        return layer_norm(x, self.gain, self.bias, residual=residual)

    def params(self):
        return [self.gain, self.bias]


class Ffn:
    """Position-wise Linear(d->f) -> silu -> Linear(f->d)."""

    def __init__(self, d, f, rng, prefix):
        dt = get_dtype()
        self.w1 = Tensor(rng.child("w1").normal((d, f), std=d ** -0.5,
                                                dtype=dt),
                         requires_grad=True, name=f"{prefix}.w1")
        self.b1 = Tensor(np.zeros(f, dtype=dt), requires_grad=True,
                         name=f"{prefix}.b1")
        self.w2 = Tensor(rng.child("w2").normal((f, d), std=f ** -0.5,
                                                dtype=dt),
                         requires_grad=True, name=f"{prefix}.w2")
        self.b2 = Tensor(np.zeros(d, dtype=dt), requires_grad=True,
                         name=f"{prefix}.b2")

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
        dt = get_dtype()
        d = cfg.d_model
        er = rng.child("embed")
        if cfg.vocab > 0:
            self.embed_w = Tensor(er.normal((cfg.vocab, d), std=d ** -0.5,
                                            dtype=dt),
                                  requires_grad=True, name="embed.table")
            self.embed_b = None
        else:
            self.embed_w = Tensor(er.normal((cfg.in_dim, d),
                                            std=cfg.in_dim ** -0.5, dtype=dt),
                                  requires_grad=True, name="embed.w")
            self.embed_b = Tensor(np.zeros(d, dtype=dt), requires_grad=True,
                                  name="embed.b")
        self.blocks = [Block(cfg, rng.child(f"block{i}"), f"blocks.{i}",
                             impl=impl)
                       for i in range(cfg.depth)]
        self.head_w = Tensor(rng.child("head").normal((d, cfg.n_out),
                                                      std=d ** -0.5,
                                                      dtype=dt),
                             requires_grad=True, name="head.w")
        self.head_b = Tensor(np.zeros(cfg.n_out, dtype=dt),
                             requires_grad=True, name="head.b")

    # -- plumbing ----------------------------------------------------------

    @property
    def impl(self):
        return self.blocks[0].attn.impl

    @impl.setter
    def impl(self, value):
        for b in self.blocks:
            b.attn.impl = value

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
        for i, b in enumerate(self.blocks):
            cb = b.attn.codebook
            if cb is not None:
                out[f"blocks.{i}.attn.codebook.C"] = cb.C
                out[f"blocks.{i}.attn.codebook.ema_count"] = cb.ema_count
                out[f"blocks.{i}.attn.codebook.ema_sum"] = cb.ema_sum
        return out

    def load_state(self, arrays):
        state = self.state_arrays()
        for name, arr in arrays.items():
            if name.endswith((".codebook.C", ".codebook.ema_count",
                              ".codebook.ema_sum")):
                continue  # installed below
            if name not in state:
                raise ValueError(f"unexpected checkpoint entry '{name}'")
            if state[name].shape != arr.shape:
                raise ValueError(f"shape mismatch for '{name}': checkpoint "
                                 f"{arr.shape}, model {state[name].shape}")
            state[name][...] = arr.astype(state[name].dtype)
        missing = [n for n in state
                   if n not in arrays and ".codebook." not in n]
        if missing:
            raise ValueError(f"checkpoint missing entries: {missing}")
        # a codebook left out would be seeded from whatever batch comes
        # next, eval data included, so a checkpoint must carry every one
        dt = get_dtype()
        for i, b in enumerate(self.blocks):
            pre = f"blocks.{i}.attn.codebook"
            if not all(f"{pre}.{n}" in arrays
                       for n in ("C", "ema_count", "ema_sum")):
                raise ValueError(
                    f"checkpoint has no codebook for 'blocks.{i}.attn' "
                    "(saved before the model's first forward?)")
            want = (self.cfg.S, self.cfg.attn.z_dim)
            if arrays[f"{pre}.C"].shape != want:
                raise ValueError(
                    f"codebook shape {arrays[f'{pre}.C'].shape} != {want}")
            b.attn.codebook = Codebook(
                C=arrays[f"{pre}.C"].astype(dt),
                ema_count=arrays[f"{pre}.ema_count"].astype(dt),
                ema_sum=arrays[f"{pre}.ema_sum"].astype(dt))


# ---------------------------------------------------------------------------
# checkpoints: one raw little-endian float32 blob + a JSON manifest sidecar

def save_checkpoint(path, model):
    arrays = model.state_arrays()
    manifest = {"format": "longvq-ckpt", "version": 1, "entries": []}
    off = 0
    with open(path, "wb") as fh:
        for name, arr in arrays.items():
            flat = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(flat.tobytes())
            manifest["entries"].append(
                {"name": name, "shape": list(arr.shape), "offset": off})
            off += flat.size * 4
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(path, model):
    with open(path + ".json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "longvq-ckpt":
        raise ValueError(f"{path}: not a checkpoint manifest")
    size = os.path.getsize(path)
    blob = np.fromfile(path, dtype="<f4")
    arrays = {}
    for ent in manifest["entries"]:
        shape = tuple(ent["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = ent["offset"] // 4
        if ent["offset"] + count * 4 > size:
            raise ValueError(f"{path}: truncated at entry '{ent['name']}'")
        arrays[ent["name"]] = blob[start:start + count].reshape(shape)
    model.load_state(arrays)
    return model
