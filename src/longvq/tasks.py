"""Desk-scale tasks: synthetic recall, pixel sequences, byte-level LM.

Each task draws training batches with ``sample(split, batch_size, rng)``
and yields its evaluation set with ``eval_batches(split, batch_size)``.
The reduction task builds key-value sequences with a marker and a final
query key; the query's pair occurs exactly once, so the label is
unambiguous. Within a sequence a key is bound to a single value, so
repeated keys carry their value with them; its evaluation set is 16
batches from a fixed per-split stream. Pixel sequences come from the
standard CIFAR-10 binary batches, 1024 steps of 3 channels (or 1
luminance channel). The character corpus is byte-level with a contiguous
90/5/5 split. The pixel and character tasks evaluate on the whole split,
in order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = ["TaskSpec", "build_task", "ReductionHeadTask",
           "load_pixel_sequences", "find_pixel_data", "PixelTask",
           "load_char_corpus", "CharTask"]

TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
TEST_FILE = "test_batch.bin"
RECORD = 3073          # 1 label byte + 1024 R + 1024 G + 1024 B
_CLASSES = 10
# batches in the reduction task's evaluation set
_EVAL_BATCHES = 16


@dataclass
class TaskSpec:
    name: str = "reduction"    # reduction | pixels | chars
    L: int = 256
    vocab: int = 16            # generated / lm token space
    channels: int = 3          # pixel channels; 1 selects luminance
    train_size: int = 10000
    seed: int = 0
    path: str = ""
    lm: bool = False           # reduction: next-token targets, answer last

    def __post_init__(self):
        if self.name not in _TASKS:
            raise ValueError(f"unknown task '{self.name}' (expected one of "
                             f"{', '.join(_TASKS)})")
        if self.channels not in (1, 3):
            raise ValueError(f"task.channels must be 1 or 3, got "
                             f"{self.channels}")
        if self.train_size < 1:
            raise ValueError(f"task.train_size must be >= 1, got "
                             f"{self.train_size}")
        if self.name == "reduction":
            _check_reduction_dims(self.L, self.vocab)
        elif self.name == "chars":
            if self.vocab < 2:
                raise ValueError(f"task.vocab must be >= 2, got {self.vocab}")
            if self.L < 1:
                raise ValueError(f"task.L must be >= 1, got {self.L}")
        elif self.name == "pixels" and self.L != 1024:
            # PixelTask yields one step per CIFAR-10 pixel and reads no L
            raise ValueError(f"task.L must be 1024 for the pixels task, "
                             f"got {self.L}")


def build_task(spec: TaskSpec):
    return _TASKS[spec.name](spec)


# ---------------------------------------------------------------------------
# reduction head

def _check_reduction_dims(L, vocab):
    """A reduction sequence needs a key, a value and a marker symbol, and
    an even length with room for a few pairs."""
    if vocab < 4:
        raise ValueError(f"task.vocab must be >= 4, got {vocab}")
    if L < 8 or L % 2:
        raise ValueError(f"task.L must be even and >= 8, got {L}")


def _reduction_batch(L, vocab, bs, rng):
    """bs sequences [k v k v ... MARK k_query]; label is the queried
    value."""
    nk = (vocab - 1) // 2
    marker = vocab - 1
    m = (L - 2) // 2
    q = rng.integers(0, nk, (bs,))
    qpos = rng.integers(0, m, (bs,))
    if nk >= 2:
        keys = rng.integers(0, nk - 1, (bs, m))
        keys += (keys >= q[:, None]).astype(keys.dtype)   # distractors != q
    else:
        keys = np.zeros((bs, m), dtype=np.int64)
    # each key is bound to one value for the whole sequence, so every
    # reappearance of a key is itself a recall target, not just the query
    vmap = rng.integers(0, nk, (bs, nk)) + nk
    rows = np.arange(bs)
    keys[rows, qpos] = q
    vals = np.take_along_axis(vmap, keys, axis=1)
    labels = vmap[rows, q]
    seq = np.empty((bs, L), dtype=np.int64)
    seq[:, 0:2 * m:2] = keys
    seq[:, 1:2 * m:2] = vals
    seq[:, L - 2] = marker
    seq[:, L - 1] = q
    return seq, labels


class ReductionHeadTask:
    """Classification by default; spec.lm switches to next-token targets
    where the sequence continues with the answer, so the last position
    is the query-token prediction."""

    def __init__(self, spec: TaskSpec):
        self.spec = spec

    def model_kwargs(self):
        head = "per_position_lm" if self.spec.lm else "mean_pool_classify"
        return {"vocab": self.spec.vocab, "n_out": self.spec.vocab,
                "head": head}

    def sample(self, split, batch_size, rng):
        X, lab = _reduction_batch(self.spec.L, self.spec.vocab, batch_size,
                                  rng)
        if not self.spec.lm:
            return X, lab
        Y = np.empty_like(X)
        Y[:, :-1] = X[:, 1:]
        Y[:, -1] = lab
        return X, Y

    def eval_batches(self, split, batch_size):
        """_EVAL_BATCHES sampled batches from a fixed per-split stream."""
        rng = Rng(self.spec.seed, f"reduction-eval-{split}")
        for _ in range(_EVAL_BATCHES):
            yield self.sample(split, batch_size, rng)


# ---------------------------------------------------------------------------
# pixel sequences

def find_pixel_data():
    """CIFAR-10 binary directory from $LONGVQ_CIFAR_DIR or ./data."""
    for cand in (os.environ.get("LONGVQ_CIFAR_DIR"),
                 os.path.join("data", "cifar-10-batches-bin")):
        if cand and os.path.isfile(os.path.join(cand, TRAIN_FILES[0])):
            return cand
    return None


def _read_batch_file(path):
    """One binary batch file; its record count comes from its size."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing batch file: {path}")
    raw = np.fromfile(path, dtype=np.uint8)
    n, rest = divmod(raw.size, RECORD)
    if n == 0 or rest:
        raise ValueError(f"{path}: expected a positive multiple of {RECORD} "
                         f"bytes, got {raw.size}")
    rec = raw.reshape(n, RECORD)
    labels = rec[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels >= _CLASSES)
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]} has label byte "
                         f"{labels[bad[0]]}, outside [0, {_CLASSES})")
    # channel-planar layout -> (N, 1024, 3) with channels last
    pixels = rec[:, 1:].reshape(n, 3, 1024).transpose(0, 2, 1)
    return pixels, labels


def load_pixel_sequences(path):
    """All six CIFAR-10 batches as length-1024 uint8 sequences.

    Returns dict with train/val/test arrays; validation is a withheld
    10% of the training set under a fixed permutation.
    """
    xs, ys = [], []
    for name in TRAIN_FILES:
        x, y = _read_batch_file(os.path.join(path, name))
        xs.append(x)
        ys.append(y)
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    tx, ty = _read_batch_file(os.path.join(path, TEST_FILE))
    perm = Rng(0, "pixel-split").permutation(X.shape[0])
    n_val = X.shape[0] // 10
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    return {"train_x": X[tr_idx], "train_y": Y[tr_idx],
            "val_x": X[val_idx], "val_y": Y[val_idx],
            "test_x": tx, "test_y": ty}


def to_float_pixels(x_uint8, grayscale):
    x = x_uint8.astype(np.float64) / 255.0
    if grayscale:
        lum = x @ np.array([0.299, 0.587, 0.114])
        return lum[..., None]
    return x


class PixelTask:
    def __init__(self, spec: TaskSpec, data=None):
        self.spec = spec
        if data is None:
            path = spec.path or find_pixel_data()
            if path is None:
                raise FileNotFoundError(
                    "CIFAR-10 binaries not found; set LONGVQ_CIFAR_DIR or "
                    "place them under data/cifar-10-batches-bin")
            data = load_pixel_sequences(path)
        self.data = data
        n = min(spec.train_size, data["train_x"].shape[0])
        self.train_x = data["train_x"][:n]
        self.train_y = data["train_y"][:n]

    def model_kwargs(self):
        return {"in_dim": self.spec.channels, "n_out": _CLASSES,
                "head": "mean_pool_classify"}

    def _arrays(self, split):
        if split == "train":
            return self.train_x, self.train_y
        return self.data[f"{split}_x"], self.data[f"{split}_y"]

    def sample(self, split, batch_size, rng):
        x, y = self._arrays(split)
        idx = rng.integers(0, x.shape[0], (batch_size,))
        return to_float_pixels(x[idx], self.spec.channels == 1), y[idx]

    def eval_batches(self, split, batch_size):
        """The whole split, in order."""
        x, y = self._arrays(split)
        n = x.shape[0]
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            yield (to_float_pixels(x[lo:hi], self.spec.channels == 1),
                   y[lo:hi])


# ---------------------------------------------------------------------------
# byte-level corpus

def load_char_corpus(path, vocab_cap=256):
    """Byte stream -> ids with an optional frequency-capped vocabulary.

    Contiguous 90/5/5 split. When more distinct bytes occur than
    vocab_cap allows, the rarest map to one unknown id.
    """
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    if data.size == 0:
        raise ValueError(f"{path}: empty corpus")
    counts = np.bincount(data, minlength=256)
    present = np.flatnonzero(counts)
    table = np.zeros(256, dtype=np.int64)
    if present.size > vocab_cap:
        keep = present[np.argsort(counts[present])[::-1][:vocab_cap - 1]]
        keep = np.sort(keep)
        unk = keep.size
        table[:] = unk
        table[keep] = np.arange(keep.size)
        vocab = keep.size + 1
    else:
        table[present] = np.arange(present.size)
        vocab = int(present.size)
    ids = table[data]
    n = ids.size
    a, b = int(n * 0.90), int(n * 0.95)
    spans = {"train": (0, a), "val": (a, b), "test": (b, n)}
    return {"ids": ids, "vocab": vocab, "table": table, "spans": spans}


class CharTask:
    def __init__(self, spec: TaskSpec):
        self.spec = spec
        if not spec.path:
            raise ValueError("chars task needs a corpus path")
        self.corpus = load_char_corpus(spec.path, vocab_cap=spec.vocab)
        self.vocab = self.corpus["vocab"]

    def model_kwargs(self):
        return {"vocab": self.vocab, "n_out": self.vocab,
                "head": "per_position_lm"}

    def _span(self, split):
        lo, hi = self.corpus["spans"][split]
        if hi - lo < self.spec.L + 1:
            raise ValueError(f"split '{split}' shorter than one segment")
        return lo, hi

    def sample(self, split, batch_size, rng):
        lo, hi = self._span(split)
        ids = self.corpus["ids"]
        starts = rng.integers(lo, hi - self.spec.L, (batch_size,))
        win = starts[:, None] + np.arange(self.spec.L + 1)[None, :]
        seg = ids[win]
        return seg[:, :-1], seg[:, 1:]

    def eval_batches(self, split, batch_size):
        """Back-to-back segments over the whole split."""
        lo, hi = self._span(split)
        ids = self.corpus["ids"]
        starts = np.arange(lo, hi - self.spec.L, self.spec.L)
        for base in range(0, starts.size, batch_size):
            sl = starts[base:base + batch_size]
            win = sl[:, None] + np.arange(self.spec.L + 1)[None, :]
            seg = ids[win]
            yield seg[:, :-1], seg[:, 1:]


_TASKS = {"reduction": ReductionHeadTask, "pixels": PixelTask,
          "chars": CharTask}
