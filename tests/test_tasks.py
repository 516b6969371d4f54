import json
import os

import numpy as np
import pytest

from longvq.cli import main
from longvq.rng import Rng
from longvq.tasks import (TaskSpec, build_task, ReductionHeadTask,
                          load_pixel_sequences, PixelTask, to_float_pixels,
                          load_char_corpus, CharTask, RECORD, TRAIN_FILES,
                          TEST_FILE)
from longvq.tensor import precision


# ---------------------------------------------------------------------------
# reduction head

def gen_reduction_head(L, vocab, n, seed):
    """n classification sequences [k v ... MARK k_query] and their labels."""
    task = ReductionHeadTask(TaskSpec(name="reduction", L=L, vocab=vocab))
    return task.sample("train", n, Rng(seed, "reduction"))


def test_reduction_preconditions():
    with pytest.raises(ValueError, match="task.vocab"):
        TaskSpec(name="reduction", L=16, vocab=3)
    with pytest.raises(ValueError, match="task.L must be even"):
        TaskSpec(name="reduction", L=7, vocab=16)
    with pytest.raises(ValueError, match="task.L must be even"):
        TaskSpec(name="reduction", L=9, vocab=16)


def test_reduction_layout_and_alphabets():
    vocab = 16
    nk = (vocab - 1) // 2
    X, y = gen_reduction_head(64, vocab, 200, seed=3)
    assert X.shape == (200, 64) and y.shape == (200,)
    # marker then query in the last two slots
    assert np.all(X[:, -2] == vocab - 1)
    assert np.all((X[:, -1] >= 0) & (X[:, -1] < nk))
    # even slots hold keys, odd slots hold values, alphabets disjoint
    keys = X[:, 0:62:2]
    vals = X[:, 1:62:2]
    assert keys.min() >= 0 and keys.max() < nk
    assert vals.min() >= nk and vals.max() < 2 * nk
    # labels live in the value alphabet
    assert y.min() >= nk and y.max() < 2 * nk


def test_reduction_label_is_unique_and_solvable():
    X, y = gen_reduction_head(32, 16, 500, seed=11)
    nk = (16 - 1) // 2
    for b in range(X.shape[0]):
        q = X[b, -1]
        hits = np.flatnonzero(X[b, 0:30:2] == q)
        # the queried key occurs exactly once, strictly before the marker
        assert hits.size == 1
        assert X[b, 2 * hits[0] + 1] == y[b]


def test_reduction_seed_repeatable():
    a = gen_reduction_head(24, 12, 64, seed=5)
    b = gen_reduction_head(24, 12, 64, seed=5)
    c = gen_reduction_head(24, 12, 64, seed=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_reduction_hand_instance():
    # [k1 v1 k2 v2 k3 v3 MARK kq] -> the value bound to kq
    X, y = gen_reduction_head(8, 16, 50, seed=2)
    for b in range(50):
        pairs = {X[b, 2 * i]: X[b, 2 * i + 1] for i in range(3)}
        assert pairs[X[b, 7]] == y[b]


def test_reduction_keys_bind_one_value_per_sequence():
    # repeated keys keep their value, so every reappearance is retrievable
    X, _ = gen_reduction_head(64, 16, 200, seed=13)
    keys = X[:, 0:62:2]
    vals = X[:, 1:62:2]
    for b in range(200):
        seen = {}
        for k, v in zip(keys[b], vals[b]):
            assert seen.setdefault(int(k), int(v)) == v


def test_reduction_uniform_guess_is_chance():
    # a uniform predictor over the vocab scores ~1/vocab on any labels
    vocab = 16
    _, y = gen_reduction_head(16, vocab, 4000, seed=9)
    guess = Rng(0, "guess").integers(0, vocab, (4000,))
    acc = float(np.mean(guess == y))
    assert abs(acc - 1.0 / vocab) < 0.02


def test_reduction_task_protocol():
    task = build_task(TaskSpec(name="reduction", L=16, vocab=8, seed=1))
    kw = task.model_kwargs()
    assert kw == {"vocab": 8, "n_out": 8, "head": "mean_pool_classify"}
    x1, y1 = task.sample("train", 7, Rng(4, "t"))
    x2, y2 = task.sample("train", 7, Rng(4, "t"))
    assert x1.shape == (7, 16)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    batches = list(task.eval_batches("val", 5))
    assert len(batches) == 16 and batches[0][0].shape == (5, 16)
    again = next(iter(task.eval_batches("val", 5)))
    assert np.array_equal(again[0], batches[0][0])     # a fixed stream


def test_reduction_lm_variant_targets():
    # lm mode: targets shift the input left by one, answer sits last
    task = build_task(TaskSpec(name="reduction", L=16, vocab=8, seed=1,
                               lm=True))
    assert task.model_kwargs() == {"vocab": 8, "n_out": 8,
                                   "head": "per_position_lm"}
    x, y = task.sample("train", 32, Rng(2, "lm"))
    assert y.shape == x.shape == (32, 16)
    assert np.array_equal(y[:, :-1], x[:, 1:])
    # final target equals the value paired with the query key
    base = build_task(TaskSpec(name="reduction", L=16, vocab=8, seed=1))
    xc, lab = base.sample("train", 32, Rng(2, "lm"))
    assert np.array_equal(xc, x) and np.array_equal(y[:, -1], lab)


def test_build_task_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown task"):
        build_task(TaskSpec(name="sudoku"))


# ---------------------------------------------------------------------------
# pixel sequences

def _write_fake_cifar(root, label_base=0, per_file=100):
    # the release holds 10000 records per file; the loader reads any count
    os.makedirs(root, exist_ok=True)
    for fi, name in enumerate(TRAIN_FILES + [TEST_FILE]):
        rec = np.zeros((per_file, RECORD), dtype=np.uint8)
        rec[:, 0] = (np.arange(per_file) + label_base + fi) % 10
        rec[:, 1:1025] = 10 + fi        # R plane
        rec[:, 1025:2049] = 100         # G plane
        rec[:, 2049:] = 200             # B plane
        rec.tofile(os.path.join(root, name))
    return root


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    return _write_fake_cifar(str(tmp_path_factory.mktemp("cifar")))


def test_pixel_loader_shapes_and_split(cifar_dir):
    d = load_pixel_sequences(cifar_dir)
    assert d["train_x"].shape == (450, 1024, 3)
    assert d["val_x"].shape == (50, 1024, 3)
    assert d["test_x"].shape == (100, 1024, 3)
    assert d["train_x"].dtype == np.uint8
    # fixed-seed withhold: two loads agree exactly
    e = load_pixel_sequences(cifar_dir)
    assert np.array_equal(d["val_y"], e["val_y"])
    assert np.array_equal(d["train_y"], e["train_y"])


def test_pixel_channel_planes_land_in_channels(cifar_dir):
    d = load_pixel_sequences(cifar_dir)
    x = d["test_x"]
    # planar R/G/B bytes become the 3 channels at every step
    assert np.all(x[:, :, 0] == 15)   # 10 + file index 5
    assert np.all(x[:, :, 1] == 100)
    assert np.all(x[:, :, 2] == 200)


def test_pixel_scaling_and_grayscale(cifar_dir):
    d = load_pixel_sequences(cifar_dir)
    x = to_float_pixels(d["test_x"][:4], grayscale=False)
    assert x.shape == (4, 1024, 3)
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.allclose(x[0, 0], [15 / 255, 100 / 255, 200 / 255])
    g = to_float_pixels(d["test_x"][:4], grayscale=True)
    want = (0.299 * 15 + 0.587 * 100 + 0.114 * 200) / 255
    assert g.shape == (4, 1024, 1)
    assert np.allclose(g, want)


def test_pixel_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing batch file"):
        load_pixel_sequences(str(tmp_path / "nowhere"))


def test_pixel_loader_short_file(tmp_path):
    root = str(tmp_path / "broken")
    _write_fake_cifar(root)
    with open(os.path.join(root, "data_batch_2.bin"), "wb") as fh:
        fh.write(b"\x00" * 1000)
    with pytest.raises(ValueError, match="expected"):
        load_pixel_sequences(root)


def test_pixel_loader_rejects_label_byte_past_the_classes(tmp_path):
    root = str(tmp_path / "badlabel")
    _write_fake_cifar(root)
    path = os.path.join(root, "data_batch_3.bin")
    raw = np.fromfile(path, dtype=np.uint8).reshape(-1, RECORD)
    raw[[7, 9], 0] = [10, 255]
    raw.tofile(path)
    with pytest.raises(ValueError, match=r"data_batch_3\.bin: record 7 has "
                                         r"label byte 10, outside \[0, 10\)"):
        load_pixel_sequences(root)


def test_pixel_task_subset_and_sampling(cifar_dir):
    spec = TaskSpec(name="pixels", L=1024, channels=3, train_size=300,
                    path=cifar_dir)
    task = build_task(spec)
    assert task.train_x.shape[0] == 300
    assert task.model_kwargs() == {"in_dim": 3, "n_out": 10,
                                   "head": "mean_pool_classify"}
    x, y = task.sample("train", 8, Rng(0, "p"))
    assert x.shape == (8, 1024, 3) and x.dtype == np.float64
    assert y.shape == (8,)
    seen = 0
    for bx, by in task.eval_batches("test", 4096):
        seen += bx.shape[0]
    assert seen == 100


def test_pixel_loader_counts_records_from_file_size(tmp_path):
    root = _write_fake_cifar(str(tmp_path / "tiny"), per_file=8)
    d = load_pixel_sequences(root)
    assert d["train_x"].shape == (36, 1024, 3)
    assert d["val_x"].shape == (4, 1024, 3)
    assert d["test_x"].shape == (8, 1024, 3)
    bad = os.path.join(root, "data_batch_3.bin")
    with open(bad, "ab") as fh:
        fh.write(b"\x00" * 5)        # 5 bytes past the last whole record
    with pytest.raises(ValueError, match="data_batch_3.bin: expected"):
        load_pixel_sequences(root)


def test_pixel_train_and_eval_commands_end_to_end(tmp_path, monkeypatch,
                                                   capsys):
    # a 6 x 8-record CIFAR-format directory through `longvq train` and
    # `longvq eval --checkpoint`, no download needed
    root = _write_fake_cifar(str(tmp_path / "tiny"), per_file=8)
    monkeypatch.chdir(tmp_path)
    sets = []
    for kv in ("task.name=pixels", f"task.path={root}", "task.L=1024",
               "model.depth=1", "model.d_model=8", "model.S=4",
               "model.n_state=4", "attn.z_dim=4", "attn.v_dim=8",
               "attn.window=2", "attn.causal=false", "train.batch_size=4",
               "train.warmup_steps=1", "train.total_steps=2",
               "train.eval_every=2", "train.eval_batches=1"):
        sets += ["--set", kv]
    with precision("float64"):
        assert main(["train", *sets, "--out", "tr"]) == 0
        assert main(["eval", *sets, "--checkpoint", "tr/checkpoint.npz",
                     "--out", "ev"]) == 0
    recs = [json.loads(l) for l in open("tr/metrics.jsonl")]
    assert [r["split"] for r in recs] == ["train", "train", "eval"]
    rep = json.load(open("ev/report.json"))
    assert rep["examples"] == 8            # the whole 8-record test file
    assert np.isfinite(rep["ce"]) and 0.0 <= rep["acc"] <= 1.0
    assert "eval[test]: n=8" in capsys.readouterr().out


def test_eval_batches_cover_the_split(tmp_path):
    red = build_task(TaskSpec(name="reduction", L=16, vocab=8, seed=1))
    assert [len(y) for _, y in red.eval_batches("test", 3)] == [3] * 16
    pix = PixelTask(TaskSpec(name="pixels", L=1024, path=_write_fake_cifar(
        str(tmp_path / "tiny"), per_file=8)))
    p = tmp_path / "c.txt"
    p.write_bytes(bytes(range(7)) * 200)
    char = CharTask(TaskSpec(name="chars", L=10, path=str(p)))
    # the two file-backed tasks cover the whole split in order, the last
    # batch short
    got = list(pix.eval_batches("test", 3))
    assert [len(y) for _, y in got] == [3, 3, 2]
    assert np.array_equal(np.concatenate([y for _, y in got]),
                          pix.data["test_y"])
    sizes = [len(y) for _, y in char.eval_batches("train", 8)]
    assert sum(sizes) == 125 and sizes[-1] == 125 % 8


def test_pixel_task_grayscale_channel(cifar_dir):
    task = PixelTask(TaskSpec(name="pixels", L=1024, channels=1,
                              train_size=50, path=cifar_dir))
    x, _ = task.sample("val", 3, Rng(1, "g"))
    assert x.shape == (3, 1024, 1)


# ---------------------------------------------------------------------------
# byte-level corpus

def test_char_corpus_abab(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"abab")
    c = load_char_corpus(str(p))
    assert c["vocab"] == 2
    assert np.array_equal(c["ids"], [0, 1, 0, 1])
    task = CharTask(TaskSpec(name="chars", L=2, path=str(p)))
    x, y = task.sample("train", 4, Rng(0, "c"))
    # only one full segment fits: [a, b] with next-byte targets [b, a]
    assert np.all(x == [0, 1]) and np.all(y == [1, 0])


def test_char_corpus_empty_errors(tmp_path):
    p = tmp_path / "e.txt"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        load_char_corpus(str(p))


def test_char_corpus_split_proportions(tmp_path):
    p = tmp_path / "k.txt"
    p.write_bytes(bytes(range(10)) * 100)
    c = load_char_corpus(str(p))
    assert c["spans"] == {"train": (0, 900), "val": (900, 950),
                          "test": (950, 1000)}
    assert c["vocab"] == 10


def test_char_corpus_vocab_cap(tmp_path):
    p = tmp_path / "v.txt"
    p.write_bytes(b"a" * 50 + b"b" * 30 + b"c" * 5 + b"d" * 2 + b"e")
    c = load_char_corpus(str(p), vocab_cap=3)
    assert c["vocab"] == 3
    ids = c["ids"]
    # the two dominant bytes keep ids; the rare tail collapses to unk
    assert np.all(ids[:50] == ids[0])
    assert np.all(ids[50:80] == ids[50])
    assert ids[0] != ids[50]
    assert np.all(ids[80:] == 2)


def test_char_task_protocol(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes((b"the quick brown fox jumps over the lazy dog. " * 40))
    task = build_task(TaskSpec(name="chars", L=16, path=str(p)))
    kw = task.model_kwargs()
    assert kw["head"] == "per_position_lm"
    assert kw["vocab"] == task.vocab == kw["n_out"]
    x, y = task.sample("train", 6, Rng(2, "s"))
    assert x.shape == (6, 16) and y.shape == (6, 16)
    # shift-by-one relation holds inside every sampled window
    assert np.array_equal(x[:, 1:], y[:, :-1])
    x2, y2 = task.sample("train", 6, Rng(2, "s"))
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_char_eval_batches_tile_without_overlap(tmp_path):
    p = tmp_path / "w.txt"
    p.write_bytes(bytes(range(7)) * 200)     # 1400 bytes
    task = CharTask(TaskSpec(name="chars", L=10, path=str(p)))
    starts = []
    for x, y in task.eval_batches("train", 8):
        assert np.array_equal(x[:, 1:], y[:, :-1])
        starts.extend(x[:, 0].tolist())
    # segments step by L from the start of the split
    ids = task.corpus["ids"]
    assert starts == [int(ids[s]) for s in range(0, 1260 - 10, 10)]


def test_char_sample_needs_room(tmp_path):
    p = tmp_path / "s.txt"
    p.write_bytes(b"abcdefghij" * 2)     # val span is 1 byte
    task = CharTask(TaskSpec(name="chars", L=4, path=str(p)))
    with pytest.raises(ValueError, match="shorter"):
        task.sample("val", 2, Rng(0, "x"))


# ---------------------------------------------------------------------------
# integration: token task through the training loop

def test_reduction_trains_a_few_steps(tmp_path):
    from longvq.attention import AttentionConfig
    from longvq.model import Model, ModelConfig
    from longvq.train import TrainConfig, train_loop

    task = build_task(TaskSpec(name="reduction", L=8, vocab=8, seed=0))
    acfg = AttentionConfig(attn_fn="softmax", window=2, causal=True,
                           z_dim=4, v_dim=8)
    cfg = ModelConfig(depth=1, d_model=8, attn=acfg, S=4,
                      head="mean_pool_classify", n_out=8, vocab=8,
                      n_state=4)
    model = Model(cfg, Rng(0, "m"))
    tcfg = TrainConfig(total_steps=5, warmup_steps=2, batch_size=4,
                       eval_every=5, eval_batches=1)
    recs = train_loop(model, task, tcfg,
                      metrics_path=str(tmp_path / "m.jsonl"))
    train_recs = [r for r in recs if r.get("split") == "train"]
    assert len(train_recs) == 5
    assert all(np.isfinite(r["loss"]) for r in train_recs)
