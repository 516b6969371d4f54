import json
import os
import subprocess
import sys

import numpy as np
import pytest

import longvq
from longvq.attention import AttentionConfig
from longvq.bench import bench_scaling, fit_slope, time_forward
from longvq.cli import _pin_threads, main
from longvq.config import (ConfigError, DEFAULTS, apply_sets, build_run,
                           load_run_config)
from longvq.factored import attn_row_entropy
from longvq.model import Model, ModelConfig
from longvq.rng import Rng
from longvq.tasks import TaskSpec
from longvq.tensor import Tensor, precision
from longvq.train import TrainConfig


@pytest.fixture(autouse=True)
def _float64():
    # main() switches the global precision; keep it scoped per test
    with precision("float64"):
        yield


TINY = ["--set", "task.L=16", "--set", "task.vocab=8",
        "--set", "model.depth=1", "--set", "model.d_model=8",
        "--set", "model.S=4", "--set", "model.n_state=4",
        "--set", "attn.z_dim=4", "--set", "attn.v_dim=8",
        "--set", "attn.window=2", "--set", "train.total_steps=6",
        "--set", "train.warmup_steps=2", "--set", "train.batch_size=8",
        "--set", "train.eval_every=3", "--set", "train.eval_batches=2"]


# ---------------------------------------------------------------------------
# config file handling

def test_defaults_round_trip(tmp_path):
    cfg = load_run_config(None)
    assert cfg == DEFAULTS and cfg is not DEFAULTS
    p = tmp_path / "c.ini"
    p.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for section, kv in cfg.items()))
    again = load_run_config(str(p))
    assert again == cfg


def test_ini_parse_and_coercion(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nlr = 0.01\ntotal_steps = 42\n"
                 "[task]\nlm = true\n")
    cfg = load_run_config(str(p))
    assert cfg["train"]["lr"] == 0.01
    assert cfg["train"]["total_steps"] == 42
    assert cfg["task"]["lm"] is True


def test_unknown_key_and_section_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nlrr = 0.01\n")
    with pytest.raises(ConfigError, match="train.lrr"):
        load_run_config(str(p))
    p.write_text("[optimizer]\nlr = 0.01\n")
    with pytest.raises(ConfigError, match="optimizer"):
        load_run_config(str(p))


def test_bad_value_types(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\ntotal_steps = soon\n")
    with pytest.raises(ConfigError, match="train.total_steps"):
        load_run_config(str(p))
    p.write_text("[task]\nlm = perhaps\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_run_config(str(p))


def test_set_overrides():
    cfg = load_run_config(None)
    apply_sets(cfg, ["train.lr=0.5", "model.depth=3", "attn.causal=false"])
    assert cfg["train"]["lr"] == 0.5
    assert cfg["model"]["depth"] == 3
    assert cfg["attn"]["causal"] is False
    with pytest.raises(ConfigError, match="model.dept"):
        apply_sets(cfg, ["model.dept=3"])
    with pytest.raises(ConfigError, match="section.key"):
        apply_sets(cfg, ["depth=3"])


def test_build_run_task_drives_interface():
    cfg = load_run_config(None)
    apply_sets(cfg, ["task.vocab=12"])
    task, mc, tc, impl = build_run(cfg, seed=99)
    assert mc.vocab == 12 and mc.n_out == 12
    assert mc.head == "mean_pool_classify"
    assert tc.seed == 99 and task.spec.seed == 99
    assert impl == "factored"


def test_build_run_bad_impl():
    cfg = load_run_config(None)
    cfg["model"]["impl"] = "sparse"
    with pytest.raises(ConfigError, match="model.impl"):
        build_run(cfg)


def test_default_run_equals_dataclass_defaults():
    # the INI defaults and the dataclass defaults are one declaration
    task, mc, tc, impl = build_run(load_run_config(None))
    assert task.spec == TaskSpec()
    assert mc.attn == AttentionConfig()
    assert tc == TrainConfig()
    assert mc == ModelConfig(attn=AttentionConfig(), **task.model_kwargs())
    assert impl == "factored"


@pytest.mark.parametrize("key,value", [("train.schedule", "linear"),
                                       ("task.test_size", "5"),
                                       ("model.norm_kind", "layer"),
                                       ("model.pre_norm", "false"),
                                       ("model.dropout", "0.0")])
def test_removed_keys_rejected(key, value, tmp_path):
    # an older INI file naming a removed key fails loudly
    with pytest.raises(ConfigError, match=key):
        apply_sets(load_run_config(None), [f"{key}={value}"])
    section, name = key.split(".")
    p = tmp_path / "old.ini"
    p.write_text(f"[{section}]\n{name} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_run_config(str(p))


@pytest.mark.parametrize("text,message", [
    (b"[task]\nL = 16\nL = 32\n", "line 3: duplicate key 'task.L'"),
    (b"[task]\nL = 16\n[train]\nlr = 0.1\n[task]\nlm = true\n",
     "line 5: duplicate section 'task'"),
    (b"L = 16\n[task]\n", "line 1: a key before the first [section] header"),
    (b"[task]\nL = 16\njust words\n",
     "line 3: expected [section] or key = value"),
    (b"[task]\nL = 16\nname = \xff\xfe\n", "line 3: not UTF-8 text"),
], ids=["duplicate-key", "duplicate-section", "no-header", "no-equals",
        "not-utf8"])
def test_malformed_config_file_exits_2_naming_file_and_line(
        text, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.ini").write_bytes(text)
    rc = main(["train", "--config", "f.ini", "--out", "x"])
    assert rc == 2
    assert f"config error: f.ini: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_values_are_literal(tmp_path):
    # a '%' is not interpolation syntax: the value reaches the key's check
    p = tmp_path / "c.ini"
    p.write_text("[task]\nname = 50%\n")
    assert load_run_config(str(p))["task"]["name"] == "50%"


# ---------------------------------------------------------------------------
# commands, in process

def test_train_writes_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train", *TINY, "--seed", "5", "--out", "run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("train: steps=6")
    recs = [json.loads(l) for l in open("run/metrics.jsonl")]
    steps = [r["step"] for r in recs if r.get("split") == "train"]
    assert steps == sorted(steps) and len(steps) == 6
    rep = json.load(open("run/report.json"))
    assert rep["schema"] == "longvq-report-v1"
    assert rep["command"] == "train"
    assert os.path.exists("run/checkpoint.npz")
    assert not os.path.exists("run/checkpoint.npz.npz")


def test_train_report_counts_skipped_steps(tmp_path, monkeypatch, capsys):
    import longvq.train as train_mod
    real, calls = train_mod.grad, []

    def grad_nan_on_third(loss, params):
        calls.append(1)
        gs = real(loss, params)
        return [g * np.nan for g in gs] if len(calls) == 3 else gs

    monkeypatch.setattr(train_mod, "grad", grad_nan_on_third)
    monkeypatch.chdir(tmp_path)
    assert main(["train", *TINY, "--out", "run"]) == 0
    rep = json.load(open("run/report.json"))
    assert rep["skipped_steps"] == 1
    recs = [json.loads(l) for l in open("run/metrics.jsonl")]
    assert [r["step"] for r in recs if "event" in r] == [3]


def test_train_report_param_count_is_the_models(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = {}
    for on in ("true", "false"):
        sets = [*TINY, "--set", f"model.ssm_enabled={on}"]
        assert main(["train", *sets, "--out", on]) == 0
        counts[on] = json.load(open(f"{on}/report.json"))["param_count"]
        cfg = apply_sets(load_run_config(None), sets[1::2])
        _, mcfg, _, _ = build_run(cfg)
        model = Model(mcfg, Rng(0, "model"))
        assert counts[on] == sum(p.data.size for p in model.params())
    # the SSM bank adds C_out (d, N), log_dt (d,) and D_skip (d,) per layer
    d, n = mcfg.d_model, mcfg.n_state
    assert counts["true"] - counts["false"] == mcfg.depth * (d * n + 2 * d)


def test_train_determinism_modulo_wallclock(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["train", *TINY, "--seed", "3", "--out", "a"]) == 0
    assert main(["train", *TINY, "--seed", "3", "--out", "b"]) == 0

    def strip(path):
        out = []
        for line in open(path):
            r = json.loads(line)
            r.pop("wallclock_ms", None)
            out.append(json.dumps(r, sort_keys=True))
        return out

    assert strip("a/metrics.jsonl") == strip("b/metrics.jsonl")


def test_invalid_attn_fn_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train", "--set", "attn.attn_fn=sandwich", "--out", "x"])
    assert rc == 2
    assert "config error: attn_fn" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("model.S", "0"), ("model.S", "-3"),
                                       ("model.d_model", "0"),
                                       ("model.n_state", "0"),
                                       ("train.batch_size", "0")])
def test_nonpositive_size_exits_2_naming_it(key, value, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train", *TINY, "--set", f"{key}={value}", "--out", "x"])
    assert rc == 2
    name = key.split(".")[1]
    assert f"config error: {name} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("train.eval_batches", "0", "eval_batches must be >= 1"),
    ("train.eval_batches", "-1", "eval_batches must be >= 1"),
    ("task.L", "0", "task.L must be even and >= 8"),
    ("task.L", "9", "task.L must be even and >= 8"),
    ("task.vocab", "2", "task.vocab must be >= 4"),
    ("attn.z_dim", "0", "z_dim must be >= 1"),
    ("attn.v_dim", "0", "v_dim must be >= 1"),
    ("attn.window", "-1", "window must be >= 0"),
    ("train.lr", "nan", "lr must be finite and > 0, got nan"),
    ("train.lr", "inf", "lr must be finite and > 0, got inf"),
    ("train.gamma", "inf", "gamma must be finite and >= 0, got inf"),
    ("train.gamma", "nan", "gamma must be finite and >= 0, got nan"),
    ("train.grad_clip", "nan", "grad_clip must be finite and > 0, got nan"),
    ("train.grad_clip", "inf", "grad_clip must be finite and > 0, got inf"),
    ("train.beta1", "1.0", "beta1 must be in [0, 1), got 1.0"),
    ("train.beta1", "-0.1", "beta1 must be in [0, 1), got -0.1"),
    ("train.beta2", "1.5", "beta2 must be in [0, 1), got 1.5"),
    ("train.beta2", "nan", "beta2 must be in [0, 1), got nan"),
    ("train.weight_decay", "-1",
     "weight_decay must be finite and >= 0, got -1.0"),
    ("train.weight_decay", "inf",
     "weight_decay must be finite and >= 0, got inf"),
    ("task.channels", "2", "task.channels must be 1 or 3, got 2"),
    ("task.channels", "0", "task.channels must be 1 or 3, got 0"),
    ("train.total_steps", "0", "total_steps must be >= 1"),
    ("train.total_steps", "-3", "total_steps must be >= 1"),
    ("train.warmup_steps", "-10", "warmup_steps must be >= 0, got -10"),
    ("train.eval_every", "-1", "eval_every must be >= 0, got -1"),
    ("task.train_size", "-5", "task.train_size must be >= 1, got -5"),
    ("task.train_size", "0", "task.train_size must be >= 1, got 0"),
    # the pixels task reads no L: its sequences are always 1024 steps
    *(pytest.param(("task.name=pixels", "task.L"), v,
                   f"task.L must be 1024 for the pixels task, got {v}",
                   id=f"pixels-task.L-{v}") for v in ("256", "2048")),
    # a key only the chars task reads: the case sets the task first
    *(pytest.param(("task.name=chars", "task.vocab"), v,
                   f"task.vocab must be >= 2, got {v}",
                   id=f"chars-task.vocab-{v}") for v in ("1", "0", "-3")),
    # refused before any corpus is read: the case names no task.path
    *(pytest.param(("task.name=chars", "task.L"), v,
                   f"task.L must be >= 1, got {v}",
                   id=f"chars-task.L-{v}") for v in ("0", "-3")),
])
def test_bad_value_exits_2_naming_its_key(key, value, message, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    *pre, key = (key,) if isinstance(key, str) else key
    pre = [arg for item in pre for arg in ("--set", item)]
    rc = main(["train", *TINY, *pre, "--set", f"{key}={value}", "--out",
               "x"])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_unknown_key_exits_2_naming_field(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train", "--set", "model.norn_kind=layer", "--out", "x"])
    assert rc == 2
    assert "model.norn_kind" in capsys.readouterr().err


def test_unknown_task_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train", "--set", "task.name=sudoku", "--out", "x"])
    assert rc == 2
    assert "config error: unknown task 'sudoku'" in capsys.readouterr().err


def test_truncated_pixel_file_exits_1(tmp_path, monkeypatch, capsys):
    # a data fault found while loading is a run error, not a config error
    from longvq.tasks import RECORD, TEST_FILE, TRAIN_FILES
    monkeypatch.chdir(tmp_path)
    for name in TRAIN_FILES + [TEST_FILE]:
        (tmp_path / name).write_bytes(bytes(2 * RECORD))
    (tmp_path / "data_batch_2.bin").write_bytes(bytes(1000))
    rc = main(["train", "--set", "task.name=pixels", "--set", "task.L=1024",
               "--set", f"task.path={tmp_path}", "--out", "x"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "data_batch_2.bin" in err


def test_eval_roundtrip_from_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", *TINY, "--seed", "2", "--out", "tr"]) == 0
    capsys.readouterr()
    rc = main(["eval", *TINY[:18], "--seed", "2",
               "--checkpoint", "tr/checkpoint.npz", "--out", "ev"])
    assert rc == 0
    rep = json.load(open("ev/report.json"))
    assert rep["command"] == "eval" and rep["examples"] > 0
    assert np.isfinite(rep["ce"]) and 0.0 <= rep["acc"] <= 1.0
    assert len(rep["codebook_perplexity"]) == len(rep["attn_entropy"]) == 1
    assert 0.0 <= rep["attn_entropy"][0] <= 1.0


def test_train_and_eval_reports_carry_the_environment(tmp_path, monkeypatch,
                                                      capsys):
    import platform
    import scipy
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert main(["train", *TINY, "--seed", "4", "--out", "tr"]) == 0
    assert main(["eval", *TINY[:18], "--seed", "4",
                 "--checkpoint", "tr/checkpoint.npz", "--out", "ev"]) == 0
    for out in ("tr", "ev"):
        env = json.load(open(f"{out}/report.json"))["env"]
        assert env == {"python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__,
                       "blas_threads": "1", "precision": "float64",
                       "nproc": os.cpu_count(), "cpu": env["cpu"]}
        assert isinstance(env["cpu"], str) and env["cpu"]


def test_eval_missing_checkpoint_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["eval", *TINY[:18], "--checkpoint", "nope.npz",
               "--out", "ev"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_train_then_eval_restores_the_state_bitwise(tmp_path, monkeypatch):
    import longvq.cli as cli
    monkeypatch.chdir(tmp_path)
    seen = {}
    real_save, real_evaluate = cli.save_checkpoint, cli.evaluate

    def save(path, model):
        seen["trained"] = {k: v.copy()
                           for k, v in model.state_arrays().items()}
        return real_save(path, model)

    def evaluate(model, batches, gamma):
        seen["restored"] = model.state_arrays()
        return real_evaluate(model, batches, gamma)

    monkeypatch.setattr(cli, "save_checkpoint", save)
    monkeypatch.setattr(cli, "evaluate", evaluate)
    assert main(["train", *TINY, "--seed", "3", "--out", "tr"]) == 0
    assert main(["eval", *TINY, "--seed", "3",
                 "--checkpoint", "tr/checkpoint.npz", "--out", "ev"]) == 0
    trained, restored = seen["trained"], seen["restored"]
    assert list(restored) == list(trained)
    for name, arr in trained.items():
        assert arr.dtype == restored[name].dtype == np.float64, name
        np.testing.assert_array_equal(restored[name], arr, err_msg=name)


@pytest.mark.parametrize("damage", ["truncated", "byte_flipped", "bare_npy",
                                    "old_f32"])
def test_eval_refuses_a_damaged_checkpoint_naming_it(damage, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", *TINY, "--seed", "1", "--out", "tr"]) == 0
    raw = open("tr/checkpoint.npz", "rb").read()
    with np.load("tr/checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    path = f"bad-{damage}.npz"
    with open(path, "wb") as fh:
        if damage == "truncated":
            fh.write(raw[:len(raw) // 2])
        elif damage == "byte_flipped":
            # a byte of array data, which only the zip's CRC-32 covers
            at = raw.index(arrays["embed.table"].tobytes()) + 3
            fh.write(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
        elif damage == "bare_npy":
            np.save(fh, arrays["embed.table"])
        else:   # the float32 blob of the format before .npz
            fh.write(np.concatenate([a.ravel() for a in arrays.values()])
                     .astype("<f4").tobytes())
    capsys.readouterr()
    rc = main(["eval", *TINY[:18], "--checkpoint", path, "--out", "ev"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a readable checkpoint"), err


def test_gradcheck_clean_run_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["gradcheck", "--out", "gc"])
    assert rc == 0
    assert "gradcheck: PASS" in capsys.readouterr().out
    rep = json.load(open("gc/report.json"))
    assert rep["passed"] is True
    assert rep["fault"] is None and rep["fault_nodes"] == 0
    assert not {"skipped", "tries", "margin"} & rep.keys()


def test_gradcheck_fault_injection_detected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the dense oracle is one node; a fault in its backward corrupts
    # every attention gradient the check compares
    rc = main(["gradcheck", "--inject-fault", "attn_dense", "--out", "gc"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    rep = json.load(open("gc/report.json"))
    assert rep["passed"] is False and rep["fault"] == "attn_dense"
    assert rep["fault_nodes"] == 1      # one per layer, depth 1
    assert rep["worst"][1] > rep["tol"]
    # every parameter appears in the table
    assert len(rep["params"]) > 10


def test_gradcheck_fault_on_linear_detected(tmp_path, monkeypatch, capsys):
    # every projection is a linear node, so a fault there must show
    monkeypatch.chdir(tmp_path)
    rc = main(["gradcheck", "--inject-fault", "linear", "--out", "gc"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    rep = json.load(open("gc/report.json"))
    assert rep["passed"] is False and rep["fault_nodes"] > 0


def test_gradcheck_fault_on_ssm_scan_detected(tmp_path, monkeypatch, capsys):
    # the whole SSM branch is one scan node; a fault in its backward must
    # show in the model-level check
    monkeypatch.chdir(tmp_path)
    rc = main(["gradcheck", "--inject-fault", "ssm_scan", "--out", "gc"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    rep = json.load(open("gc/report.json"))
    assert rep["passed"] is False and rep["fault_nodes"] > 0


def test_gradcheck_fault_on_unknown_op_exits_2(tmp_path, monkeypatch,
                                               capsys):
    # a misspelt op, or one the tape no longer holds (the oracle's
    # product is inside attn_dense), wraps no node; the check must not
    # report a pass
    monkeypatch.chdir(tmp_path)
    for op in ("matmull", "matmul"):
        rc = main(["gradcheck", "--inject-fault", op, "--out", "gc"])
        assert rc == 2
        out = capsys.readouterr()
        assert "PASS" not in out.out
        assert f"'{op}' wrapped no tape node" in out.err
        assert json.load(open("gc/report.json"))["fault_nodes"] == 0


def test_kernel_dump_shapes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["kernel-dump", *TINY[:18], "--set", "model.depth=2",
               "--length", "24", "--out", "kd"])
    assert rc == 0
    with np.load("kd/kernels.npz") as z:
        assert set(z.files) == {"layer0", "layer1"}
        assert z["layer0"].shape == (8, 24)
    rep = json.load(open("kd/report.json"))
    assert rep["ssm_layers"] == 2 and rep["L"] == 24

    # from a checkpoint, each layer's codebook lands in the same npz
    # under its checkpoint name, equal to the stored arrays
    assert main(["train", *TINY, "--set", "model.depth=2", "--out", "tr"]) == 0
    rc = main(["kernel-dump", *TINY[:18], "--set", "model.depth=2",
               "--checkpoint", "tr/checkpoint.npz", "--out", "kc"])
    assert rc == 0
    with np.load("tr/checkpoint.npz", allow_pickle=False) as z:
        stored = {k: z[k] for k in z.files}
    names = {f"blocks.{i}.attn.codebook.{a}" for i in (0, 1)
             for a in ("C", "ema_count", "ema_sum")}
    with np.load("kc/kernels.npz") as z:
        assert set(z.files) == {"layer0", "layer1"} | names
        for name in names:
            np.testing.assert_array_equal(z[name], stored[name])
        assert z["blocks.1.attn.codebook.C"].shape == (4, 4)


def test_bench_command_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["bench-scaling", "--lengths", "128,256", "--reps", "1",
               "--S", "16", "--w", "4", "--d", "8", "--out", "bn"])
    assert rc == 0
    rep = json.load(open("bn/report.json"))
    assert set(rep["modes"]) == {"dense", "vq"}
    assert "slope" in rep["modes"]["vq"]
    assert set(rep["dense_over_vq"]) == {"128", "256"}
    assert "bench-scaling:" in capsys.readouterr().out


@pytest.mark.parametrize("command,flag,bad,ok", [
    ("diag-entropy", "--batches", "0", "1"),
    ("kernel-dump", "--length", "0", "1"),
    ("kernel-dump", "--length", "-5", "1"),
    ("bench-scaling", "--reps", "0", "1"),
    ("bench-scaling", "--S", "0", "1"),
    ("bench-scaling", "--d", "0", "1"),
    ("bench-scaling", "--w", "-1", "0"),
    ("bench-scaling", "--lengths", "0,128", "1,128"),
    ("bench-scaling", "--lengths", "64", "64,128"),
    ("bench-scaling", "--lengths", "64,64", "64,65"),
    ("bench-scaling", "--lengths", "64,64,128", "64,65,128"),
])
def test_numeric_flag_out_of_range_exits_2_naming_it(command, flag, bad, ok,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    from longvq.cli import build_parser
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, flag, bad, "--out", "x"])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not os.path.exists("x")        # refused before any work
    build_parser().parse_args([command, flag, ok])   # the bound itself runs


# ---------------------------------------------------------------------------
# bench internals

def test_fit_slope_recovers_exponent():
    Ls = [512, 1024, 2048, 4096]
    assert fit_slope(Ls, [1e-8 * L ** 2 for L in Ls]) == pytest.approx(2.0)
    assert fit_slope(Ls, [3e-7 * L for L in Ls]) == pytest.approx(1.0)


def test_time_forward_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        time_forward("quantum", {"cfg": None})


def test_bench_scaling_structure():
    rep = bench_scaling([64, 128], reps=1, S=8, w=2, d=4, seed=1)
    assert rep["schema"] == "longvq-bench-v1"
    assert rep["params"]["Ls"] == [64, 128]
    for mode in ("dense", "vq"):
        assert set(rep["modes"][mode]["times_s"]) == {"64", "128"}
        assert all(t > 0 for t in rep["modes"][mode]["times_s"].values())


def test_bench_scaling_reports_spread():
    rep = bench_scaling([64, 128], reps=3, S=8, w=2, d=4, seed=1)
    for mode in ("dense", "vq"):
        m = rep["modes"][mode]
        for L in ("64", "128"):
            assert 0 < m["min_s"][L] <= m["times_s"][L] <= m["max_s"][L]


# ---------------------------------------------------------------------------
# entropy diagnostic

def _probe_layer(window, causal, bias_val=None):
    from longvq.attention import AttentionConfig, LongVQLayer
    cfg = AttentionConfig(attn_fn="softmax", window=window, causal=causal,
                          z_dim=4, v_dim=8)
    layer = LongVQLayer(8, cfg, 4, Rng(0, "probe"))
    for p in layer.proj["q"]:
        p.data[:] = 0.0
    if bias_val is not None:
        layer.local_bias.data[:] = -bias_val
        layer.local_bias.data[window] = bias_val
    x = Rng(1, "x").normal((2, 12, 8))
    _, aux = layer(Tensor(x))
    return layer, aux


def _element_means(layer, aux):
    ent = attn_row_entropy(aux["Q"], aux["z"], layer.local_bias.data,
                           layer.codebook.C, layer.cfg)
    return ent.mean(axis=1)


def test_diag_entropy_uniform_rows_are_one():
    # zero Q and zero bias: every visible key gets equal weight
    layer, aux = _probe_layer(window=3, causal=False)
    vals = _element_means(layer, aux)
    for v in vals:
        assert v == pytest.approx(1.0, abs=1e-12)


def test_diag_entropy_peaked_rows_near_zero():
    # +/- large self bias forces one-hot attention rows
    layer, aux = _probe_layer(window=3, causal=False, bias_val=40.0)
    vals = _element_means(layer, aux)
    for v in vals:
        assert v < 0.05


def test_diag_entropy_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["diag-entropy", *TINY[:18], "--batches", "2", "--out", "de"])
    assert rc == 0
    rep = json.load(open("de/report.json"))
    assert rep["batches"] == 2
    assert len(rep["layers"]) == 1
    m = rep["layers"][0]["mean_normalized_entropy"]
    # fresh init with zero bias sits at the uniform ceiling
    assert 0.9 < m <= 1.0 + 1e-9
    assert len(rep["per_batch"]) == 2


# ---------------------------------------------------------------------------
# thread pinning

def test_pin_threads_respects_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("LONGVQ_THREADS", "2")
    _pin_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "2"


def test_pin_threads_defaults_to_one_for_bench(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv("LONGVQ_THREADS", raising=False)
    monkeypatch.setattr(sys, "argv", ["longvq", "bench-scaling"])
    _pin_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_thread_count_exits_2_naming_it(value, tmp_path, monkeypatch):
    # none of these values starts a thread: the pin refuses each and sets
    # no BLAS variable, and the command stops before it writes anything
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("LONGVQ_THREADS", value)
    assert _pin_threads() == (f"LONGVQ_THREADS must be a positive integer, "
                              f"got {value!r}")
    assert not any(var in os.environ for var in blas)
    src = os.path.dirname(os.path.dirname(os.path.abspath(longvq.__file__)))
    out = tmp_path / "bench"
    res = subprocess.run(
        [sys.executable, "-m", "longvq.cli", "bench-scaling", "--lengths",
         "64,128", "--reps", "1", "--S", "8", "--w", "2", "--d", "4",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert res.returncode == 2, res.stderr
    assert "error: LONGVQ_THREADS must be a positive integer" in res.stderr
    assert not out.exists()


def test_package_import_leaves_numpy_unloaded():
    # python -m longvq.cli imports the package before cli._pin_threads
    # runs; a numpy import there would load BLAS with every core
    code = "import sys, longvq; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("command,attn_fn,loaded", [
    ("train", "softmax", []), ("train", "laplace", ["scipy.special"]),
    ("kernel-dump", "softmax", [])],
    ids=["softmax-loaded0", "laplace-loaded1", "kernel-dump-loaded2"])
def test_training_step_loads_only_the_scipy_it_uses(command, attn_fn, loaded,
                                                    tmp_path):
    # the SSM branch and its kernels need no FFT and only the Laplace map
    # needs erf, so a softmax run or a kernel dump never imports scipy.fft
    # or scipy.special
    keep = [v for v in TINY[1::2] if not v.startswith(
        ("train.total_steps=", "train.warmup_steps="))]
    sets = [a for v in keep + ["train.total_steps=1", "train.warmup_steps=1",
                               f"attn.attn_fn={attn_fn}"]
            for a in ("--set", v)]
    code = ("import sys; from longvq.cli import main; "
            f"rc = main([{command!r}, *{sets!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, [m for m in ('scipy.fft', 'scipy.special') "
            "if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(longvq.__file__)))
    res = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src,
                              "LONGVQ_THREADS": "1"},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == f"0 {loaded}"
    if command == "kernel-dump":
        with np.load(tmp_path / "kernels.npz") as z:
            assert np.all(np.isfinite(z["layer0"]))
        return
    train = [r for r in map(json.loads, open(tmp_path / "metrics.jsonl"))
             if r["split"] == "train"]
    assert [r["step"] for r in train] == [1]
    assert np.isfinite(train[0]["loss"])
