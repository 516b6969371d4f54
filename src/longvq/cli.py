"""Command-line entry point.

Commands: train, eval, bench-scaling, diag-entropy, gradcheck,
kernel-dump. Each writes machine-readable output (metrics.jsonl,
report.json) under --out and prints a one-line summary. train also
writes checkpoint.npz, the model's state_arrays() at its own precision;
eval, diag-entropy and kernel-dump restore one with --checkpoint.
gradcheck checks, on one sampled batch, the dense twin of the model
train --seed starts from; --inject-fault OP negates OP's backward on
that check's tape only. Numeric flags are range-checked when parsed.
LONGVQ_THREADS caps BLAS parallelism, and any value but a positive
integer exits 2; bench-scaling pins itself to one thread unless told
otherwise.
"""

from __future__ import annotations

import os
import sys


def _pin_threads():
    """Copy LONGVQ_THREADS into the BLAS thread variables. Returns an
    error message, and pins nothing, when it holds anything but a
    positive integer (empty counts as unset); main() reports it before
    any work."""
    # BLAS libraries read these when they load, so this must run before
    # the first numpy import anywhere in the process.
    n = os.environ.get("LONGVQ_THREADS")
    if n and not (n.isascii() and n.isdigit() and int(n) >= 1):
        return f"LONGVQ_THREADS must be a positive integer, got {n!r}"
    if n is None and sys.argv[1:2] == ["bench-scaling"]:
        n = "1"           # noise control for slope measurements
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = n
    return None


_THREADS_ERROR = _pin_threads()

import argparse
import json
import platform

import numpy as np
import scipy

from .bench import bench_scaling
from .config import ConfigError, apply_sets, build_run, load_run_config
from .model import Model, load_checkpoint, save_checkpoint
from .rng import Rng
from .tensor import get_dtype, set_precision
from .train import evaluate, gradcheck_model, train_loop

SCHEMA = "longvq-report-v1"

GRADCHECK_TINY = [
    "task.name=reduction", "task.L=16", "task.vocab=8",
    "model.depth=1", "model.d_model=8", "model.S=4", "model.n_state=4",
    "attn.z_dim=4", "attn.v_dim=8", "attn.window=2",
    "train.batch_size=4",
]


def _outdir(args, command):
    out = args.out or os.path.join("runs", command)
    os.makedirs(out, exist_ok=True)
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment():
    """What a run's numbers depend on, under the key names of the
    benchmark's environment block."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "precision": np.dtype(get_dtype()).name,
            "nproc": os.cpu_count(), "cpu": _cpu_model()}


def _write_report(out, payload):
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump({**payload, "env": _environment()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return path


def _load_cfg(args, extra_defaults=None):
    cfg = load_run_config(args.config)
    if args.config is None and extra_defaults:
        apply_sets(cfg, extra_defaults)
    apply_sets(cfg, args.sets)
    return cfg


def _run_model(args, command):
    """(task, train config, model, output dir) for a run: the model is
    built from the config and restored from --checkpoint when given."""
    task, model_cfg, train_cfg, impl = build_run(_load_cfg(args),
                                                 seed=args.seed)
    out = _outdir(args, command)
    model = Model(model_cfg, Rng(train_cfg.seed, "model"), impl=impl)
    if getattr(args, "checkpoint", None):
        load_checkpoint(args.checkpoint, model)
    return task, train_cfg, model, out


# ---------------------------------------------------------------------------


def cmd_train(args):
    task, train_cfg, model, out = _run_model(args, "train")
    metrics = os.path.join(out, "metrics.jsonl")
    records = train_loop(model, task, train_cfg, metrics_path=metrics)
    ckpt = os.path.join(out, "checkpoint.npz")
    save_checkpoint(ckpt, model)
    evals = [r for r in records if r.get("split") == "eval"]
    final = evals[-1] if evals else {}
    payload = {"schema": SCHEMA, "command": "train",
               "steps": train_cfg.total_steps,
               "param_count": sum(p.data.size for p in model.params()),
               "skipped_steps": sum(1 for r in records
                                    if r["split"] == "train" and "event" in r),
               "final_eval": {k: final.get(k) for k in
                              ("step", "loss", "ce", "acc")},
               "metrics": metrics, "checkpoint": ckpt}
    _write_report(out, payload)
    print(f"train: steps={train_cfg.total_steps} "
          f"eval_loss={final.get('loss', float('nan')):.4f} "
          f"eval_acc={final.get('acc', float('nan')):.4f} "
          f"metrics={metrics}")
    return 0


def cmd_eval(args):
    task, train_cfg, model, out = _run_model(args, "eval")
    res = evaluate(model, task.eval_batches(args.split, train_cfg.batch_size),
                   gamma=0.0)
    payload = {"schema": SCHEMA, "command": "eval", "split": args.split,
               "checkpoint": args.checkpoint,
               **{k: res[k] for k in ("examples", "ce", "acc",
                                      "codebook_perplexity", "attn_entropy")}}
    _write_report(out, payload)
    print(f"eval[{args.split}]: n={res['examples']} ce={res['ce']:.4f} "
          f"acc={res['acc']:.4f}")
    return 0


def cmd_bench_scaling(args):
    out = _outdir(args, "bench-scaling")
    Ls = args.lengths
    modes = ("dense", "vq") if args.mode == "both" else (args.mode,)
    report = bench_scaling(Ls, reps=args.reps, S=args.S, w=args.w,
                           d=args.d, modes=modes, seed=args.seed or 0)
    report["schema"] = SCHEMA
    report["command"] = "bench-scaling"
    _write_report(out, report)
    bits = []
    for mode in modes:
        bits.append(f"{mode} slope={report['modes'][mode]['slope']:.3f}")
    if "dense_over_vq" in report:
        mid = str(Ls[len(Ls) // 2])
        bits.append(f"dense/vq@{mid}={report['dense_over_vq'][mid]:.2f}")
    print("bench-scaling: " + " ".join(bits))
    return 0


def cmd_diag_entropy(args):
    task, train_cfg, model, out = _run_model(args, "diag-entropy")
    rng = Rng(train_cfg.seed, "diag")
    per_batch = [evaluate(model, [task.sample("val", train_cfg.batch_size,
                                              rng)], 0.0)["attn_entropy"]
                 for _ in range(args.batches)]
    means = [float(m) for m in np.mean(per_batch, axis=0)]
    payload = {"schema": SCHEMA, "command": "diag-entropy",
               "normalized": True, "batches": args.batches,
               "per_batch": per_batch,
               "layers": [{"layer": i, "mean_normalized_entropy": m}
                          for i, m in enumerate(means)]}
    _write_report(out, payload)
    print("diag-entropy: " + " ".join(f"L{i}={m:.4f}"
                                      for i, m in enumerate(means)))
    return 0


def cmd_gradcheck(args):
    cfg = _load_cfg(args, extra_defaults=GRADCHECK_TINY)
    task, model_cfg, train_cfg, _ = build_run(cfg, seed=args.seed)
    out = _outdir(args, "gradcheck")
    seed = train_cfg.seed
    model = Model(model_cfg, Rng(seed, "model"), impl="dense")
    x, y = task.sample("train", train_cfg.batch_size,
                       Rng(seed, "gradcheck-batch"))
    report = gradcheck_model(model, x, y, fault=args.inject_fault)
    _write_report(out, {"schema": SCHEMA, "command": "gradcheck", **report})
    if args.inject_fault and report["fault_nodes"] == 0:
        # a fault that wrapped nothing checks nothing; a pass would lie
        print(f"gradcheck: --inject-fault {args.inject_fault!r} wrapped no "
              "tape node: no op of that name ran", file=sys.stderr)
        return 2
    width = max(len(n) for n in report["params"])
    for name in sorted(report["params"]):
        err = report["params"][name]
        tag = "ok" if err < report["tol"] else "FAIL"
        print(f"  {name:<{width}}  {err:.3e}  {tag}")
    worst_name, worst_err = report["worst"]
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"gradcheck: {verdict} worst={worst_name} ({worst_err:.3e}) "
          f"tol={report['tol']}")
    return 0 if report["passed"] else 1


def cmd_kernel_dump(args):
    task, train_cfg, model, out = _run_model(args, "kernel-dump")
    L = args.length or task.spec.L
    arrays = {f"layer{i}": layer.bank.kernels(L)
              for i, layer in enumerate(model.layers())
              if layer.bank is not None}
    n_banks = len(arrays)
    # codebooks under their checkpoint names (absent until seeded)
    arrays.update((k, v) for k, v in model.state_arrays().items()
                  if ".codebook." in k)
    npz = os.path.join(out, "kernels.npz")
    np.savez(npz, **arrays)
    payload = {"schema": SCHEMA, "command": "kernel-dump", "L": L,
               "layers": len(model.layers()),
               "ssm_layers": n_banks, "files": [npz]}
    _write_report(out, payload)
    print(f"kernel-dump: {n_banks} kernel banks at L={L} -> {npz}")
    return 0


# ---------------------------------------------------------------------------


def _int_at_least(lo):
    def integer(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return integer


def _lengths(text):
    Ls = [_int_at_least(1)(s) for s in text.split(",") if s]
    if len(set(Ls)) < 2:
        raise argparse.ArgumentTypeError(
            f"need at least two distinct lengths to fit a slope, got {text!r}")
    return Ls


def _add_common(sp):
    sp.add_argument("--config", default=None, help="INI config file")
    sp.add_argument("--seed", type=int, default=None,
                    help="override task+train seed")
    sp.add_argument("--set", action="append", default=[], dest="sets",
                    metavar="SEC.KEY=VAL", help="config override")
    sp.add_argument("--out", default=None, help="output directory")


def build_parser():
    p = argparse.ArgumentParser(
        prog="longvq",
        description="train/evaluate the gated VQ attention stack and run "
                    "its diagnostics")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="run the training loop")
    _add_common(sp)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_common(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--split", default="test",
                    choices=("train", "val", "test"))

    sp = sub.add_parser("bench-scaling",
                        help="forward-pass wall-clock vs sequence length")
    sp.add_argument("--mode", default="both",
                    choices=("dense", "vq", "both"))
    sp.add_argument("--lengths", type=_lengths, default="1024,2048,4096,8192")
    sp.add_argument("--reps", type=_int_at_least(1), default=3)
    sp.add_argument("--S", type=_int_at_least(1), default=512)
    sp.add_argument("--w", type=_int_at_least(0), default=64)
    sp.add_argument("--d", type=_int_at_least(1), default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("diag-entropy",
                        help="normalized attention-row entropy per layer")
    _add_common(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--batches", type=_int_at_least(1), default=4)

    sp = sub.add_parser("gradcheck",
                        help="reverse-mode vs finite-difference gradients")
    _add_common(sp)
    sp.add_argument("--inject-fault", default=None, metavar="OP",
                    help="negate the backward of every OP node on the "
                         "checked tape; exit 2 if none ran")

    sp = sub.add_parser("kernel-dump",
                        help="write SSM impulse-response kernels + codebooks")
    _add_common(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--length", type=_int_at_least(1), default=None)
    return p


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "bench-scaling": cmd_bench_scaling,
    "diag-entropy": cmd_diag_entropy,
    "gradcheck": cmd_gradcheck,
    "kernel-dump": cmd_kernel_dump,
}


def main(argv=None):
    if _THREADS_ERROR:
        print(f"error: {_THREADS_ERROR}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    # every numerical claim in the docs is stated at 64-bit; the CLI
    # runs there so reports and checks mean what they say
    set_precision("float64")
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
