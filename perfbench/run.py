"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lm-causal-256 --seed 1 \
        --seconds 50 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
and ``--trace 1`` the per-layer metrics; the last line of standard output
is always ``{"correct", "attempted", "failed", "metrics"}``. For its
``setup_s`` the end-to-end run also starts this script with ``--setup-only``
in child processes, each of which sets up cold, runs the first train step,
prints ``{"setup_s": ...}`` and exits. The full
result, with its environment block, and the traced run's spans go under
``perfbench/out/``. The exit code is 1 when the outputs fail the dense
oracle check or the workload cannot be set up, and 2 when the program
cannot be imported from this checkout.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# BLAS libraries read these when they load: pin before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _load():
    """Import the harness, which imports longvq from this checkout."""
    try:
        import longvq
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        raise SystemExit(2)
    src = os.path.join(ROOT, "src", "longvq")
    if os.path.dirname(os.path.abspath(longvq.__file__)) != src:
        print(f"perfbench: longvq loaded from {longvq.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)
    return harness


def _cold_setup(workload, seed):
    """One set-up in a fresh process: its seconds to the first step's end."""
    import json
    import subprocess

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None):
    import argparse
    import json
    import math

    harness = _load()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up and first step, then exit")
    args = p.parse_args(argv)
    wl = harness.WORKLOADS[args.workload]
    if args.setup_only:
        with harness.precision("float32"):
            setup_s = harness.first_step(wl, args.seed, T_START)
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = harness.run(
        wl, args.seed, args.seconds, args.trace, ROOT, out_dir=out_dir,
        t_start=T_START,
        cold_setup=lambda: _cold_setup(args.workload, args.seed))
    print(json.dumps({"env": result["env"], "oracle": result["oracle"],
                      "errors": result["errors"],
                      "detail": result["detail"]}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    line = harness.summary(result, names)
    for m in line["metrics"].values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
