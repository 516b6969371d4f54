"""Prove the tape's gradients, then plant a bug and catch it.

Every parameter of a one-block dense model is checked on one batch against
central finite differences at 64-bit. Quantization assignments are frozen
during the check (the straight-through rule is a definition, not an
approximation, so the differencer must see the same smooth map the tape
differentiates). The second half checks the same model again with the
sign of linear's backward flipped on the checked tape; a checker that
cannot fail is not evidence.
"""

from longvq.cli import GRADCHECK_TINY
from longvq.config import apply_sets, build_run, load_run_config
from longvq.model import Model
from longvq.rng import Rng
from longvq.tensor import set_precision
from longvq.train import gradcheck_model

set_precision("float64")

cfg = apply_sets(load_run_config(None), GRADCHECK_TINY)
task, mcfg, tcfg, _ = build_run(cfg)
model = Model(mcfg, Rng(tcfg.seed, "model"), impl="dense")
x, y = task.sample("train", tcfg.batch_size, Rng(tcfg.seed, "gradcheck-batch"))

rep = gradcheck_model(model, x, y)
print(f"clean run: {'PASS' if rep['passed'] else 'FAIL'}, "
      f"{len(rep['params'])} parameters")
worst_name, worst_err = rep["worst"]
print(f"  worst {worst_name}: {worst_err:.2e} (tol {rep['tol']})")
show = sorted(rep["params"], key=rep["params"].get, reverse=True)[:5]
for name in show:
    print(f"  {name:<24} {rep['params'][name]:.2e}")

print("\nsame check with linear's backward sign-flipped:")
bad = gradcheck_model(model, x, y, fault="linear")
wn, we = bad["worst"]
print(f"  {'PASS' if bad['passed'] else 'FAIL'} as expected; "
      f"{bad['fault_nodes']} linear nodes flipped; worst {wn}: {we:.2e}")
