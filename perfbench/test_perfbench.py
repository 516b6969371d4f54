"""The benchmark's own checks, on a tiny workload that runs in seconds."""

import json
import os
import subprocess
import sys
import time

import pytest

import longvq.train
from longvq.cli import GRADCHECK_TINY

import harness
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = harness.Workload("tiny",
                        tuple(GRADCHECK_TINY) + ("train.eval_every=0",))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_workload_emits_every_metric_with_its_unit(tmp_path, trace, key):
    t0 = time.perf_counter()
    res = harness.run(TINY, seed=3, seconds=0.5, trace=trace, root=ROOT,
                      out_dir=str(tmp_path))
    assert time.perf_counter() - t0 < 60.0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 1
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    if not trace:
        want["failed_ratio"] = "ratio"
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    line = harness.summary(res, [m["name"] for m in _spec()[key]])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert res["env"]["precision"] == "float32"
    assert res["env"]["seed"] == 3
    assert os.path.isfile(tmp_path / f"tiny-seed3-trace{trace}.json")
    if not trace:
        first, end = TINY.ce_steps
        assert len(res["detail"]["ce_window"]) == end - first


def test_setup_only_child_reports_a_cold_setup():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "lm-causal-256", "--seed", "2", "--seconds", "0",
         "--setup-only"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=120, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"setup_s"} and 0.0 < line["setup_s"] < 60.0


def test_traced_self_times_fit_in_step_wall(tmp_path):
    harness.run(TINY, seed=5, seconds=0.5, trace=1, root=ROOT,
                out_dir=str(tmp_path))
    rows = [json.loads(line) for line in
            open(tmp_path / "tiny-seed5-spans.jsonl")]
    recs = [(r["id"], r["name"], r["start"], r["end"], r["parent"],
             r["step"]) for r in rows]
    own = spans.self_times(recs)
    walls = {r[5]: r[3] - r[2] for r in recs if r[1] == "step"}
    assert walls
    for step, wall in walls.items():
        inner = sum(own[r[0]] for r in recs
                    if r[5] == step and r[1] != "step")
        assert 0.0 < inner <= wall
    assert all(v >= 0.0 for v in own.values())


def test_injected_step_failure_shows_in_failed_ratio(monkeypatch):
    real = longvq.train.clip_grads
    calls = []

    def flaky(grads, clip):
        calls.append(1)
        # the set-up step makes the first call; fail the second timed step
        if len(calls) == 3:
            raise RuntimeError("injected step failure")
        return real(grads, clip)

    monkeypatch.setattr(longvq.train, "clip_grads", flaky)
    res = harness.run(TINY, seed=1, seconds=0.5, trace=0, root=ROOT)
    assert res["failed"] == 1
    assert res["errors"] == {"RuntimeError: injected step failure": 1}
    ratio = res["metrics"]["failed_ratio"]["value"]
    assert ratio == pytest.approx(1 / res["attempted"])
    assert res["correct"]
