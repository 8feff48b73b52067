"""Smoke test of the benchmark harness at tiny sizes.

Checks that every workload runs, passes its output checks, and emits
exactly the metrics BENCHMARK.json lists: the end-to-end ones untraced,
the per-layer ones traced. Run with
``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED = {
    "desk": {"train_majority_s", "train_crowdlayer_s", "train_ccc_s", "eval_s",
             "acc_majority", "acc_crowdlayer", "acc_ccc"},
    "wide-pool": {"train_majority_s", "train_crowdlayer_s", "acc_majority",
                  "acc_crowdlayer"},
    "gen-io": {"simulate_s", "inspect_s"},
}


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(PRINTED)


@pytest.mark.parametrize("workload", list(PRINTED))
def test_untraced_run_emits_end_to_end_metrics(workload):
    lines, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(want) | PRINTED[workload] | {"failed_frac"}


@pytest.mark.parametrize("workload", list(PRINTED))
def test_traced_run_emits_per_layer_metrics(workload):
    _, result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert calls[f"cli.{'simulate' if workload == 'gen-io' else 'train'}.calls"] > 0
    if workload == "desk":
        assert calls["kernels.hyper_grads.calls"] > 0
        assert result["metrics"]["training.forward_per_step"]["value"] > 1
    else:
        assert calls["kernels.hyper_grads.calls"] == 0
