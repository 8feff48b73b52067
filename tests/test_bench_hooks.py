"""The benchmark's traced pass can still hook the training hot path.

perfbench/spans.py wraps functions by module and name and reads the
kernels' positional arguments for its annotation counters. A rename or
signature change there would leave a traced benchmark pass silently
empty, so one test runs the recorder around a tiny ccc run, and one
pins the list of targets that name no function. A last test runs the
whole harness at its smoke sizes, so a change that breaks one of its
output checks fails here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

from ccc import training
from ccc.data import make_blobs
from ccc.rng import RngStream
from ccc.simulate import PatternSpec, build_pool, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOT_PATH = ("kernels.crowd_grads", "kernels.hyper_grads", "training.make_batch",
            "training.correction_gradient", "models.batch_forward")
# The trace targets that name no function today. Any other target that
# goes missing (a rename or a deletion) would read as zero calls.
ABSENT = ["data.true_confusion_matrix", "data.confusion_distance",
          "training.train_majority", "training.train_crowdlayer", "training.train_ccc"]


def test_every_other_trace_target_is_present(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ccc.cli  # noqa: F401  (loads every module the CLI traces)
    import spans

    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == ABSENT


def test_recorder_hooks_ccc_hot_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    master = RngStream(4)
    X, y = make_blobs(120, 5, 6, 0.2, master.split("feat"))
    pool = build_pool([PatternSpec("symmetric", epsilon=0.3)] * 10, 5, k=2,
                      rng=master.split("pool"))
    ds = generate(y, X, pool, master.split("lab"))
    cfg = training.TrainConfig(algo="ccc", epochs=3, warmup=1, batch_size=32,
                               meta_batch=8, meta_size=10, groups=2)
    # Annotations per crowd step, from the batch the step was built from.
    make_batch = training.make_batch
    batch_sizes, step_sizes = [], {"warmup": 0, "ccc": 0}

    def sized_make_batch(*args):
        batch = make_batch(*args)
        batch_sizes.append(batch.ann_instance.shape[0])
        return batch

    def on_step(info):
        step_sizes[info["phase"]] += batch_sizes[-1]

    monkeypatch.setattr(training, "make_batch", sized_make_batch)
    rec = spans.Recorder()
    rec.install()
    try:
        training.train(ds, cfg, on_step=on_step)
    finally:
        rec.uninstall()

    calls = {name: s["calls"] for name, s in rec.summary().items()}
    for name in HOT_PATH:
        assert name not in rec.absent
        assert calls.get(name, 0) > 0, name
    # The counters read the kernels' arguments by position: every step's
    # annotations pass crowd_grads once, and every ccc step's pass
    # hyper_grads once more.
    assert step_sizes["ccc"] > 0
    assert rec.counts["kernels.crowd_grads.ann"] == sum(step_sizes.values())
    assert rec.counts["kernels.hyper_grads.ann"] == step_sizes["ccc"]


def test_smoke_run_of_every_workload_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=PERFBENCH.parent)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0, proc.stdout
