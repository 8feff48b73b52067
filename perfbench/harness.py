"""Benchmark harness: whole ccc CLI workflows, timed end to end and per layer.

One process drives ``ccc.cli.main`` in-process through one workload.
Set-up (importing ccc, ``kernels.warmup()`` and the workload's set-up
``simulate``) is repeated and its median reported as ``setup_s``. The
body, one pass through the workload's CLI commands, then repeats until
``--seconds`` have passed. Untraced passes give the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and the traced
ones give the per-layer metrics (see spans.py). Every command, loaded
dataset and artifact is checked, and each check counts as one operation
toward ``attempted``/``failed``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with
provenance and the spans of the last traced pass, goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5        # at least this many set-ups ...
SETUP_MIN_S = 2.0     # ... and more, up to 50, until this much time is spent
K = 3  # labels kept per instance in every workload
THREAD_VARS = ("CCC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


@dataclass
class Command:
    metric: str      # end-to-end metric this command's wall time adds to
    argv: list[str]


@dataclass
class Pass:
    seconds: dict[str, float]  # wall time per command metric
    accs: dict[str, float]     # last-epoch accuracy per algorithm
    sids: dict[str, int]       # span id per command metric (0 untraced)
    rec: spans.Recorder | None = None


def _blobs(n: int) -> str:
    return f"blobs:N={n},C=10,D=16,spread=0.29"


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _train(data: Path, out: Path, algo: str, flags: list[str]) -> Command:
    return Command(f"train_{algo}_s",
                   ["train", "--data", str(data), "--test", str(data / "test"),
                    "--algo", algo, "--out", str(out / algo)] + flags)


def desk(data: Path, out: Path, seed: int, smoke: bool):
    """Criterion-2 flow: majority, crowdlayer and ccc at the desk config."""
    n, r, test, epochs, warmup = (300, 10, 100, 3, 1) if smoke else (2000, 50, 1000, 120, 10)
    setup = [["simulate", "--features", _blobs(n), "--preset", "IND-I",
              "--annotators", str(r), "--k", str(K), "--test-size", str(test),
              "--seed", str(seed), "--out", str(data)]]
    flags = ["--model", "mlp", "--hidden-dim", "128", "--epochs", str(epochs),
             "--warmup", str(warmup), "--batch-size", "128", "--meta-batch", "200",
             "--lr", "0.05", "--momentum", "0.9", "--weight-decay", "0",
             "--gamma", "0.5", "--meta-size", "200", "--groups", "5",
             "--lr-decay-epoch", "-1", "--confusion-init", "identity",
             "--seed", str(seed)]
    body = [_train(data, out, algo, flags) for algo in ("majority", "crowdlayer", "ccc")]
    body.append(Command("eval_s", ["eval", "--model", str(out / "ccc" / "model1.bin"),
                                   "--data", str(data / "test"),
                                   "--out", str(out / "eval.json")]))
    return setup, body


def wide_pool(data: Path, out: Path, seed: int, smoke: bool):
    """250-annotator pool, linear model: sparse annotators, cheap model."""
    n, r, test, epochs = (400, 25, 100, 2) if smoke else (20000, 250, 2000, 20)
    setup = [["simulate", "--features", _blobs(n), "--preset", "IND-I",
              "--annotators", str(r), "--k", str(K), "--test-size", str(test),
              "--features-format", "bin", "--seed", str(seed), "--out", str(data)]]
    flags = ["--model", "linear", "--epochs", str(epochs), "--seed", str(seed)]
    return setup, [_train(data, out, algo, flags) for algo in ("majority", "crowdlayer")]


def gen_io(data: Path, out: Path, seed: int, smoke: bool):
    """Criterion-1-scale COR-I generation and inspection, csv then bin."""
    n, r = (400, 25) if smoke else (45000, 250)
    body = []
    for fmt in ("csv", "bin"):
        ds_dir = str(out / fmt)
        body.append(Command("simulate_s", [
            "simulate", "--features", _blobs(n), "--preset", "COR-I",
            "--annotators", str(r), "--k", str(K), "--features-format", fmt,
            "--seed", str(seed), "--out", ds_dir]))
        body.append(Command("inspect_s", ["inspect", "--data", ds_dir]))
    return [], body


WORKLOADS = {"desk": desk, "wide-pool": wide_pool, "gen-io": gen_io}

# Printed with their units where the workload runs the operation.
COMMAND_METRICS = ("train_majority_s", "train_crowdlayer_s", "train_ccc_s",
                   "eval_s", "simulate_s", "inspect_s")
ACC_METRICS = ("acc_majority", "acc_crowdlayer", "acc_ccc")


# ---------------------------------------------------------------------------
# running commands and checking their outputs
# ---------------------------------------------------------------------------

class Checks:
    """Counts operations attempted and failed; reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Capture:
    """Records the datasets `simulate` saves and the commands load.

    Hooks only the CLI's own bindings of save_dataset/load_dataset: one
    extra call per command, in traced and untraced passes alike.
    """

    def __init__(self):
        self.saved: dict[str, object] = {}
        self.loaded: list[tuple[str, object]] = []

    @contextlib.contextmanager
    def active(self, cli):
        save, load = cli.save_dataset, cli.load_dataset

        def save_hook(ds, directory, *args, **kwargs):
            save(ds, directory, *args, **kwargs)
            self.saved[str(directory)] = ds

        def load_hook(directory):
            ds = load(directory)
            self.loaded.append((str(directory), ds))
            return ds

        cli.save_dataset, cli.load_dataset = save_hook, load_hook
        try:
            yield
        finally:
            cli.save_dataset, cli.load_dataset = save, load


def run_command(cli, argv, checks: Checks, rec=None):
    """Run one CLI command in-process; returns (seconds, span id or 0)."""
    out, err = io.StringIO(), io.StringIO()
    scope = rec.span(f"cli.{argv[0]}") if rec else contextlib.nullcontext(0)
    rc = None
    gc.collect()  # garbage from earlier commands is not this command's cost
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with scope as sid:
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    if not checks(rc == 0, f"ccc {' '.join(argv)} exited {rc}"):
        sys.stderr.write(out.getvalue() + err.getvalue())
    return seconds, sid


def _same_dataset(a, b) -> bool:
    if b is None or (a.truth is None) != (b.truth is None):
        return False
    arrays = [(a.features, b.features), (a.ann_instance, b.ann_instance),
              (a.ann_annotator, b.ann_annotator), (a.ann_label, b.ann_label)]
    if a.truth is not None:
        arrays.append((a.truth, b.truth))
    return ((a.class_count, a.annotator_count, a.preset, a.seed)
            == (b.class_count, b.annotator_count, b.preset, b.seed)
            and all(np.array_equal(x, y) for x, y in arrays))


def _finite_unit(values) -> bool:
    return bool(values) and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def check_outputs(cmd: Command, checks: Checks, accs: dict) -> None:
    """Artifact checks for one finished command; records accuracies."""
    argv = cmd.argv
    if argv[0] == "train":
        out, algo = Path(_flag(argv, "--out")), _flag(argv, "--algo")
        run = json.loads((out / "run.json").read_text())
        values = [v for key in ("best", "last", "final_eval") for v in run[key].values()]
        checks(_finite_unit(values), f"{out}/run.json accuracies finite in [0, 1]")
        accs[f"acc_{algo}"] = run["last"]["mean" if algo == "ccc" else "model1"]
        if algo != "majority":
            conf = np.loadtxt(out / "confusions.csv", delimiter=",", skiprows=1,
                              usecols=4, ndmin=1)
            checks(conf.size > 0 and bool(np.isfinite(conf).all()),
                   f"{out}/confusions.csv finite")
    elif argv[0] == "eval":
        model = Path(_flag(argv, "--model"))
        got = json.loads(Path(_flag(argv, "--out")).read_text())["accuracy"]
        want = json.loads((model.parent / "run.json").read_text())["final_eval"][model.stem]
        checks(got == want, f"eval of {model} gave {got}, run.json final_eval {want}")
    elif argv[0] == "inspect":
        data = Path(_flag(argv, "--data"))
        stats = json.loads((data / "stats.json").read_text())
        with open(data / "cm_distances.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        checks(stats["annotations"] == K * stats["n"]
               and sum(stats["per_annotator_counts"]) == stats["annotations"]
               and rows == stats["r"] ** 2, f"{data} inspect outputs")


def check_loads(capture: Capture, checks: Checks) -> None:
    for path, ds in capture.loaded:
        per_instance = np.bincount(ds.ann_instance, minlength=ds.n)
        checks(bool((per_instance == K).all()), f"{path}: {K} annotations per instance")
        checks(_same_dataset(ds, capture.saved.get(path)),
               f"{path}: loaded dataset equals what simulate produced")
    capture.loaded.clear()


def run_pass(cli, body, out: Path, capture: Capture, checks: Checks, rec=None) -> Pass:
    """One pass through the body, then the checks of its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = Pass({}, {}, {}, rec)
    with capture.active(cli):
        for cmd in body:
            dt, result.sids[cmd.metric] = run_command(cli, cmd.argv, checks, rec)
            result.seconds[cmd.metric] = result.seconds.get(cmd.metric, 0.0) + dt
    for cmd in body:
        try:
            check_outputs(cmd, checks, result.accs)
        except (OSError, ValueError, KeyError) as exc:
            checks(False, f"{cmd.argv[0]} outputs unreadable: {exc!r}")
    check_loads(capture, checks)
    return result


# ---------------------------------------------------------------------------
# set-up, provenance, per-layer metrics
# ---------------------------------------------------------------------------

def fresh_import():
    """Import ccc from scratch (numpy stays loaded); returns ccc.cli."""
    for name in [n for n in sys.modules if n == "ccc" or n.startswith("ccc.")]:
        del sys.modules[name]
    cli = importlib.import_module("ccc.cli")
    sys.modules["ccc.kernels"].warmup()
    return cli


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, trace: int, smoke: bool) -> dict:
    kernels = sys.modules["ccc.kernels"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ccc").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "backend": "numba" if kernels.USING_NUMBA else "numpy",
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
    }


def layer_metrics(rec: spans.Recorder, sids: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    summary = rec.summary()
    values: dict[str, float] = {}
    for name in spans.span_names():
        rec_ = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = rec_["calls"]
        values[f"{name}.self_s"] = rec_["self_s"]
    for name in spans.COUNTERS:
        values[name] = rec.counts.get(name, 0)
    values["training.steps"] = values["training.make_batch.calls"]
    # Per-step ratios cover the ccc train command, the one with a
    # three-stage step; evaluation forwards are not training forwards.
    ccc = sids.get("train_ccc_s", 0)
    steps = rec.count_within(ccc, "training.make_batch") if ccc else 0
    fwd = rec.count_within(ccc, "models.batch_forward",
                           skip_parent="data.evaluate_accuracy") if ccc else 0
    values["training.forward_per_step"] = fwd / steps if steps else 0.0
    grads = rec.count_within(ccc, "kernels.crowd_grads") if ccc else 0
    values["kernels.crowd_grads.per_step"] = grads / steps if steps else 0.0
    return values


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "ann": "count",
                   "scatter_bytes_computed": "bytes", "steps": "count",
                   "forward_per_step": "ratio", "per_step": "ratio",
                   "ccc_over_crowdlayer": "ratio", "overhead_s": "s"}


def per_layer_names() -> list[str]:
    names = [f"{n}.{part}" for n in spans.span_names() for part in ("calls", "self_s")]
    return names + list(spans.COUNTERS) + [
        "training.steps", "training.forward_per_step", "kernels.crowd_grads.per_step",
        "training.ccc_over_crowdlayer", "trace.overhead_s"]


def _unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_seconds(passes: list[Pass]) -> float:
    """Time of one pass: the sum over its commands of each one's median,
    so that an outlier in one command of one pass does not count."""
    return sum(_median([p.seconds[key] for p in passes]) for key in passes[0].seconds)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a few epochs: checks the harness, not speed")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "ccc" / "cli.py").is_file():
        print(f"no ccc sources under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    data, out = work / "data", work / "pass"
    setup_cmds, body = WORKLOADS[args.workload](data, out, args.seed, args.smoke)
    checks, capture = Checks(), Capture()

    setup_times = []
    while len(setup_times) < SETUP_REPS or (sum(setup_times) < SETUP_MIN_S
                                            and len(setup_times) < 50):
        gc.collect()
        t0 = time.perf_counter()
        cli = fresh_import()
        with capture.active(cli):
            for argv in setup_cmds:
                run_command(cli, argv, checks)
        setup_times.append(time.perf_counter() - t0)
    prov = provenance(args.workload, args.seed, args.trace, args.smoke)

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, body, out, capture, checks))
        if args.trace:
            rec = spans.Recorder()
            rec.install()
            try:
                traced.append(run_pass(cli, body, out, capture, checks, rec))
            finally:
                rec.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break

    printed = {"setup_s": (_median(setup_times), "s"),
               "workflow_s": (_pass_seconds(plain), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for key in COMMAND_METRICS:
        if key in plain[0].seconds:
            printed[key] = (_median([p.seconds[key] for p in plain]), "s")
    for key in ACC_METRICS:
        if key in plain[0].accs:
            printed[key] = (_median([p.accs[key] for p in plain]), "ratio")

    if args.trace:
        per_pass = [layer_metrics(t.rec, t.sids) for t in traced]
        metrics = {name: {"value": _median([p.get(name, 0) for p in per_pass]),
                          "unit": _unit(name)} for name in per_layer_names()}
        if "train_ccc_s" in printed and "train_crowdlayer_s" in printed:
            ratio = printed["train_ccc_s"][0] / printed["train_crowdlayer_s"][0]
            metrics["training.ccc_over_crowdlayer"]["value"] = ratio
        metrics["trace.overhead_s"]["value"] = (
            _pass_seconds(traced) - printed["workflow_s"][0])
        absent = traced[-1].rec.absent
    else:
        metrics = {name: {"value": printed[name][0], "unit": printed[name][1]}
                   for name in ("setup_s", "workflow_s", "peak_rss_mb")}
        absent = []

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in printed.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric failed_frac {checks.failed / max(checks.attempted, 1)!r} ratio "
          f"({checks.failed} of {checks.attempted} operations)")
    if absent:
        print("absent trace targets: " + ", ".join(absent))
    record = {"provenance": prov, "setup_s": setup_times,
              "passes": [{"seconds": p.seconds, "acc": p.accs} for p in plain],
              "traced_passes": [{"seconds": t.seconds} for t in traced],
              "metrics": metrics, "absent": absent,
              "attempted": checks.attempted, "failed": checks.failed}
    if traced:
        rec = traced[-1].rec
        t_base = min((s[3] for s in rec.spans), default=0.0)
        record["spans"] = [[sid, parent, name, t0 - t_base, t1 - t_base]
                           for sid, parent, name, t0, t1 in sorted(rec.spans)]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1
