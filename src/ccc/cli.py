"""Command-line front end: simulate | inspect | train | eval.

Every run artifact embeds the fully resolved configuration and seed so
that any two invocations with equal (config, seed, dataset) produce
byte-identical numeric outputs. Exit codes are per error family:
0 success, 2 configuration, 3 data validation, 4 I/O.

Config files are flat key=value lines (# comments allowed); explicit
command-line flags override file values, which override defaults.
CCC_THREADS caps --seeds replicate parallelism (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data import (annotation_histogram, annotation_noise_rate,
                   confusion_distance, evaluate_accuracy, instance_noise_rate,
                   load_dataset, load_eval_set, make_blobs, save_dataset,
                   save_eval_set, true_confusion_matrix)
from .errors import ConfigError, ContractError, DataFormatError
from .models import load_model, save_model
from .rng import RngStream
from .simulate import PRESETS, PatternSpec, build_pool, generate
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def load_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise DataFormatError("missing config file", path)
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _resolve(args, key, cast, default):
    """Flag > config file > default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    fileval = args._config_values.get(key)
    if fileval is not None:
        try:
            return cast(fileval)
        except ValueError:
            raise ConfigError(f"config key {key}={fileval!r} is not a valid value") from None
    return default


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_feature_source(expr: str):
    if expr.startswith("blobs:"):
        params = {"spread": 0.28, "radius": 1.0}
        for part in expr[len("blobs:"):].split(","):
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad blobs parameter {part!r}")
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in ("N", "C", "D", "spread", "radius"):
                raise ConfigError(f"unknown blobs parameter {key!r}")
            try:
                params[key] = int(value) if key in ("N", "C", "D") else float(value)
            except ValueError:
                raise ConfigError(f"bad blobs value {part!r}") from None
        for req in ("N", "C", "D"):
            if req not in params:
                raise ConfigError(f"blobs source needs {req}=")
        return "blobs", params
    if expr.startswith("file:"):
        return "file", {"path": expr[len("file:"):]}
    raise ConfigError(f"feature source must be blobs:... or file:..., got {expr!r}")


def _parse_pattern_file(path) -> list[PatternSpec]:
    path = Path(path)
    if not path.exists():
        raise DataFormatError("missing pattern file", path)
    specs: list[PatternSpec] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                count = int(parts[0])
                kind = parts[1]
                arg = parts[2] if len(parts) > 2 else None
                for _ in range(count):
                    if kind in ("symmetric", "pair"):
                        specs.append(PatternSpec(kind, epsilon=float(arg)))
                    elif kind == "classwise":
                        good = tuple(int(v) for v in arg.split(","))
                        specs.append(PatternSpec(kind, good_classes=good))
                    else:
                        specs.append(PatternSpec(kind))
            except (IndexError, ValueError, ContractError) as exc:
                raise DataFormatError(f"bad pattern line: {exc}", path, lineno) from None
    if not specs:
        raise DataFormatError("pattern file defines no annotators", path)
    return specs


def _parse_pair_map(expr: str, C: int) -> np.ndarray:
    pm = np.full(C, -1, dtype=np.int64)
    for part in expr.split(","):
        try:
            a, b = (int(v) for v in part.split(":"))
        except ValueError:
            raise ConfigError(f"bad pair map entry {part!r}: expected int:int") from None
        if not 0 <= a < C or pm[a] >= 0:
            raise ConfigError(f"pair map source class {a} is out of range or repeated")
        if not 0 <= b < C or b == a:
            raise ConfigError(f"pair map target class {b} is out of range or equal to "
                              f"its source {a}")
        pm[a] = b
    if (pm < 0).any():
        raise ConfigError("pair map must cover every class")
    return pm


def cmd_simulate(args) -> int:
    src_kind, src = _parse_feature_source(args.features)
    seed = _resolve(args, "seed", int, 0)
    k = _resolve(args, "k", int, 3)
    alpha = _resolve(args, "alpha", float, 1.5)
    beta = _resolve(args, "beta", float, 3.0)
    out_dir = Path(args.out)

    master = RngStream(seed)
    if src_kind == "blobs":
        features, truth = make_blobs(src["N"], src["C"], src["D"], src["spread"],
                                     master.split("features"), radius=src["radius"])
        C = src["C"]
    else:
        feats, labels, C = load_eval_set(src["path"])
        features, truth = feats, labels

    if args.preset is not None and args.patterns is not None:
        raise ConfigError("--preset and --patterns are mutually exclusive")
    if args.preset is not None:
        pool_source = args.preset
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r} "
                              f"(available: {', '.join(sorted(PRESETS))})")
    elif args.patterns is not None:
        pool_source = _parse_pattern_file(args.patterns)
    else:
        raise ConfigError("simulate needs --preset or --patterns")

    pair_map = None
    if args.pair_map is not None:
        pair_map = _parse_pair_map(args.pair_map, C)

    pool = build_pool(pool_source, C, R=args.annotators, k=k, alpha=alpha,
                      beta=beta, rng=master.split("pool"), pair_map=pair_map)
    result = generate(truth, features, pool, master.split("labels"),
                      return_dense=args.dump_dense,
                      preset=args.preset, seed=seed)
    if args.dump_dense:
        ds, dense = result
    else:
        ds, dense = result, None

    save_dataset(ds, out_dir, features_format=args.features_format)
    if dense is not None:
        with open(out_dir / "dense_labels.csv", "w", newline="") as fh:
            fh.write("instance,annotator,label\n")
            for i in range(dense.shape[0]):
                for r in range(dense.shape[1]):
                    fh.write(f"{i},{r},{dense[i, r]}\n")
    if args.test_size and src_kind == "blobs":
        test_X, test_y = make_blobs(args.test_size, src["C"], src["D"],
                                    src["spread"], master.split("test-features"),
                                    radius=src["radius"])
        save_eval_set(test_X, test_y, out_dir / "test", C, seed=seed)
    elif args.test_size:
        print("--test-size applies to blobs sources only; no test split written")

    nr1 = instance_noise_rate(ds)
    nr2 = annotation_noise_rate(ds)
    hist = annotation_histogram(ds)
    print(f"wrote {out_dir} (n={ds.n}, d={ds.d}, c={ds.class_count}, r={ds.annotator_count})")
    print(f"instance noise rate: {100 * nr1:.2f}%")
    print(f"annotation noise rate: {100 * nr2:.2f}%")
    print(f"labels per annotator: min={hist.min()} median={int(np.median(hist))} "
          f"max={hist.max()} total={hist.sum()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    ds = load_dataset(args.data)
    out_dir = Path(args.out) if args.out else Path(args.data)
    out_dir.mkdir(parents=True, exist_ok=True)
    hist = annotation_histogram(ds)
    stats = {
        "n": ds.n, "d": ds.d, "c": ds.class_count, "r": ds.annotator_count,
        "annotations": int(ds.annotation_count),
        "per_annotator_counts": hist.tolist(),
        "instance_noise_rate": None,
        "annotation_noise_rate": None,
        "preset": ds.preset, "seed": ds.seed,
    }
    if ds.truth is not None:
        stats["instance_noise_rate"] = instance_noise_rate(ds)
        stats["annotation_noise_rate"] = annotation_noise_rate(ds)
        cms = [true_confusion_matrix(ds, r) for r in range(ds.annotator_count)]
        with open(out_dir / "cm_distances.csv", "w", newline="") as fh:
            fh.write("annotator_a,annotator_b,mse\n")
            for a in range(ds.annotator_count):
                for b in range(ds.annotator_count):
                    fh.write(f"{a},{b},{_fmt(confusion_distance(cms[a], cms[b]))}\n")
    else:
        print("no truth labels: noise rates and confusion distances omitted")
    _write_json(out_dir / "stats.json", stats)
    if ds.truth is not None:
        print(f"instance noise rate: {100 * stats['instance_noise_rate']:.2f}%")
        print(f"annotation noise rate: {100 * stats['annotation_noise_rate']:.2f}%")
    print(f"total annotations: {hist.sum()} over {ds.annotator_count} annotators")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_config_from(args, seed: int) -> TrainConfig:
    decay = _resolve(args, "lr-decay-epoch", int, 40)
    if decay is not None and decay < 0:
        decay = None
    cfg = TrainConfig(
        algo=args.algo,
        epochs=_resolve(args, "epochs", int, 60),
        warmup=_resolve(args, "warmup", int, 10),
        batch_size=_resolve(args, "batch-size", int, 128),
        meta_batch=_resolve(args, "meta-batch", int, 64),
        lr=_resolve(args, "lr", float, 0.05),
        momentum=_resolve(args, "momentum", float, 0.9),
        weight_decay=_resolve(args, "weight-decay", float, 5e-4),
        gamma=_resolve(args, "gamma", float, 0.5),
        meta_size=_resolve(args, "meta-size", int, 200),
        groups=_resolve(args, "groups", int, 5),
        seed=seed,
        confusion_init=_resolve(args, "confusion-init", str, "identity"),
        model=_resolve(args, "model", str, "linear"),
        hidden_dim=_resolve(args, "hidden-dim", int, 32),
        lr_decay_epoch=decay,
        v_reset=_resolve(args, "v-reset", str, "iteration"),
        grouping=_resolve(args, "grouping", str, "joint"),
    )
    cfg.validate()
    return cfg


def _write_curves(path: Path, curves: dict[str, list[float]]) -> None:
    keys = sorted(curves)
    with open(path, "w", newline="") as fh:
        if len(keys) == 1:
            fh.write("epoch,acc\n")
            for e, acc in enumerate(curves[keys[0]]):
                fh.write(f"{e},{_fmt(acc)}\n")
        else:
            fh.write("epoch," + ",".join(f"acc_{k}" for k in keys) + "\n")
            for e in range(len(curves[keys[0]])):
                fh.write(f"{e}," + ",".join(_fmt(curves[k][e]) for k in keys) + "\n")


def _write_confusions(path: Path, confusions: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("model,annotator,row,col,value\n")
        for name in sorted(confusions):
            T = confusions[name]
            for r in range(T.shape[0]):
                for i in range(T.shape[1]):
                    for j in range(T.shape[2]):
                        fh.write(f"{name},{r},{i},{j},{_fmt(T[r, i, j])}\n")


def _run_one_seed(ds, args, seed, eval_set, out_dir: Path) -> dict:
    cfg = _train_config_from(args, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    res = train(ds, cfg, eval_set)
    for tag, state in res.states.items():
        save_model(state.clf, out_dir / f"{tag}.bin")
    payload = {
        "algo": cfg.algo, "seed": seed, "config": cfg.echo(),
        "wall_time_sec": res.wall_time_sec,
        "final_eval": {k: v[-1] for k, v in res.curves.items()},
        "best": res.best, "last": res.last,
    }
    _write_json(out_dir / "run.json", payload)
    _write_curves(out_dir / "curves.csv", res.curves)
    if res.confusions:
        _write_confusions(out_dir / "confusions.csv", res.confusions)
    if res.groups_by_epoch:
        with open(out_dir / "groups.csv", "w", newline="") as fh:
            fh.write("epoch,annotator,group\n")
            for epoch, assignment in res.groups_by_epoch:
                for r, g in enumerate(assignment):
                    fh.write(f"{epoch},{r},{g}\n")
    return payload


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {text!r}")
    return seeds


def _thread_count() -> int:
    raw = os.environ.get("CCC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"CCC_THREADS must be an integer, got {raw!r}") from None


def cmd_train(args) -> int:
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    threads = _thread_count() if seeds else 1
    ds = load_dataset(args.data)
    eval_set = None
    if args.test is not None:
        X, y, c = load_eval_set(args.test)
        if c != ds.class_count:
            raise ConfigError(f"test set class count {c} != dataset {ds.class_count}")
        if X.shape[1] != ds.d:
            raise ConfigError(f"test set feature dim {X.shape[1]} != dataset {ds.d}")
        eval_set = (X, y)
    out_dir = Path(args.out)
    if seeds is None:
        payload = _run_one_seed(ds, args, _resolve(args, "seed", int, 0),
                                eval_set, out_dir)
        print(f"best: {payload['best']}  last: {payload['last']}")
        return EXIT_OK

    dirs = [out_dir / f"seed-{s}" for s in seeds]
    if threads == 1:
        payloads = [_run_one_seed(ds, args, s, eval_set, d)
                    for s, d in zip(seeds, dirs)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            payloads = list(pool.map(
                lambda sd: _run_one_seed(ds, args, sd[0], eval_set, sd[1]),
                zip(seeds, dirs)))
    keys = sorted(payloads[0]["best"])
    agg = {"seeds": seeds, "best": {}, "last": {}}
    for key in keys:
        bvals = [p["best"][key] for p in payloads]
        lvals = [p["last"][key] for p in payloads]
        agg["best"][key] = {"values": bvals, "mean": float(np.mean(bvals)),
                            "std": float(np.std(bvals))}
        agg["last"][key] = {"values": lvals, "mean": float(np.mean(lvals)),
                            "std": float(np.std(lvals))}
    agg["config"] = payloads[0]["config"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "aggregate.json", agg)
    for key in keys:
        print(f"{key}: best {agg['best'][key]['mean']:.4f}±{agg['best'][key]['std']:.4f} "
              f"last {agg['last'][key]['mean']:.4f}±{agg['last'][key]['std']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    clf = load_model(args.model)
    X, y, c = load_eval_set(args.data)
    if c != clf.class_count:
        raise ConfigError(f"class count mismatch: model {clf.class_count}, data {c}")
    if X.shape[1] != clf.input_dim:
        raise ConfigError(f"feature dim mismatch: model {clf.input_dim}, data {X.shape[1]}")
    acc = evaluate_accuracy(clf, X, y)
    print(f"accuracy: {acc:.6f}")
    if args.out:
        _write_json(Path(args.out), {
            "accuracy": acc, "model": str(args.model), "data": str(args.data),
            "n": int(X.shape[0]),
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccc",
        description="Simulate sparse crowd annotations and train under them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic crowd dataset")
    sim.add_argument("--features", required=True,
                     help="blobs:N=2000,C=10,D=16[,spread=..][,radius=..] or file:DIR")
    sim.add_argument("--preset", help=f"one of {', '.join(sorted(PRESETS))}")
    sim.add_argument("--patterns", help="pattern file: '<count> <kind> [arg]' lines")
    sim.add_argument("--annotators", type=int, default=None,
                     help="pool size (presets: divisible by 5, default 250)")
    sim.add_argument("--k", type=int, default=None, help="labels kept per instance")
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--beta", type=float, default=None)
    sim.add_argument("--pair-map", help="override pair confusions, e.g. 0:1,1:0")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--test-size", type=int, default=0,
                     help="also write OUT/test with this many labeled instances")
    sim.add_argument("--features-format", choices=["csv", "bin"], default="csv")
    sim.add_argument("--dump-dense", action="store_true",
                     help="write dense phase-1 labels for auditing")
    sim.add_argument("--config")
    sim.set_defaults(func=cmd_simulate)

    ins = sub.add_parser("inspect", help="write stats.json and confusion distances")
    ins.add_argument("--data", required=True)
    ins.add_argument("--out", default=None, help="default: the dataset directory")
    ins.add_argument("--config")
    ins.set_defaults(func=cmd_inspect)

    tr = sub.add_parser("train", help="train one algorithm on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--test", help="eval-set directory (features + truth)")
    tr.add_argument("--algo", required=True, choices=["majority", "crowdlayer", "ccc"])
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--seeds", help="comma list; runs replicates + aggregate.json")
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--warmup", type=int, default=None)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--meta-batch", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--momentum", type=float, default=None)
    tr.add_argument("--weight-decay", type=float, default=None)
    tr.add_argument("--gamma", type=float, default=None)
    tr.add_argument("--meta-size", type=int, default=None)
    tr.add_argument("--groups", type=int, default=None)
    tr.add_argument("--confusion-init", choices=["identity", "votes"], default=None)
    tr.add_argument("--model", choices=["linear", "mlp"], default=None)
    tr.add_argument("--hidden-dim", type=int, default=None)
    tr.add_argument("--lr-decay-epoch", type=int, default=None,
                    help="divide lr by 10 from this epoch on; negative disables")
    tr.add_argument("--v-reset", choices=["iteration", "epoch"], default=None)
    tr.add_argument("--grouping", choices=["joint", "per-model"], default=None)
    tr.add_argument("--config")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a serialized model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True, help="eval-set directory")
    ev.add_argument("--out", help="optional eval.json path")
    ev.add_argument("--config")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = load_config_file(args.config) if args.config else {}
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, ContractError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
