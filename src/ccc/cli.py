"""Command-line front end: simulate | inspect | train | eval.

Every run artifact embeds the fully resolved configuration and seed so
that any two invocations with equal (config, seed, dataset) produce
byte-identical numeric outputs. Exit codes are per error family:
0 success, 2 configuration, 3 data validation, 4 I/O. Each command first
clears every file it may write (files.clear), its marker first, and writes
the marker last: meta.json, stats.json, run.json or aggregate.json.

Config files (--config on simulate and train) are flat key=value lines
(# comments allowed); explicit command-line flags override file values,
which override the library's defaults (TrainConfig for train, build_pool
for simulate). Each train flag, its type and its choices come from
TrainConfig's fields. --seeds runs its replicates one after another, in
the order given.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (BLOBS_DEFAULTS, FEATURES_FORMATS, annotation_histogram,
                   annotation_noise_rate, confusion_distances,
                   evaluate_accuracy, instance_noise_rate, load_dataset,
                   load_eval_set, make_blobs, remove_eval_set, save_dataset,
                   save_eval_set, true_confusion_matrices, write_csv,
                   write_dense_labels, write_distances, write_json)
from .errors import ConfigError, ContractError, DataFormatError
from .files import clear
from .models import load_model, save_model
from .rng import RngStream
from .simulate import PRESETS, PatternSpec, build_pool, generate
from .training import CHOICES, TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# The options a flag or a config file may set, with the type a value is
# parsed as: simulate's seed and pool parameters, and every TrainConfig
# field but algo. Defaults other than simulate's seed stay in build_pool
# and TrainConfig; the types are read from those defaults.
_POOL_PARAMS = inspect.signature(build_pool).parameters
SIMULATE_OPTIONS = ("seed", "k", "alpha", "beta")
TRAIN_OPTIONS = tuple(f.name for f in fields(TrainConfig) if f.name != "algo")
OPTION_TYPES = {**{k: type(_POOL_PARAMS[k].default) for k in SIMULATE_OPTIONS[1:]},
                **{f.name: type(f.default) for f in fields(TrainConfig)}}
CONFIG_KEYS = {name.replace("_", "-") for name in SIMULATE_OPTIONS + TRAIN_OPTIONS}


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def _read_lines(path, what: str) -> list[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its # comment is cut."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"missing {what} file", path)
    with open(path) as fh:
        lines = [(n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, start=1)]
    return [(n, line) for n, line in lines if line]


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in _read_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _given(args, names) -> dict:
    """The options among names set by a flag or by the config file, the
    flag winning. Options set by neither are left out, so the library's
    defaults apply to them."""
    config = load_config_file(args.config) if args.config else {}
    given = {}
    for name in names:
        key = name.replace("_", "-")
        value = getattr(args, name, None)
        if value is None and key in config:
            text = config[key]
            try:
                value = OPTION_TYPES[name](text)
            except ValueError:
                raise ConfigError(f"config key {key}={text!r} is not a valid value") from None
        if value is not None:
            given[name] = value
    return given


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_feature_source(expr: str):
    if expr.startswith("blobs:"):
        params = dict(BLOBS_DEFAULTS)
        for part in expr[len("blobs:"):].split(","):
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad blobs parameter {part!r}")
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in ("N", "C", "D", *BLOBS_DEFAULTS):
                raise ConfigError(f"unknown blobs parameter {key!r}")
            try:
                params[key] = int(value) if key in ("N", "C", "D") else float(value)
            except ValueError:
                raise ConfigError(f"bad blobs value {part!r}") from None
        # C >= 2 puts every D < 2 below C, where the circle placement needs D >= 2
        for req, least in (("N", 1), ("C", 2), ("D", 2)):
            if req not in params:
                raise ConfigError(f"blobs source needs {req}=")
            if params[req] < least:
                raise ConfigError(f"blobs {req} must be >= {least}, got {params[req]}")
        for key in BLOBS_DEFAULTS:
            if not 0 < params[key] < float("inf"):  # also rejects nan
                raise ConfigError(f"blobs {key} must be finite and positive, got {params[key]}")
        return "blobs", params
    if expr.startswith("file:"):
        return "file", {"path": expr[len("file:"):]}
    raise ConfigError(f"feature source must be blobs:... or file:..., got {expr!r}")


def _parse_pattern_file(path) -> list[PatternSpec]:
    """Specs of '<count> <kind> [arg]' lines: count >= 1, one argument for
    symmetric, pair (epsilon) and classwise (good classes), none otherwise."""
    specs: list[PatternSpec] = []
    for lineno, line in _read_lines(path, "pattern"):
        try:
            head, kind, *args = line.split()
            count = int(head)
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            takes_arg = kind in ("symmetric", "pair", "classwise")
            if len(args) != takes_arg:
                raise ValueError(f"{kind} takes {'one argument' if takes_arg else 'no argument'}, "
                                 f"got {len(args)}")
            if kind == "classwise":
                spec = PatternSpec(kind, good_classes=tuple(int(v) for v in args[0].split(",")))
            else:  # symmetric and pair take epsilon, the other kinds nothing
                spec = PatternSpec(kind, *map(float, args))
        except (ValueError, ContractError) as exc:
            raise DataFormatError(f"bad pattern line: {exc}", path, lineno) from None
        specs += [spec] * count  # build_pool copies each spec
    if not specs:
        raise DataFormatError("pattern file defines no annotators", path)
    return specs


def cmd_simulate(args) -> int:
    if args.test_size < 0:
        raise ConfigError(f"--test-size must be >= 0, got {args.test_size}")
    src_kind, src = _parse_feature_source(args.features)
    given = _given(args, SIMULATE_OPTIONS)
    seed = given.pop("seed", 0)
    out_dir = Path(args.out)

    if args.preset is not None and args.patterns is not None:
        raise ConfigError("--preset and --patterns are mutually exclusive")
    if args.preset is not None:
        pool_source = args.preset
    elif args.patterns is not None:
        pool_source = _parse_pattern_file(args.patterns)
    else:
        raise ConfigError("simulate needs --preset or --patterns")

    # Streams are split by purpose, so the pool is checked before features are made.
    master = RngStream(seed)
    if src_kind == "blobs":
        C = src["C"]
    else:
        features, truth, C = load_eval_set(src["path"])
    pool = build_pool(pool_source, C, R=args.annotators, rng=master.split("pool"), **given)
    if src_kind == "blobs":
        features, truth = make_blobs(rng=master.split("features"), **src)
    result = generate(truth, features, pool, master.split("labels"),
                      return_dense=args.dump_dense,
                      preset=args.preset, seed=seed)
    ds = result[0] if args.dump_dense else result

    # meta.json comes back last; an earlier run's tables would not match this one
    clear(out_dir, ("meta.json", "dense_labels.csv", *INSPECT_FILES))
    if args.dump_dense:
        write_dense_labels(out_dir / "dense_labels.csv", result[1])
    if args.test_size and src_kind == "blobs":
        test_X, test_y = make_blobs(rng=master.split("test-features"),
                                    **{**src, "N": args.test_size})
        save_eval_set(test_X, test_y, out_dir / "test", C, seed=seed)
    else:  # an earlier run's test set belongs to another seed or source
        remove_eval_set(out_dir / "test")
        if args.test_size:
            print("--test-size applies to blobs sources only; no test split written")
    save_dataset(ds, out_dir, features_format=args.features_format)

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

INSPECT_FILES = ("stats.json", "cm_distances.csv")  # stats.json, the marker, is written last


def cmd_inspect(args) -> int:
    ds = load_dataset(args.data)
    out_dir = clear(args.out or args.data, INSPECT_FILES)
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
        write_distances(out_dir / "cm_distances.csv",
                        confusion_distances(true_confusion_matrices(ds)))
    else:
        print("no truth labels: noise rates and confusion distances omitted")
    write_json(out_dir / "stats.json", stats)
    if ds.truth is not None:
        print(f"instance noise rate: {100 * stats['instance_noise_rate']:.2f}%")
        print(f"annotation noise rate: {100 * stats['annotation_noise_rate']:.2f}%")
    print(f"total annotations: {hist.sum()} over {ds.annotator_count} annotators")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_config_from(args) -> TrainConfig:
    given = _given(args, TRAIN_OPTIONS)
    if given.get("lr_decay_epoch", 0) < 0:
        given["lr_decay_epoch"] = None  # a negative epoch disables decay
    return TrainConfig(algo=args.algo, **given)


def _write_curves(path: Path, curves: dict[str, list[float]]) -> None:
    keys = sorted(curves)
    header = "epoch," + ("acc" if len(keys) == 1 else ",".join(f"acc_{k}" for k in keys))
    acc = np.column_stack([curves[k] for k in keys])
    write_csv(path, header, [(np.arange(acc.shape[0]), acc)])


def _write_confusions(path: Path, confusions: dict[str, np.ndarray]) -> None:
    blocks = []
    for name in sorted(confusions):
        T = confusions[name]
        blocks.append((np.full(T.size, name), *np.indices(T.shape).reshape(3, -1), T.ravel()))
    write_csv(path, "model,annotator,row,col,value", blocks)


def _check_eval_set(X, c: int, against: str, classes: int, d: int) -> None:
    """Raise ConfigError unless the eval set (X, c) has the class count and
    feature dim of `against`, the dataset or model it is used with."""
    for what, got, want in (("class count", c, classes), ("feature dim", X.shape[1], d)):
        if got != want:
            raise ConfigError(f"eval set {what} {got} != {against} {want}")


RUN_FILES = ("run.json", "model1.bin", "model2.bin", "curves.csv", "confusions.csv",
             "groups.csv")


def _write_run(res, cfg: TrainConfig, out_dir: Path) -> dict:
    clear(out_dir, RUN_FILES)  # also a seed-<n> that a crash left without its run.json
    for tag, state in res.states.items():
        save_model(state.clf, out_dir / f"{tag}.bin")
    _write_curves(out_dir / "curves.csv", res.curves)
    confusions = {tag: s.T for tag, s in res.states.items() if s.T is not None}
    if confusions:
        _write_confusions(out_dir / "confusions.csv", confusions)
    if res.groups_by_epoch:
        write_csv(out_dir / "groups.csv", "epoch,annotator,group",
                  [(np.full(len(g), epoch), np.arange(len(g)), g)
                   for epoch, g in res.groups_by_epoch])
    payload = {
        "algo": cfg.algo, "seed": cfg.seed, "config": asdict(cfg),
        "wall_time_sec": res.wall_time_sec,
        "final_eval": {k: v[-1] for k, v in res.curves.items()},
        "best": res.best, "last": res.last,
    }
    # Written last: a run.json marks a run directory whose files are all there.
    write_json(out_dir / "run.json", payload)
    return payload


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {text!r}")
    return seeds


def cmd_train(args) -> int:
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("--seed and --seeds are mutually exclusive")
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
    cfg = _train_config_from(args)
    ds = load_dataset(args.data)
    eval_set = None
    if args.test is not None:
        X, y, c = load_eval_set(args.test)
        _check_eval_set(X, c, "dataset", ds.class_count, ds.d)
        eval_set = (X, y)
    out_dir = Path(args.out)
    runs = ([(cfg, out_dir)] if seeds is None else
            [(replace(cfg, seed=s), out_dir / f"seed-{s}") for s in seeds])
    payloads = []
    for run_cfg, run_dir in runs:
        res = train(ds, run_cfg, eval_set)
        if not payloads:  # only once train has accepted a run: an earlier train's files
            clear(out_dir, ("aggregate.json", *RUN_FILES))
            for sub in out_dir.glob("seed-*"):
                if (sub / "run.json").is_file():
                    clear(sub, RUN_FILES)
                    if not any(sub.iterdir()):
                        sub.rmdir()
        payloads.append(_write_run(res, run_cfg, run_dir))
    if seeds is None:
        print(f"best: {payloads[0]['best']}  last: {payloads[0]['last']}")
        return EXIT_OK

    keys = sorted(payloads[0]["best"])
    agg = {"seeds": seeds, "best": {}, "last": {}}
    for part in ("best", "last"):
        for key in keys:
            vals = [p[part][key] for p in payloads]
            agg[part][key] = {"values": vals, "mean": float(np.mean(vals)),
                              "std": float(np.std(vals))}
    agg["config"] = payloads[0]["config"]
    write_json(out_dir / "aggregate.json", agg)
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
    _check_eval_set(X, c, "model", clf.class_count, clf.input_dim)
    acc = evaluate_accuracy(clf, X, y)
    print(f"accuracy: {acc:.6f}")
    if args.out:
        write_json(args.out, {
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
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--test-size", type=int, default=0,
                     help="also write OUT/test with this many labeled instances")
    sim.add_argument("--features-format", choices=FEATURES_FORMATS, default="csv")
    sim.add_argument("--dump-dense", action="store_true",
                     help="write dense phase-1 labels for auditing")
    sim.add_argument("--config")
    sim.set_defaults(func=cmd_simulate)

    ins = sub.add_parser("inspect", help="write stats.json and confusion distances")
    ins.add_argument("--data", required=True)
    ins.add_argument("--out", default=None, help="default: the dataset directory")
    ins.set_defaults(func=cmd_inspect)

    tr = sub.add_parser("train", help="train one algorithm on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--test", help="eval-set directory (features + truth)")
    tr.add_argument("--algo", required=True, choices=CHOICES["algo"])
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--seeds", help="comma list; runs replicates + aggregate.json")
    decay_help = "divide lr by 10 from this epoch on; negative disables"
    for name in TRAIN_OPTIONS:
        if name != "seed":
            tr.add_argument("--" + name.replace("_", "-"), type=OPTION_TYPES[name],
                            choices=CHOICES.get(name),
                            help=decay_help if name == "lr_decay_epoch" else None)
    tr.add_argument("--config")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a serialized model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True, help="eval-set directory")
    ev.add_argument("--out", help="optional eval.json path")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
