import hashlib
import itertools
import json
import shutil
import struct
from dataclasses import asdict, astuple

import numpy as np
import pytest

from ccc.cli import main
from ccc.data import (CrowdDataset, load_dataset, load_eval_set, make_blobs, save_dataset,
                      save_eval_set, write_dense_labels)
from ccc.errors import ConfigError, DataFormatError
from ccc.rng import RngStream
from ccc.simulate import PatternSpec, build_pool, generate
from ccc.training import TrainConfig


def _simulate(tmp_path, name="d", seed=1, n=120, c=4, r=10, k=2,
              extra=(), test_size=60, code=0):
    out = tmp_path / name
    argv = ["simulate",
            "--features", f"blobs:N={n},C={c},D=6,spread=0.2",
            "--patterns", str(_pattern_file(tmp_path, c, r)),
            "--k", str(k), "--seed", str(seed), "--out", str(out),
            "--test-size", str(test_size), *extra]
    assert main(argv) == code
    return out


def _pattern_file(tmp_path, c, r):
    path = tmp_path / "patterns.txt"
    per = r // 2
    path.write_text(f"{per} symmetric 0.2\n{r - per} symmetric 0.4\n")
    return path


class TestSimulate:
    def test_writes_dataset_with_preset_in_meta(self, tmp_path):
        out = tmp_path / "d"
        argv = ["simulate", "--features", "blobs:N=50,C=10,D=4,spread=0.1",
                "--preset", "IND-I", "--annotators", "25",
                "--k", "3", "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["preset"] == "IND-I"
        assert meta["r"] == 25
        ds = load_dataset(out)
        assert ds.annotation_count == 150

    def test_rerun_byte_identical(self, tmp_path):
        a = _simulate(tmp_path, "a", seed=9)
        b = _simulate(tmp_path, "b", seed=9)
        assert (a / "annotations.csv").read_bytes() == (b / "annotations.csv").read_bytes()
        assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        argv = ["simulate", "--features", "blobs:N=10,C=4,D=4",
                "--preset", "IND-V", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "preset" in capsys.readouterr().err

    def test_unwritable_path_exit_code(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        argv = ["simulate", "--features", "blobs:N=10,C=10,D=4",
                "--preset", "IND-I", "--annotators", "5",
                "--out", str(blocker / "sub")]
        assert main(argv) == 4

    def test_preset_needs_enough_classes(self, tmp_path, capsys):
        for classes in (3, 4):
            out = tmp_path / f"c{classes}"
            argv = ["simulate", "--features", f"blobs:N=10,C={classes},D=4",
                    "--preset", "IND-I", "--annotators", "5", "--out", str(out)]
            assert main(argv) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    def test_pattern_classes_out_of_range_exit_code(self, tmp_path, capsys):
        patterns = tmp_path / "classwise.txt"
        patterns.write_text("2 symmetric 0.2\n1 classwise 1,4\n")
        out = tmp_path / "c3"
        argv = ["simulate", "--features", "blobs:N=10,C=3,D=4",
                "--patterns", str(patterns), "--k", "1", "--out", str(out)]
        assert main(argv) == 2
        assert "out of range for C=3" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_dense(self, tmp_path):
        out = _simulate(tmp_path, "dense", extra=("--dump-dense",), n=20, test_size=0)
        lines = (out / "dense_labels.csv").read_text().splitlines()
        assert lines[0] == "instance,annotator,label"
        assert len(lines) == 1 + 20 * 10
        # the same draws as the command: features, pool, then labels streams
        master = RngStream(1)
        features, truth = make_blobs(20, 4, 6, 0.2, master.split("features"))
        specs = [PatternSpec("symmetric", epsilon=0.2)] * 5 + \
            [PatternSpec("symmetric", epsilon=0.4)] * 5
        pool = build_pool(specs, 4, k=2, rng=master.split("pool"))
        _, dense = generate(truth, features, pool, master.split("labels"),
                            return_dense=True)
        table = np.loadtxt(out / "dense_labels.csv", delimiter=",", skiprows=1,
                           dtype=np.int64)
        assert np.array_equal(table[:, 0], np.repeat(np.arange(20), 10))
        assert np.array_equal(table[:, 1], np.tile(np.arange(10), 20))
        assert np.array_equal(table[:, 2], dense.reshape(-1))

    def test_resimulate_removes_the_earlier_runs_files(self, tmp_path):
        out = tmp_path / "d"
        base = ["simulate", "--features", "blobs:N=40,C=10,D=3", "--preset", "IND-I",
                "--annotators", "10", "--out", str(out)]
        assert main(base + ["--dump-dense", "--seed", "1"]) == 0
        assert (out / "dense_labels.csv").exists() and (out / "features.csv").exists()
        assert main(base + ["--features-format", "bin", "--seed", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "annotations.csv", "features.bin", "meta.json", "truth.csv"]

    def test_resimulate_removes_the_earlier_inspect_tables(self, tmp_path):
        out = _simulate(tmp_path, "d", seed=1, test_size=0)
        assert main(["inspect", "--data", str(out)]) == 0
        (out / "notes.txt").write_text("mine")
        _simulate(tmp_path, "d", seed=2, test_size=0)
        assert sorted(p.name for p in out.iterdir()) == [
            "annotations.csv", "features.csv", "meta.json", "notes.txt", "truth.csv"]

    # sha256 of every file simulate and then inspect wrote, frozen from
    # the dense-phase-1 simulator and the np.unique-based loader checks;
    # a change to generation, RNG consumption, loading or the writers
    # shows here.
    GOLDEN = {
        ("IND-I", "1", "csv", True): {
            "annotations.csv": "0abf9c4cc13554a3f6aae7611adbe61d6799e5fb808c4bc12cf2365e98d599d6",
            "cm_distances.csv": "09ef877142d638c000e439ee09b4601475a9dfffd905fc3bdf9e9a4bc33fef0a",
            "dense_labels.csv": "684ed2be8f6f71b35b281886ea53f23fa453366076a36d556a7fd12ef44bf9a3",
            "features.csv": "a2cde731f3ea8e17896844a731fe51e80a6e218242aaac3cb3f50bc40bd67803",
            "meta.json": "e741f4db75d1443ee959c082b85cfef19974565587d1ffa50f3993205bbd8751",
            "stats.json": "fbc339b9d50cb414dcfebddf1d20eb2541fc4f1ba047ae4df343f0885abe6f7f",
            "truth.csv": "1721ad45186357f70ea213c51c48a4576bd49df7c69984156aeec2c8ac2a6db9",
        },
        ("COR-II", "2", "bin", False): {
            "annotations.csv": "4294d0eec729991a0ef26e6e2dfefcf9fa13086d13e7467260822a5094e0b177",
            "cm_distances.csv": "7cb089366ab28a79c36c87d6702a15eef7a915c41e741902121b5efb7c3c74cf",
            "features.bin": "cf93a234b5db435e30bea70462546dea110baf0cc49b5dbb47ca61d28f2e104e",
            "meta.json": "ef05c53655dd5607dc39fea111ab461c280f521f736bdb171fce076df560462a",
            "stats.json": "b31fa267d44aa2c1b8ca4131268546a6a3f35524bd96fc91040daa2de125765e",
            "truth.csv": "1721ad45186357f70ea213c51c48a4576bd49df7c69984156aeec2c8ac2a6db9",
        },
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_files_match_golden_digests(self, tmp_path, case):
        preset, seed, fmt, dense = case
        out = tmp_path / "d"
        argv = ["simulate", "--features", "blobs:N=60,C=10,D=3", "--preset", preset,
                "--annotators", "25", "--k", "3", "--seed", seed,
                "--features-format", fmt, "--out", str(out)]
        assert main(argv + ["--dump-dense"] * dense) == 0
        assert main(["inspect", "--data", str(out)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == self.GOLDEN[case]

    def test_test_split_written(self, tmp_path):
        out = _simulate(tmp_path, "with-test", test_size=30)
        meta = json.loads((out / "test" / "meta.json").read_text())
        assert meta["n"] == 30 and meta["r"] == 0

    @pytest.mark.parametrize("source", ["blobs", "file"])
    def test_resimulate_without_a_test_split_removes_the_earlier_one(self, tmp_path, source):
        out = _simulate(tmp_path, "d", seed=1, test_size=30)
        assert (out / "test" / "truth.csv").exists()
        if source == "blobs":
            _simulate(tmp_path, "d", seed=2, test_size=0)
        else:  # a file: source writes no test split, whatever --test-size says
            src = tmp_path / "src"
            save_eval_set(RngStream(3).normal((40, 6)), np.arange(40) % 4, src, class_count=4)
            argv = ["simulate", "--features", f"file:{src}",
                    "--patterns", str(_pattern_file(tmp_path, 4, 10)),
                    "--k", "2", "--seed", "2", "--out", str(out), "--test-size", "30"]
            assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "annotations.csv", "features.csv", "meta.json", "truth.csv"]

    def test_stale_test_split_removal_keeps_foreign_files(self, tmp_path):
        out = _simulate(tmp_path, "d", seed=1, test_size=30)
        (out / "test" / "notes.txt").write_text("mine")
        (out / "test" / "features.bin").write_bytes(b"old")
        _simulate(tmp_path, "d", seed=2, test_size=0)
        assert [p.name for p in (out / "test").iterdir()] == ["notes.txt"]
        assert (out / "test" / "notes.txt").read_text() == "mine"

    def test_test_directory_that_is_no_eval_set_is_left_alone(self, tmp_path):
        out = _simulate(tmp_path, "d", seed=1, test_size=0)
        _simulate(tmp_path, "d/test", seed=1, test_size=0)  # a dataset, r > 0
        before = {p.name: p.read_bytes() for p in (out / "test").iterdir()}
        _simulate(tmp_path, "d", seed=2, test_size=0)
        assert {p.name: p.read_bytes() for p in (out / "test").iterdir()} == before

    @pytest.mark.parametrize("flag, value", [
        ("--features", "blobs:N=x,C=3,D=4"),
        ("--features", "blobs:N=30,C=3,D=4,spread=wide"),
        ("--features", "blobs:N=0,C=3,D=4"),
        ("--features", "blobs:N=30,C=1,D=4"),
        ("--features", "blobs:N=30,C=3,D=0"),
        ("--features", "blobs:N=30,C=3,D=1"),     # circle placement needs D >= 2
        ("--features", "blobs:N=30,C=3,D=4,spread=nan"),
        ("--features", "blobs:N=30,C=3,D=4,radius=inf"),
        ("--features", "blobs:N=30,C=3,D=4,spread=-1"),
        ("--test-size", "-5"),             # negative test split size
    ])
    def test_bad_pair_map_or_blobs_value_exit_code(self, tmp_path, capsys, flag, value):
        patterns = tmp_path / "pair.txt"
        patterns.write_text("2 pair 1.0\n")
        out = tmp_path / "bad"
        argv = {"--features": "blobs:N=30,C=3,D=4", "--patterns": str(patterns),
                "--k": "1", "--out": str(out)}
        argv[flag] = value
        assert main(["simulate", *(x for kv in argv.items() for x in kv)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "2 symmetric",              # epsilon missing
        "2 classwise",              # good classes missing
        "-3 symmetric 0.2",         # negative count
        "0 dummy",                  # zero count
        "3 symmetric 0.2 junk",     # extra argument
        "2 dummy 0.5",              # argument to a kind that takes none
    ])
    def test_bad_pattern_line_exit_code(self, tmp_path, capsys, line):
        patterns = tmp_path / "bad.txt"
        patterns.write_text(f"2 symmetric 0.2\n{line}\n")
        out = tmp_path / "bad"
        argv = ["simulate", "--features", "blobs:N=30,C=3,D=4",
                "--patterns", str(patterns), "--k", "1", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("validation error: bad pattern line: ")
        assert err.endswith(f"[{patterns}:2]")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "k must be between 1 and the pool size 3, got 0"),
        ("--k", "4", "k must be between 1 and the pool size 3, got 4"),
        ("--alpha", "-1", "alpha must be finite and positive, got -1.0"),
        ("--beta", "0", "beta must be finite and positive, got 0.0"),
        ("--alpha", "inf", "alpha must be finite and positive, got inf"),
        ("--beta", "1e400", "beta must be finite and positive, got inf"),
    ], ids=["k-zero", "k-above-pool", "alpha-negative", "beta-zero", "alpha-inf",
            "beta-overflow"])
    def test_bad_pool_value_exit_code(self, tmp_path, capsys, flag, value, message):
        patterns = tmp_path / "three.txt"
        patterns.write_text("3 symmetric 0.2\n")
        out = tmp_path / "bad"
        argv = {"--features": "blobs:N=30,C=3,D=4", "--patterns": str(patterns),
                "--k": "1", "--out": str(out)}
        argv[flag] = value
        assert main(["simulate", *(x for kv in argv.items() for x in kv)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not out.exists()

    def test_negative_classwise_class_exit_code(self, tmp_path, capsys):
        patterns = tmp_path / "classwise.txt"
        patterns.write_text("2 symmetric 0.2\n1 classwise -1,2\n")
        out = tmp_path / "bad"
        argv = ["simulate", "--features", "blobs:N=30,C=3,D=4",
                "--patterns", str(patterns), "--k", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == \
            "config error: classwise classes (-1, 2) out of range for C=3"
        assert not out.exists()

    def test_dump_dense_wide_classes_writes_int64_text(self, tmp_path):
        # C = 300 stores the phase-1 table as uint16; the file must read as
        # the same table written from int64.
        out = _simulate(tmp_path, "wide", n=40, c=300, extra=("--dump-dense",),
                        test_size=0)
        master = RngStream(1)
        features, truth = make_blobs(40, 300, 6, 0.2, master.split("features"))
        specs = [PatternSpec("symmetric", epsilon=0.2)] * 5 + \
            [PatternSpec("symmetric", epsilon=0.4)] * 5
        pool = build_pool(specs, 300, k=2, rng=master.split("pool"))
        _, dense = generate(truth, features, pool, master.split("labels"),
                            return_dense=True)
        assert dense.dtype == np.uint16 and dense.max() > 255
        write_dense_labels(tmp_path / "int64.csv", dense.astype(np.int64))
        assert (out / "dense_labels.csv").read_bytes() == \
            (tmp_path / "int64.csv").read_bytes()

    def test_binary_features_through_pipeline(self, tmp_path):
        out = tmp_path / "bin-ds"
        argv = ["simulate", "--features", "blobs:N=60,C=4,D=5,spread=0.2",
                "--patterns", str(_pattern_file(tmp_path, 4, 6)),
                "--k", "2", "--seed", "6", "--out", str(out),
                "--features-format", "bin", "--test-size", "30"]
        assert main(argv) == 0
        assert (out / "features.bin").exists()
        assert not (out / "features.csv").exists()
        run = tmp_path / "bin-run"
        assert main(_train_args(out, run, "majority", epochs=2)) == 0
        assert (run / "run.json").exists()

    def test_file_feature_source(self, tmp_path):
        X = RngStream(3).normal((40, 5))
        y = (np.arange(40) % 4).astype(int)
        src = tmp_path / "src"
        save_eval_set(X, y, src, class_count=4)
        out = tmp_path / "from-file"
        argv = ["simulate", "--features", f"file:{src}",
                "--patterns", str(_pattern_file(tmp_path, 4, 6)),
                "--k", "2", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        ds = load_dataset(out)
        assert np.array_equal(ds.features, X)
        assert np.array_equal(ds.truth, y)


class TestInspect:
    def test_noiseless_stats(self, tmp_path):
        path = tmp_path / "clean"
        argv = ["simulate", "--features", "blobs:N=40,C=4,D=4,spread=0.1",
                "--patterns", str(_noiseless_patterns(tmp_path)),
                "--k", "2", "--seed", "3", "--out", str(path)]
        assert main(argv) == 0
        assert main(["inspect", "--data", str(path)]) == 0
        stats = json.loads((path / "stats.json").read_text())
        assert stats["instance_noise_rate"] == 0.0
        assert stats["annotation_noise_rate"] == 0.0
        assert sum(stats["per_annotator_counts"]) == 80

    def test_counts_sum_to_kn(self, tmp_path):
        ds_dir = _simulate(tmp_path, "c", n=90, k=2)
        assert main(["inspect", "--data", str(ds_dir)]) == 0
        stats = json.loads((ds_dir / "stats.json").read_text())
        assert sum(stats["per_annotator_counts"]) == 180

    def test_same_pattern_pairs_are_closer(self, tmp_path):
        # two well-sampled patterns: within-pattern CM distance must sit
        # below cross-pattern distance
        path = tmp_path / "two"
        patterns = tmp_path / "p2.txt"
        patterns.write_text("2 symmetric 0.1\n2 dummy\n")
        argv = ["simulate", "--features", "blobs:N=4000,C=4,D=3,spread=0.3",
                "--patterns", str(patterns), "--k", "2", "--seed", "4",
                "--out", str(path)]
        assert main(argv) == 0
        assert main(["inspect", "--data", str(path), "--out", str(path)]) == 0
        rows = (path / "cm_distances.csv").read_text().splitlines()[1:]
        dist = np.zeros((4, 4))
        for row in rows:
            a, b, v = row.split(",")
            dist[int(a), int(b)] = float(v)
        within = [dist[0, 1], dist[2, 3]]
        across = [dist[0, 2], dist[0, 3], dist[1, 2], dist[1, 3]]
        assert max(within) < min(across)

    def test_criterion_1_tables_have_the_frozen_digests(self, tmp_path):
        # Digests of the tables as the row-at-a-time formatter wrote them,
        # str for each integer and repr for each distance.
        out = tmp_path / "c1"
        argv = ["simulate", "--features", "blobs:N=45000,C=10,D=16,spread=0.29",
                "--preset", "COR-I", "--annotators", "250", "--k", "3", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert main(["inspect", "--data", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("annotations.csv", "truth.csv", "cm_distances.csv")} == {
            "annotations.csv": "4f4821855920b8d68dfdabe415b5626cedead1e817226fd17b7817b853df6419",
            "truth.csv": "67dab561b53ebb94454cf8eb6fe1ce37921ce3830f64ed570a75b3aaa3be463a",
            "cm_distances.csv": "fb09d8b5190e0790cf51adc456ebbf146a61b3a2f225fc6e79e80a5a457c04ad",
        }

    def test_truthless_inspect_removes_the_earlier_distances(self, tmp_path):
        out = tmp_path / "o"
        assert main(["inspect", "--data", str(_simulate(tmp_path, "a")), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine")
        truthless = _simulate(tmp_path, "b", seed=2)
        (truthless / "truth.csv").unlink()
        assert main(["inspect", "--data", str(truthless), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "stats.json"]
        assert json.loads((out / "stats.json").read_text())["seed"] == 2

    def test_malformed_dataset_exit_code(self, tmp_path):
        ds_dir = _simulate(tmp_path, "bad")
        ann = ds_dir / "annotations.csv"
        ann.write_text(ann.read_text() + "0,999,0\n")
        assert main(["inspect", "--data", str(ds_dir)]) == 3

    @pytest.mark.parametrize("key, value", [
        ("n", -1), ("n", 50.0), ("n", True), ("d", "x"), ("c", None), ("r", -3),
        ("format_version", "1"), ("format_version", 1.0), ("features_file", 7),
        ("features_file", "/features.csv"), ("features_file", "../meta/features.csv"),
    ])
    def test_bad_meta_field_exit_code(self, tmp_path, capsys, key, value):
        ds_dir = _simulate(tmp_path, "meta", test_size=0)
        meta_path = ds_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        assert main(["inspect", "--data", str(ds_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "meta.json" in err
        assert not (ds_dir / "stats.json").exists()


def _noiseless_patterns(tmp_path):
    path = tmp_path / "noiseless.txt"
    path.write_text("4 symmetric 0.0\n")
    return path


def _train_args(ds_dir, out, algo, **kw):
    argv = ["train", "--data", str(ds_dir), "--test", str(ds_dir / "test"),
            "--algo", algo, "--out", str(out),
            "--epochs", str(kw.pop("epochs", 4)),
            "--warmup", str(kw.pop("warmup", 1)),
            "--batch-size", "32", "--lr", "0.2",
            "--meta-size", "8", "--groups", "2",
            "--lr-decay-epoch", "-1",
            "--seed", str(kw.pop("seed", 0))]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    return argv


def _seeds_args(ds_dir, out, seeds, algo="ccc", epochs=2):
    argv = _train_args(ds_dir, out, algo, epochs=epochs)
    argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", seeds]
    return argv


class TestTrain:
    def test_three_algorithms_produce_run_dirs(self, tmp_path):
        ds_dir = _simulate(tmp_path, "t")
        for algo in ("majority", "crowdlayer", "ccc"):
            out = tmp_path / f"run-{algo}"
            assert main(_train_args(ds_dir, out, algo)) == 0
            run = json.loads((out / "run.json").read_text())
            assert run["algo"] == algo
            assert run["seed"] == 0
            assert run["config"]["epochs"] == 4
            curves = (out / "curves.csv").read_text().splitlines()
            assert len(curves) == 1 + 4
        assert (tmp_path / "run-ccc" / "curves.csv").read_text().splitlines()[0] \
            == "epoch,acc_model1,acc_model2"
        assert (tmp_path / "run-majority" / "curves.csv").read_text().splitlines()[0] \
            == "epoch,acc"
        assert (tmp_path / "run-ccc" / "groups.csv").exists()
        assert (tmp_path / "run-ccc" / "confusions.csv").read_text().splitlines()[0] \
            == "model,annotator,row,col,value"

    def test_retrain_removes_the_earlier_algorithms_files(self, tmp_path):
        ds_dir = _simulate(tmp_path, "t")
        out = tmp_path / "run"
        assert main(_train_args(ds_dir, out, "ccc", epochs=2)) == 0
        assert {"model2.bin", "confusions.csv", "groups.csv"} <= {p.name for p in out.iterdir()}
        assert main(_train_args(ds_dir, out, "crowdlayer", epochs=2)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "confusions.csv", "curves.csv", "model1.bin", "run.json"]
        assert main(_train_args(ds_dir, out, "majority", epochs=2)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "model1.bin", "run.json"]
        again = tmp_path / "fresh"
        assert main(_train_args(ds_dir, again, "majority", epochs=2)) == 0
        assert (out / "model1.bin").read_bytes() == (again / "model1.bin").read_bytes()

    @pytest.mark.parametrize("algo", ["majority", "crowdlayer", "ccc"])
    def test_empty_dataset_or_eval_set_exit_code(self, tmp_path, capsys, algo):
        ds_dir = _simulate(tmp_path, "full")
        empty = tmp_path / "empty"
        none = np.zeros(0, dtype=np.int64)
        save_dataset(CrowdDataset(np.zeros((0, 6)), 4, 10, none, none, none, truth=none), empty)
        save_eval_set(np.zeros((0, 6)), none, empty / "test", 4)
        for data, test in ((empty, ds_dir / "test"), (ds_dir, empty / "test")):
            out = tmp_path / f"run-{data.name}"
            argv = _train_args(data, out, algo)
            argv[argv.index("--test") + 1] = str(test)
            assert main(argv) == 3
            assert "nonempty" in capsys.readouterr().err
            assert not out.exists()

    def test_ccc_gamma_zero_matches_crowdlayer_curve(self, tmp_path):
        ds_dir = _simulate(tmp_path, "red")
        out_cl = tmp_path / "cl"
        out_ccc = tmp_path / "ccc0"
        assert main(_train_args(ds_dir, out_cl, "crowdlayer", seed=7)) == 0
        assert main(_train_args(ds_dir, out_ccc, "ccc", seed=7, gamma=0.0)) == 0
        cl_rows = (out_cl / "curves.csv").read_text().splitlines()[1:]
        ccc_rows = (out_ccc / "curves.csv").read_text().splitlines()[1:]
        cl_acc = [row.split(",")[1] for row in cl_rows]
        ccc_acc1 = [row.split(",")[1] for row in ccc_rows]
        assert cl_acc == ccc_acc1

    def test_seeds_aggregate(self, tmp_path):
        ds_dir = _simulate(tmp_path, "agg")
        out = tmp_path / "agg-run"
        argv = _train_args(ds_dir, out, "majority")
        argv.remove("--seed")
        argv.remove("0")
        argv += ["--seeds", "1,2,3,4,5"]
        assert main(argv) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2, 3, 4, 5]
        assert len(agg["best"]["model1"]["values"]) == 5
        assert len(agg["last"]["model1"]["values"]) == 5
        for s in (1, 2, 3, 4, 5):
            assert (out / f"seed-{s}" / "run.json").exists()

    def test_threaded_replicates_match_sequential(self, tmp_path):
        # each seed-N/ of a --seeds run is the run that --seed N writes
        ds_dir = _simulate(tmp_path, "thr")
        out = tmp_path / "thr-seeds"
        argv = _train_args(ds_dir, out, "ccc")
        argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", "1,2,3"]
        assert main(argv) == 0
        for seed in (1, 2, 3):
            alone = tmp_path / f"thr-{seed}"
            assert main(_train_args(ds_dir, alone, "ccc", seed=seed)) == 0
            replicate = out / f"seed-{seed}"
            names = sorted(p.name for p in alone.iterdir())
            assert names == sorted(p.name for p in replicate.iterdir())
            assert {"run.json", "curves.csv", "confusions.csv", "model1.bin",
                    "model2.bin"} <= set(names)
            for name in names:
                if name == "run.json":
                    runs = [json.loads((d / name).read_text()) for d in (alone, replicate)]
                    for run in runs:
                        run.pop("wall_time_sec")
                    assert runs[0] == runs[1]
                else:
                    assert (alone / name).read_bytes() == (replicate / name).read_bytes()

    def test_single_run_replaces_an_earlier_seeds_run(self, tmp_path):
        ds_dir = _simulate(tmp_path, "mix")
        out = tmp_path / "mix-run"
        argv = _train_args(ds_dir, out, "ccc", epochs=2)
        argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", "1,2"]
        assert main(argv) == 0
        (out / "notes.txt").write_text("kept")
        (out / "seed-2" / "notes.txt").write_text("kept")
        (out / "seed-7").mkdir()  # holds no run.json: not a replicate
        (out / "seed-7" / "model1.bin").write_text("kept")
        assert main(_train_args(ds_dir, out, "ccc", epochs=2, seed=3)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "confusions.csv", "curves.csv", "groups.csv", "model1.bin", "model2.bin",
            "notes.txt", "run.json", "seed-2", "seed-7"]
        assert [p.name for p in (out / "seed-2").iterdir()] == ["notes.txt"]
        assert [p.name for p in (out / "seed-7").iterdir()] == ["model1.bin"]

    def test_seeds_run_replaces_an_earlier_single_run(self, tmp_path):
        ds_dir = _simulate(tmp_path, "mix")
        out = tmp_path / "mix-run"
        assert main(_train_args(ds_dir, out, "ccc", epochs=2, seed=3)) == 0
        (out / "notes.txt").write_text("kept")
        argv = _train_args(ds_dir, out, "ccc", epochs=2)
        argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", "1,2"]
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.json", "notes.txt", "seed-1", "seed-2"]

    def test_seeds_run_replaces_an_earlier_seeds_run(self, tmp_path):
        ds_dir = _simulate(tmp_path, "mix")
        out = tmp_path / "mix-run"
        assert main(_seeds_args(ds_dir, out, "1,2,3")) == 0
        (out / "notes.txt").write_text("kept")
        (out / "seed-2" / "notes.txt").write_text("kept")
        assert main(_seeds_args(ds_dir, out, "4,5")) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.json", "notes.txt", "seed-2", "seed-4", "seed-5"]
        assert [p.name for p in (out / "seed-2").iterdir()] == ["notes.txt"]
        assert json.loads((out / "aggregate.json").read_text())["seeds"] == [4, 5]

    def test_seeds_run_rejected_in_its_first_seed_keeps_the_earlier_run(self, tmp_path, capsys):
        ds_dir = _simulate(tmp_path, "rej")
        out = tmp_path / "rej-run"
        assert main(_seeds_args(ds_dir, out, "1,2")) == 0
        before = _seeds_run(out)
        assert before is not None
        argv = _seeds_args(ds_dir, out, "3,4")
        argv[argv.index("--lr") + 1] = "1e200"
        capsys.readouterr()
        assert main(argv) == 2
        assert "diverged in epoch 0" in capsys.readouterr().err
        assert _seeds_run(out) == before

    def test_seeds_run_with_model2_in_process_writes_the_same(self, tmp_path, monkeypatch):
        # A callback keeps ccc's model2 in the caller's process.
        from ccc import cli, training

        ds_dir = _simulate(tmp_path, "par")
        outs = [tmp_path / "forked", tmp_path / "in-process"]
        for out in outs:
            argv = _train_args(ds_dir, out, "ccc", epochs=3, warmup=0)
            argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", "1,2"]
            assert main(argv) == 0
            monkeypatch.setattr(cli, "train", lambda *args: training.train(
                *args, on_step=lambda info: None))
        assert (outs[0] / "aggregate.json").read_bytes() == \
            (outs[1] / "aggregate.json").read_bytes()
        for seed in (1, 2):
            for name in ("curves.csv", "confusions.csv", "groups.csv", "model1.bin",
                         "model2.bin"):
                assert (outs[0] / f"seed-{seed}" / name).read_bytes() == \
                    (outs[1] / f"seed-{seed}" / name).read_bytes()

    def test_model2_error_exit_code(self, tmp_path, capsys, monkeypatch):
        from ccc import training

        def failing(state, epoch, tag, phase):
            if tag == "model2" and epoch == 2:
                raise ConfigError(f"model2 failed in epoch {epoch}")

        monkeypatch.setattr(training, "_check_finite", failing)  # the fork inherits it
        ds_dir = _simulate(tmp_path, "fail")
        capsys.readouterr()
        out = tmp_path / "fail-run"
        assert main(_train_args(ds_dir, out, "ccc", epochs=4)) == 2
        assert capsys.readouterr().err == "config error: model2 failed in epoch 2\n"
        assert not out.exists()

    def test_ccc_config_that_data_cannot_meet_exit_code(self, tmp_path):
        ds_dir = _simulate(tmp_path, "bad", c=4, r=10)
        for name, flags in (("meta", {"meta-size": 3}), ("groups", {"groups": 11})):
            out = tmp_path / f"bad-{name}"
            assert main(_train_args(ds_dir, out, "ccc", **flags)) == 2
            assert not (out / "run.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_exit_code(self, tmp_path, capsys):
        ds_dir = _simulate(tmp_path, "div")
        capsys.readouterr()
        out = tmp_path / "div-run"
        argv = _train_args(ds_dir, out, "crowdlayer", epochs=3)
        argv[argv.index("--lr") + 1] = "1e200"
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "diverged in epoch 0, model1, crowdlayer phase" in err[0]
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("seeds", [
        pytest.param("1,x", id="1,x-1"),    # seed not an integer
        pytest.param("1,1", id="1,1-1"),    # repeated seed would share seed-1/
        pytest.param("2,1,2", id="1,1-2"),  # repeated, not next to each other
        pytest.param("", id="empty"),       # no seed at all, not one default seed
    ])
    def test_bad_seeds_or_threads_exit_code(self, tmp_path, capsys, seeds):
        ds_dir = _simulate(tmp_path, "seeds")
        out = tmp_path / "seeds-run"
        argv = _train_args(ds_dir, out, "majority")
        argv[argv.index("--seed"):argv.index("--seed") + 2] = ["--seeds", seeds]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if not seeds:
            assert "--seeds must be comma-separated integers, got ''" in err
        assert not out.exists()

    def test_seed_with_seeds_exit_code(self, tmp_path, capsys):
        # Rejected before any data is read: the dataset does not exist.
        out = tmp_path / "both-run"
        argv = _train_args(tmp_path / "missing", out, "majority", seed=5, seeds="1,2")
        assert main(argv) == 2
        assert "--seed and --seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--gamma", "nan", "gamma must be finite and >= 0, got nan"),
        ("--lr", "0", "lr must be finite and > 0, got 0.0"),
    ])
    def test_nonsense_rate_exit_code(self, tmp_path, capsys, flag, value, message):
        # Rejected before any data is read: the dataset does not exist.
        out = tmp_path / "rate-run"
        # Appended after _train_args' own --lr 0.2, so the last one given wins.
        argv = _train_args(tmp_path / "missing", out, "ccc", **{flag[2:]: value})
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not out.exists()

    def test_mlp_without_hidden_units_exit_code(self, tmp_path, capsys):
        # Rejected before any data is read: the dataset does not exist.
        out = tmp_path / "mlp-run"
        argv = _train_args(tmp_path / "missing", out, "majority", model="mlp",
                           **{"hidden-dim": 0})
        assert main(argv) == 2
        assert "hidden_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_artifact_write_leaves_no_run_json(self, tmp_path, monkeypatch):
        ds_dir = _simulate(tmp_path, "io")

        def fail(path, confusions):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr("ccc.cli._write_confusions", fail)
        out = tmp_path / "io-run"
        assert main(_train_args(ds_dir, out, "crowdlayer", epochs=2)) == 4
        assert (out / "curves.csv").exists()
        assert not (out / "run.json").exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        ds_dir = _simulate(tmp_path, "cfg")
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=3\nlr=0.05\nbatch-size=16  # comment\n")
        out = tmp_path / "cfg-run"
        argv = ["train", "--data", str(ds_dir), "--test", str(ds_dir / "test"),
                "--algo", "majority", "--out", str(out),
                "--config", str(cfg), "--lr", "0.2", "--lr-decay-epoch", "-1",
                "--seed", "0"]
        assert main(argv) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["epochs"] == 3          # from file
        assert run["config"]["lr"] == 0.2            # flag wins
        assert run["config"]["batch_size"] == 16     # from file

    @pytest.mark.parametrize("fmt, split", [("csv", "train"), ("csv", "test"),
                                            ("bin", "train")])
    def test_non_finite_feature_exit_code(self, tmp_path, capsys, fmt, split):
        ds_dir = _simulate(tmp_path, "nf", extra=("--features-format", fmt))
        directory = ds_dir if split == "train" else ds_dir / "test"
        if fmt == "csv":
            path = directory / "features.csv"
            lines = path.read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"  # instance 2, on line 4
            path.write_text("\n".join(lines) + "\n")
            where = f"[{path}:4]"
        else:
            path = directory / "features.bin"
            blob = bytearray(path.read_bytes())
            at = 16 + 8 * 6 * 2  # instance 2's first feature, D = 6
            blob[at:at + 8] = struct.pack("<d", float("-inf"))
            path.write_bytes(bytes(blob))
            where = f"[{path}]"
        out = tmp_path / "run"
        assert main(_train_args(ds_dir, out, "majority")) == 3
        err = capsys.readouterr().err.strip()
        assert err == f"validation error: non-finite feature value for instance 2 {where}"
        assert not out.exists()

    def test_mismatched_test_set_rejected(self, tmp_path, capsys):
        ds_dir = _simulate(tmp_path, "mm")
        other = tmp_path / "other-test"
        save_eval_set(RngStream(0).normal((10, 6)), np.zeros(10, dtype=int),
                      other, class_count=9)
        argv = ["train", "--data", str(ds_dir), "--test", str(other),
                "--algo", "majority", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err == "config error: eval set class count 9 != dataset 4"


def _fail_nth_write(mp, n):
    """Make the nth whole-file write from now on raise OSError. Every artifact
    is written through files.atomic_open; returns the paths whose writes began."""
    from ccc import data, files, models

    begun = []

    def atomic_open(path, *args, **kwargs):
        begun.append(path)
        if len(begun) == n:
            raise OSError(f"disk full writing {path}")
        return files.atomic_open(path, *args, **kwargs)

    for module in (data, models):
        mp.setattr(module, "atomic_open", atomic_open)
    return begun


def _loaded(load, directory):
    """The bytes of what load reads from directory, or None if it does not load."""
    try:
        got = load(directory)
    except DataFormatError:
        return None
    values = astuple(got) if isinstance(got, CrowdDataset) else got
    return [v.tobytes() + str(v.shape).encode() if isinstance(v, np.ndarray) else v
            for v in values]


def _seeds_run(out):
    """Every file of a --seeds run directory, or None if it does not load: its
    aggregate.json, or a replicate's run.json, is missing."""
    if not (out / "aggregate.json").exists():
        return None
    seeds = json.loads((out / "aggregate.json").read_text())["seeds"]
    if not all((out / f"seed-{s}" / "run.json").exists() for s in seeds):
        return None
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestCrashConsistency:
    """A command that fails partway leaves each directory it writes either
    unloadable or loading as the previous complete run: it removes the
    directory's marker (meta.json, stats.json, aggregate.json) before its
    first write and writes it after its last."""

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_simulate_failing_at_each_write(self, tmp_path, fmt):
        extra = ("--dump-dense", "--features-format", fmt)
        prev = _simulate(tmp_path, "prev", seed=1, extra=extra, test_size=30)
        before = _loaded(load_dataset, prev), _loaded(load_eval_set, prev / "test")
        # test/ is written whole before the dataset's meta.json, so it may
        # also hold the failed run's complete test set
        new_test = _loaded(load_eval_set, _simulate(tmp_path, "new", seed=2, extra=extra,
                                                    test_size=30) / "test")
        for n in itertools.count(1):
            shutil.copytree(prev, tmp_path / "d")
            with pytest.MonkeyPatch.context() as mp:
                begun = _fail_nth_write(mp, n)
                out = _simulate(tmp_path, "d", seed=2, extra=extra, test_size=30,
                                code=0 if n > 8 else 4)
            if len(begun) < n:
                break
            assert _loaded(load_dataset, out) in (None, before[0])
            assert _loaded(load_eval_set, out / "test") in (None, before[1], new_test)
            shutil.rmtree(out)
        # dense_labels.csv, test/'s three files, then the dataset's four
        assert n == 9 and len(begun) == 8 and begun[-1].name == "meta.json"

    def test_failed_annotations_write_leaves_a_directory_that_does_not_load(
            self, tmp_path, monkeypatch):
        from ccc import data

        out = _simulate(tmp_path, "d", seed=1)
        write_csv = data.write_csv

        def failing(path, *args):
            if path.name == "annotations.csv":
                raise OSError("disk full")
            write_csv(path, *args)

        monkeypatch.setattr(data, "write_csv", failing)
        _simulate(tmp_path, "d", seed=2, code=4)
        with pytest.raises(DataFormatError, match="missing meta.json"):
            load_dataset(out)

    def test_rejected_simulate_keeps_the_earlier_dataset(self, tmp_path):
        out = _simulate(tmp_path, "d", seed=1)
        before = _loaded(load_dataset, out), _loaded(load_eval_set, out / "test")
        _simulate(tmp_path, "d", seed=2, k=99, code=2)  # k above the positive propensities
        assert (_loaded(load_dataset, out), _loaded(load_eval_set, out / "test")) == before

    def test_inspect_failing_at_each_write(self, tmp_path):
        def inspect(data, out, code=0):
            assert main(["inspect", "--data", str(data), "--out", str(out)]) == code
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "notes.txt"}

        prev, new = tmp_path / "prev", _simulate(tmp_path, "new", seed=2)
        before = inspect(_simulate(tmp_path, "old", seed=1), prev)
        (prev / "notes.txt").write_text("mine")
        after = inspect(new, tmp_path / "fresh")
        for n in itertools.count(1):
            out = tmp_path / "o"
            shutil.copytree(prev, out)
            with pytest.MonkeyPatch.context() as mp:
                begun = _fail_nth_write(mp, n)
                files = inspect(new, out, code=0 if n > 2 else 4)
            if len(begun) < n:
                break
            assert "stats.json" not in files or files in (before, after)
            assert (out / "notes.txt").read_text() == "mine"
            shutil.rmtree(out)
        # cm_distances.csv, then stats.json
        assert files == after and n == 3 and begun[-1].name == "stats.json"

    def test_train_seeds_failing_at_each_write(self, tmp_path):
        ds_dir = _simulate(tmp_path, "t")

        def argv(out, epochs):
            args = _train_args(ds_dir, out, "ccc", epochs=epochs)
            args[args.index("--seed"):args.index("--seed") + 2] = ["--seeds", "1,2"]
            return args

        prev = tmp_path / "prev"
        assert main(argv(prev, 2)) == 0
        before = _seeds_run(prev)
        assert before is not None
        for n in itertools.count(1):
            out = tmp_path / "run"
            shutil.copytree(prev, out)
            with pytest.MonkeyPatch.context() as mp:
                begun = _fail_nth_write(mp, n)
                assert main(argv(out, 3)) == (0 if len(begun) < n else 4)
            if len(begun) < n:
                break
            assert _seeds_run(out) in (None, before)
            shutil.rmtree(out)
        # six files per replicate, then aggregate.json
        assert n == 14 and len(begun) == 13 and begun[-1].name == "aggregate.json"


class TestConfigAndDefaults:
    @pytest.mark.parametrize("command, flag, value", [
        (["train", "--data", "d", "--algo", "ccc"], "--v-reset", "epoch"),
        (["train", "--data", "d", "--algo", "ccc"], "--grouping", "joint"),
        (["simulate", "--features", "blobs:N=30,C=2,D=4", "--preset", "IND-I"],
         "--pair-map", "0:1,1:0"),
        # inspect and eval read no config value, so they take no --config
        (["inspect", "--data", "d"], "--config", "c.cfg"),
        (["eval", "--model", "m.bin", "--data", "d"], "--config", "c.cfg"),
    ], ids=["v-reset", "grouping", "pair-map", "inspect-config", "eval-config"])
    def test_removed_flag_rejected_by_argparse(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["learning-rate", "epoch", "batch_size", "algo",
                                     "v-reset", "grouping"])
    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_unknown_config_key_exit_code(self, tmp_path, capsys, command, key):
        ds_dir = _simulate(tmp_path, "typo")
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"epochs=3\n{key}=0.2\n")
        out = tmp_path / "typo-out"
        argv = {"simulate": ["simulate", "--features", "blobs:N=30,C=4,D=6",
                             "--patterns", str(_pattern_file(tmp_path, 4, 10))],
                "train": ["train", "--data", str(ds_dir), "--algo", "majority"]}[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg}:2: unknown config key {key!r}\n"
        assert not out.exists()

    def test_one_config_file_serves_simulate_and_train(self, tmp_path):
        cfg = tmp_path / "both.cfg"
        cfg.write_text("seed=4\nk=2\nepochs=3\n")
        ds_dir = tmp_path / "both"
        assert main(["simulate", "--features", "blobs:N=60,C=4,D=6,spread=0.2",
                     "--patterns", str(_pattern_file(tmp_path, 4, 10)),
                     "--out", str(ds_dir), "--config", str(cfg)]) == 0
        ds = load_dataset(ds_dir)
        assert ds.seed == 4 and ds.annotation_count == 2 * 60
        out = tmp_path / "both-run"
        assert main(["train", "--data", str(ds_dir), "--algo", "majority",
                     "--out", str(out), "--config", str(cfg)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["seed"] == 4 and run["config"]["epochs"] == 3

    def test_train_defaults_are_train_config_defaults(self, tmp_path):
        ds_dir = _simulate(tmp_path, "defaults")
        out = tmp_path / "defaults-run"
        assert main(["train", "--data", str(ds_dir), "--test", str(ds_dir / "test"),
                     "--algo", "crowdlayer", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"] == asdict(TrainConfig(algo="crowdlayer", seed=0))

    def test_simulate_defaults_are_build_pool_defaults(self, tmp_path):
        out = tmp_path / "pool-defaults"
        assert main(["simulate", "--features", "blobs:N=50,C=4,D=6,spread=0.2",
                     "--patterns", str(_pattern_file(tmp_path, 4, 10)),
                     "--out", str(out)]) == 0
        master = RngStream(0)
        features, truth = make_blobs(50, 4, 6, 0.2, master.split("features"))
        specs = [PatternSpec("symmetric", epsilon=0.2)] * 5 + \
            [PatternSpec("symmetric", epsilon=0.4)] * 5
        pool = build_pool(specs, 4, rng=master.split("pool"))
        want = generate(truth, features, pool, master.split("labels"))
        got = load_dataset(out)
        assert got.annotation_count == 50 * pool.k
        for name in ("features", "truth", "ann_instance", "ann_annotator", "ann_label"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_blobs_defaults_are_spread_028_radius_1(self, tmp_path):
        # A blobs source that leaves out spread and radius writes the same
        # bytes as one that gives the values the CLI has always used.
        outs = []
        for name, extra in (("implicit", ""), ("explicit", ",spread=0.28,radius=1.0")):
            out = tmp_path / name
            assert main(["simulate", "--features", f"blobs:N=50,C=4,D=6{extra}",
                         "--patterns", str(_pattern_file(tmp_path, 4, 10)),
                         "--test-size", "20", "--seed", "3", "--out", str(out)]) == 0
            outs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert outs[0] == outs[1]
        assert {str(p) for p in outs[0]} >= {"features.csv", "test/features.csv"}


class TestEval:
    def test_eval_matches_final_training_accuracy(self, tmp_path):
        ds_dir = _simulate(tmp_path, "ev")
        out = tmp_path / "ev-run"
        assert main(_train_args(ds_dir, out, "crowdlayer")) == 0
        run = json.loads((out / "run.json").read_text())
        report = tmp_path / "eval.json"
        assert main(["eval", "--model", str(out / "model1.bin"),
                     "--data", str(ds_dir / "test"), "--out", str(report)]) == 0
        got = json.loads(report.read_text())["accuracy"]
        assert got == run["final_eval"]["model1"]

    def test_hand_eval_three_of_four(self, tmp_path):
        from ccc.models import init_classifier, save_model
        clf = init_classifier("linear", 2, 0, 2, RngStream(0))
        clf.params["W"][:] = np.array([[10.0, -10.0], [0.0, 0.0]])
        clf.params["b"][:] = 0.0
        model = tmp_path / "m.bin"
        save_model(clf, model)
        X = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [-1.0, 0]])
        save_eval_set(X, np.zeros(4, dtype=int), tmp_path / "data", class_count=2)
        report = tmp_path / "r.json"
        assert main(["eval", "--model", str(model), "--data",
                     str(tmp_path / "data"), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["accuracy"] == 0.75

    def test_dim_mismatch_exit_code(self, tmp_path, capsys):
        from ccc.models import init_classifier, save_model
        clf = init_classifier("linear", 3, 0, 2, RngStream(0))
        model = tmp_path / "m.bin"
        save_model(clf, model)
        save_eval_set(np.zeros((4, 2)), np.zeros(4, dtype=int),
                      tmp_path / "data", class_count=2)
        assert main(["eval", "--model", str(model),
                     "--data", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "config error: eval set feature dim 2 != model 3"

    def test_truncated_model_header_exit_code(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        model.write_bytes(b"CCCM\x01\x00")
        save_eval_set(np.zeros((4, 2)), np.zeros(4, dtype=int), tmp_path / "data",
                      class_count=2)
        assert main(["eval", "--model", str(model), "--data", str(tmp_path / "data")]) == 3
        assert capsys.readouterr().err == f"validation error: {model}: truncated model blob\n"

    def test_empty_eval_set_exit_code(self, tmp_path, capsys):
        from ccc.models import init_classifier, save_model
        model = tmp_path / "m.bin"
        save_model(init_classifier("linear", 2, 0, 2, RngStream(0)), model)
        save_eval_set(np.zeros((0, 2)), np.zeros(0, dtype=int), tmp_path / "data",
                      class_count=2)
        report = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model), "--data", str(tmp_path / "data"),
                     "--out", str(report)]) == 3
        assert "nonempty" in capsys.readouterr().err
        assert not report.exists()


class TestPipelineDeterminism:
    def test_simulate_train_eval_twice_byte_identical(self, tmp_path):
        artifacts = {}
        for tag in ("one", "two"):
            ds_dir = _simulate(tmp_path, f"ds-{tag}", seed=5)
            out = tmp_path / f"run-{tag}"
            assert main(_train_args(ds_dir, out, "ccc", seed=5)) == 0
            run = json.loads((out / "run.json").read_text())
            run.pop("wall_time_sec")
            artifacts[tag] = (
                (ds_dir / "annotations.csv").read_bytes(),
                (out / "curves.csv").read_bytes(),
                json.dumps(run, sort_keys=True),
            )
        assert artifacts["one"] == artifacts["two"]
