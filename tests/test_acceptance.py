"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements. Everything is seeded and deterministic.
"""

import itertools
import json
import time

import numpy as np

from ccc import kernels
from ccc.cli import main as cli_main
from ccc.data import (CrowdDataset, annotation_histogram, annotation_noise_rate,
                      instance_noise_rate, load_dataset, make_blobs,
                      save_dataset, true_confusion_matrix, evaluate_accuracy)
from ccc.models import (PARAM_KEYS, batch_forward, init_classifier,
                        last_layer_snapshot, loss_and_grads, sgd_step,
                        single_label_ce)
from ccc.numerics import CE_FLOOR, softmax_rows
from ccc.rng import RngStream
from ccc.simulate import AnnotatorPool, PatternSpec, build_pool, generate
from ccc.training import (Batch, TrainConfig, aggregate_majority,
                          correction_gradient, group_annotators, train)

# Desk-scale experiment configuration (criterion 2): blob geometry chosen
# so a linear softmax reaches ~95% clean-label test accuracy; training
# setup chosen so transition misestimation actually costs the baseline
# (high-capacity MLP, no weight decay, long run without lr decay).
SPREAD = 0.29
DESK = dict(epochs=120, warmup=10, batch_size=128, meta_batch=200, lr=0.05,
            momentum=0.9, weight_decay=0.0, gamma=0.5, meta_size=200,
            groups=5, lr_decay_epoch=None, model="mlp", hidden_dim=128,
            confusion_init="identity")


def _desk_dataset(seed):
    master = RngStream(seed)
    X, y = make_blobs(2000, 10, 16, SPREAD, master.split("features"))
    Xt, yt = make_blobs(1000, 10, 16, SPREAD, master.split("test-features"))
    pool = build_pool("IND-I", 10, R=50, k=3, rng=master.split("pool"))
    ds = generate(y, X, pool, master.split("labels"))
    return ds, pool, (Xt, yt)


def test_criterion_01_noise_rate_reproduction():
    refs = {"IND-I": (19.61, 56.88), "IND-II": (26.87, 63.44)}
    truth = (np.arange(45_000) % 10).astype(np.int64)
    feats = np.zeros((45_000, 1))
    for preset, (nr1_ref, nr2_ref) in refs.items():
        t0 = time.perf_counter()
        nr1s, nr2s = [], []
        for seed in (1, 2, 3):
            master = RngStream(seed)
            pool = build_pool(preset, 10, rng=master.split("pool"))
            ds = generate(truth, feats, pool, master.split("labels"))
            assert ds.annotation_count == 3 * 45_000
            nr1s.append(100 * instance_noise_rate(ds))
            nr2s.append(100 * annotation_noise_rate(ds))
        elapsed = time.perf_counter() - t0
        nr1, nr2 = np.mean(nr1s), np.mean(nr2s)
        assert abs(nr1 - nr1_ref) <= 2.0, f"{preset} NR1 {nr1:.2f} vs {nr1_ref}±2.0"
        assert abs(nr2 - nr2_ref) <= 3.0, f"{preset} NR2 {nr2:.2f} vs {nr2_ref}±3.0"
        assert elapsed < 60.0
        print(f"[PASS] criterion 1 {preset}: NR1 {nr1:.2f} (ref {nr1_ref}±2.0), "
              f"NR2 {nr2:.2f} (ref {nr2_ref}±3.0), {elapsed:.1f}s")


def test_criterion_02_algorithm_ordering():
    t0 = time.perf_counter()
    # data-generation sanity: the chosen spread gives ~95% clean linear accuracy
    master = RngStream(1)
    X, y = make_blobs(2000, 10, 16, SPREAD, master.split("features"))
    Xt, yt = make_blobs(1000, 10, 16, SPREAD, master.split("test-features"))
    lin = init_classifier("linear", 16, 0, 10, master.split("init"))
    rng = master.split("batches")
    for epoch in range(60):
        lr = 0.1 if epoch < 40 else 0.01
        perm = rng.permutation(2000)
        for lo in range(0, 2000, 128):
            sel = perm[lo:lo + 128]
            _, g = loss_and_grads(lin, X[sel], single_label_ce(y[sel]))
            sgd_step(lin, g, lr, 0.9, 5e-4)
    clean_acc = evaluate_accuracy(lin, Xt, yt)
    assert 0.92 <= clean_acc <= 0.98, f"clean linear accuracy {clean_acc:.3f}"

    mv_last, cl_last, ccc_last = [], [], []
    for seed in (1, 2, 3, 4, 5):
        ds, _, ev = _desk_dataset(seed)
        cfg = dict(DESK, seed=seed)
        res_mv = train(ds, TrainConfig(algo="majority", **cfg), ev)
        res_cl = train(ds, TrainConfig(algo="crowdlayer", **cfg), ev)
        merged = train(ds, TrainConfig(algo="ccc", **cfg), ev)
        mv_last.append(res_mv.last["model1"])
        cl_last.append(res_cl.last["model1"])
        ccc_last.append(merged.last["mean"])
    elapsed = time.perf_counter() - t0
    mv, cl, ccc = np.mean(mv_last), np.mean(cl_last), np.mean(ccc_last)
    assert ccc - cl >= 0.02, f"CCC {ccc:.4f} vs CrowdLayer {cl:.4f}: gap < 2pp"
    assert cl - mv >= 0.01, f"CrowdLayer {cl:.4f} vs MajorityVote {mv:.4f}: gap < 1pp"
    assert elapsed < 600.0
    print(f"[PASS] criterion 2: clean linear {clean_acc:.3f}; mean last "
          f"MV {mv:.4f} < CL {cl:.4f} (+{100 * (cl - mv):.2f}pp) "
          f"< CCC {ccc:.4f} (+{100 * (ccc - cl):.2f}pp), {elapsed:.0f}s")


def test_criterion_03_hypergradient_oracle():
    # tiny instance: D=4, C=3, R=2, G=1, linear classifier, batch 4, meta 4
    rng = RngStream(11)
    D, C, R, G, n, m = 4, 3, 2, 1, 4, 4
    clf = init_classifier("linear", D, 0, C, rng.split("init"))
    X = rng.normal((n, D))
    Xm = rng.normal((m, D))
    ym = rng.gen.integers(0, C, m).astype(np.int64)
    ann_i = np.array([0, 1, 2, 3, 0, 2], dtype=np.int64)
    ann_r = np.array([0, 1, 0, 1, 1, 1], dtype=np.int64)
    ann_y = np.array([0, 2, 1, 0, 2, 2], dtype=np.int64)
    T = np.stack([np.eye(C) + 0.05 * rng.normal((C, C)) for _ in range(R)])
    V = 0.03 * rng.normal((G, C, C))
    group_of = np.zeros(R, dtype=np.int64)
    batch = Batch(features=X, ann_instance=ann_i, ann_annotator=ann_r,
                  ann_label=ann_y)
    eta_v = 0.37

    def primal(Vx):
        W, b, pen = last_layer_snapshot(clf)
        M = T + Vx[group_of]
        _, H, P = batch_forward(clf, X)
        _, dZ, _ = kernels.crowd_grads(P, ann_i, ann_r, ann_y, M, R)
        a = ann_i.shape[0]
        W_hat = W - eta_v * (H.T @ dZ / a)
        b_hat = b - eta_v * (dZ.sum(axis=0) / a)
        Pm = softmax_rows(pen(Xm) @ W_hat + b_hat)
        return float(-np.log(np.maximum(Pm[np.arange(m), ym], CE_FLOOR)).mean())

    t0 = time.perf_counter()
    g = correction_gradient(clf, T, V, group_of, batch, Xm, ym, eta_v)
    h = 1e-4
    num = np.zeros_like(V)
    for i in range(C):
        for j in range(C):
            Vp, Vm_ = V.copy(), V.copy()
            Vp[0, i, j] += h
            Vm_[0, i, j] -= h
            num[0, i, j] = (primal(Vp) - primal(Vm_)) / (2 * h)
    elapsed = time.perf_counter() - t0
    rel = np.abs(g - num) / np.maximum(np.abs(num), 1e-10)
    assert rel.max() < 1e-4, f"max rel err {rel.max():.2e}"
    assert elapsed < 1.0
    print(f"[PASS] criterion 3: hypergradient max rel err {rel.max():.2e} "
          f"over {num.size} entries, {elapsed * 1000:.0f}ms")


def test_criterion_04_reduction_equivalence():
    t0 = time.perf_counter()
    master = RngStream(7)
    X, y = make_blobs(600, 10, 8, SPREAD, master.split("features"))
    Xt, yt = make_blobs(300, 10, 8, SPREAD, master.split("test-features"))
    pool = build_pool("IND-I", 10, R=20, k=3, rng=master.split("pool"))
    ds = generate(y, X, pool, master.split("labels"))
    cfg = dict(epochs=20, warmup=5, batch_size=64, meta_batch=50, lr=0.05,
               momentum=0.9, weight_decay=5e-4, meta_size=100, groups=5,
               seed=13, lr_decay_epoch=None, model="mlp", hidden_dim=32)
    res = train(ds, TrainConfig(algo="ccc", gamma=0.0, **cfg), (Xt, yt))
    ref1 = train(ds, TrainConfig(algo="crowdlayer", **cfg), (Xt, yt),
                 model_tag="model1")
    ref2 = train(ds, TrainConfig(algo="crowdlayer", **cfg), (Xt, yt),
                 model_tag="model2")
    elapsed = time.perf_counter() - t0
    assert res.curves["model1"] == ref1.curves["model1"]
    assert res.curves["model2"] == ref2.curves["model2"]
    assert len(res.curves["model1"]) == 20
    assert elapsed < 60.0
    print(f"[PASS] criterion 4: gamma=0 curves bitwise equal over 20 epochs "
          f"for both coupled models, {elapsed:.1f}s")


def test_criterion_05_sparsity_gradient_law():
    master = RngStream(5)
    X, y = make_blobs(320, 6, 6, SPREAD, master.split("features"))
    pool = build_pool([PatternSpec("symmetric", epsilon=0.3)] * 12, 6, k=2,
                      rng=master.split("pool"))
    ds = generate(y, X, pool, master.split("labels"))
    steps = 0
    violations = 0

    def check(info):
        nonlocal steps, violations
        steps += 1
        absent = np.setdiff1d(np.arange(ds.annotator_count), info["present"])
        for r in absent:
            if not (info["dT"][r] == 0.0).all():
                violations += 1

    cfg = TrainConfig(algo="ccc", epochs=10, warmup=4, batch_size=32,
                      meta_batch=30, lr=0.05, momentum=0.9, weight_decay=0.0,
                      gamma=0.5, meta_size=60, groups=3, seed=2,
                      lr_decay_epoch=None, model="linear", hidden_dim=0)
    train(ds, cfg, (X, y), on_step=check)
    assert steps >= 100, f"only {steps} steps observed"
    assert violations == 0
    print(f"[PASS] criterion 5: exact-zero transition gradients for absent "
          f"annotators in all {steps} steps (warmup and corrected)")


def test_criterion_06_first_order_gradient_oracle():
    def mean_loss(clf, X, loss_def):
        _, _, P = batch_forward(clf, X)
        losses, _ = loss_def(P)
        return float(losses.mean())

    t0 = time.perf_counter()
    worst = 0.0
    for kind, hidden in (("linear", 0), ("mlp", 5)):
        rng = RngStream(31 if kind == "linear" else 32)
        for trial in range(20):
            D = 2 + trial % 5
            C = 2 + trial % 4
            clf = init_classifier(kind, D, hidden, C, rng.split(f"c{trial}"))
            X = rng.split(f"x{trial}").normal((6, D))
            labels = rng.gen.integers(0, C, 6).astype(np.int64)
            loss_def = single_label_ce(labels)
            _, grads = loss_and_grads(clf, X, loss_def)
            h = 1e-5
            for key in PARAM_KEYS[kind]:
                arr = clf.params[key]
                flat = arr.ravel()
                g = grads[key].ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = mean_loss(clf, X, loss_def)
                    flat[idx] = orig - h
                    lm = mean_loss(clf, X, loss_def)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"worst rel err {worst:.2e}"
    assert elapsed < 5.0
    print(f"[PASS] criterion 6: 20 nets per kind, worst coordinate rel err "
          f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_confusion_recovery():
    specs = [PatternSpec("symmetric", epsilon=0.3), PatternSpec("dummy")]
    pool = AnnotatorPool(specs, np.array([0.5, 0.5]), k=1, alpha=1.5, beta=3.0,
                         class_count=10)
    truth = (np.arange(100_000) % 10).astype(np.int64)
    ds = generate(truth, np.zeros((100_000, 1)), pool, RngStream(8))
    hist = annotation_histogram(ds)
    assert hist.min() >= 5000
    cm_sym = true_confusion_matrix(ds, 0)
    theory = np.full((10, 10), 0.3 / 9)
    np.fill_diagonal(theory, 0.7)
    err_sym = np.abs(cm_sym - theory).max()
    cm_dummy = true_confusion_matrix(ds, 1)
    err_dummy = np.abs(cm_dummy - 0.1).max()
    assert err_sym < 0.02
    assert err_dummy < 0.02
    print(f"[PASS] criterion 7: symmetric-0.3 CM within {err_sym:.4f} of theory, "
          f"dummy within {err_dummy:.4f} of uniform "
          f"({hist.min()} labels minimum)")


def test_criterion_08_grouping_recovery():
    # clean transition estimates: vote-based init, full-batch warmup
    scores = {}
    for seed in (1, 5):
        master = RngStream(seed)
        X, y = make_blobs(2000, 10, 16, SPREAD, master.split("features"))
        pool = build_pool("IND-I", 10, R=50, k=3, rng=master.split("pool"))
        ds = generate(y, X, pool, master.split("labels"))
        counts = annotation_histogram(ds)
        cfg = dict(epochs=200, warmup=10, batch_size=2000, meta_batch=200,
                   lr=0.1, momentum=0.9, weight_decay=0.0, gamma=0.5,
                   meta_size=200, groups=5, seed=seed, lr_decay_epoch=None,
                   model="mlp", hidden_dim=128, confusion_init="votes")
        st1 = train(ds, TrainConfig(algo="crowdlayer", **cfg),
                    (X, y)).states["model1"]
        st2 = train(ds, TrainConfig(algo="crowdlayer", **cfg),
                    (X, y), model_tag="model2").states["model2"]
        groups = group_annotators([st1.confusions.T, st2.confusions.T], 5,
                                  master.split("kmeans"), restarts=10)
        well = counts >= 100
        best = 0.0
        for perm in itertools.permutations(range(5)):
            mapped = np.array([perm[g] for g in groups])
            best = max(best, float((mapped[well] == pool.group_of[well]).mean()))
        scores[seed] = (best, int(well.sum()))
        assert best >= 0.80, f"seed {seed}: agreement {best:.3f}"
    detail = ", ".join(f"seed {s}: {v:.3f} over {n} annotators"
                       for s, (v, n) in scores.items())
    print(f"[PASS] criterion 8: grouping recovery {detail}")


def test_criterion_09_majority_vote_oracle():
    rng = RngStream(42)
    ties = 0
    multisets, expected = [], []
    for _ in range(1000):
        size = 1 + int(rng.gen.integers(0, 8))
        labels = [int(rng.gen.integers(0, 6)) for _ in range(size)]
        counts = [sum(1 for v in labels if v == c) for c in range(6)]
        top = max(counts)
        expected.append(counts.index(top))  # lowest class index among ties
        if counts.count(top) > 1:
            ties += 1
        multisets.append(labels)
    # one instance per multiset; annotator id = position in the multiset
    sizes = [len(m) for m in multisets]
    ds = CrowdDataset(
        features=np.zeros((1000, 1)), class_count=6, annotator_count=max(sizes),
        ann_instance=np.repeat(np.arange(1000, dtype=np.int64), sizes),
        ann_annotator=np.concatenate([np.arange(s, dtype=np.int64) for s in sizes]),
        ann_label=np.concatenate([np.asarray(m, dtype=np.int64) for m in multisets]))
    ds.validate()
    assert aggregate_majority(ds).tolist() == expected
    assert ties > 0, "tie cases should occur in 1000 random multisets"
    print(f"[PASS] criterion 9: 1000 multisets match the brute-force oracle "
          f"({ties} tie cases included)")


def test_criterion_10_determinism_and_io(tmp_path):
    artifacts = {}
    for tag in ("one", "two"):
        ds_dir = tmp_path / f"ds-{tag}"
        run_dir = tmp_path / f"run-{tag}"
        ev_path = tmp_path / f"eval-{tag}.json"
        assert cli_main([
            "simulate", "--features", "blobs:N=300,C=10,D=6,spread=0.25",
            "--preset", "IND-I", "--annotators", "15", "--k", "3",
            "--seed", "17", "--out", str(ds_dir), "--test-size", "150"]) == 0
        assert cli_main([
            "train", "--data", str(ds_dir), "--test", str(ds_dir / "test"),
            "--algo", "ccc", "--out", str(run_dir), "--seed", "17",
            "--epochs", "8", "--warmup", "2", "--batch-size", "64",
            "--lr", "0.05", "--meta-size", "50", "--groups", "3",
            "--lr-decay-epoch", "-1"]) == 0
        assert cli_main([
            "eval", "--model", str(run_dir / "model1.bin"),
            "--data", str(ds_dir / "test"), "--out", str(ev_path)]) == 0
        run = json.loads((run_dir / "run.json").read_text())
        run.pop("wall_time_sec")
        ev = json.loads(ev_path.read_text())
        artifacts[tag] = (
            (ds_dir / "annotations.csv").read_bytes(),
            (run_dir / "curves.csv").read_bytes(),
            json.dumps(run, sort_keys=True),
            (ev["accuracy"], ev["n"]),
        )
        # save/load roundtrip identity on the generated dataset
        ds = load_dataset(ds_dir)
        resaved = tmp_path / f"resave-{tag}"
        save_dataset(ds, resaved)
        for name in ("meta.json", "features.csv", "annotations.csv", "truth.csv"):
            assert (resaved / name).read_bytes() == (ds_dir / name).read_bytes()
    assert artifacts["one"] == artifacts["two"]
    print("[PASS] criterion 10: simulate/train/eval byte-identical across "
          "reruns; dataset save/load roundtrip is the identity")
