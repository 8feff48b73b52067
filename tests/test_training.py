import copy
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ccc.data import CrowdDataset, make_blobs, save_dataset
from ccc.errors import ConfigError, ContractError
from ccc.kernels import EPS, GRAD_FLOOR
from ccc.models import batch_forward, hidden_layer, init_classifier, last_layer
from ccc.numerics import CE_FLOOR, kmeans, softmax_rows
from ccc.rng import RngStream
from ccc.simulate import PatternSpec, build_pool, generate
from ccc.training import (Batch, ModelState, TrainConfig, aggregate_majority,
                          auto_meta_lr, correction_gradient, distill_meta_set,
                          group_annotators, init_confusion_votes, make_batch,
                          train, _crowd_step, _init_confusions)
from ccc import kernels, training


def _blob_crowd(seed=0, n=120, c=4, d=6, r=8, k=2, spread=0.2, eps=0.3):
    master = RngStream(seed)
    X, y = make_blobs(n, c, d, spread, master.split("feat"))
    specs = [PatternSpec("symmetric", epsilon=eps)] * r
    pool = build_pool(specs, c, k=k, rng=master.split("pool"))
    return generate(y, X, pool, master.split("lab"))


def _tiny_cfg(**kw):
    base = dict(algo="crowdlayer", epochs=3, warmup=1, batch_size=32,
                meta_batch=8, lr=0.2, momentum=0.9, weight_decay=5e-4,
                gamma=0.5, meta_size=8, groups=2, seed=0,
                lr_decay_epoch=None, model="linear", hidden_dim=0)
    base.update(kw)
    return TrainConfig(**base)


def _multiset_dataset(multisets, class_count):
    """One instance per label multiset; annotator id = position in the multiset."""
    sizes = [len(m) for m in multisets]
    return CrowdDataset(
        features=np.zeros((len(multisets), 1)), class_count=class_count,
        annotator_count=max(max(sizes), 1),
        ann_instance=np.repeat(np.arange(len(multisets), dtype=np.int64), sizes),
        ann_annotator=np.concatenate([np.arange(s, dtype=np.int64) for s in sizes]),
        ann_label=np.concatenate([np.asarray(m, dtype=np.int64) for m in multisets]))


class TestMajorityVote:
    def test_clear_majority(self):
        assert aggregate_majority(_multiset_dataset([[1, 1, 2]], 3)).tolist() == [1]

    def test_tie_breaks_low(self):
        assert aggregate_majority(_multiset_dataset([[0, 1], [2, 1]], 3)).tolist() == [0, 1]

    def test_empty_rejected(self):
        for multisets in ([[]], [[1], []]):
            with pytest.raises(ContractError):
                aggregate_majority(_multiset_dataset(multisets, 3))

    def test_random_multisets_vs_bruteforce(self):
        rng = RngStream(42)
        multisets, expected = [], []
        for _ in range(1000):
            size = 1 + int(rng.gen.integers(0, 7))
            labels = [int(rng.gen.integers(0, 5)) for _ in range(size)]
            # brute force: count every class, take the lowest argmax
            best, best_count = None, -1
            for c in range(5):
                count = sum(1 for v in labels if v == c)
                if count > best_count:
                    best, best_count = c, count
            multisets.append(labels)
            expected.append(best)
        assert aggregate_majority(_multiset_dataset(multisets, 5)).tolist() == expected

    def test_aggregate(self):
        ds = CrowdDataset(
            features=np.zeros((2, 1)), class_count=3, annotator_count=3,
            ann_instance=np.array([0, 0, 0, 1, 1]),
            ann_annotator=np.array([0, 1, 2, 0, 1]),
            ann_label=np.array([2, 2, 0, 1, 0]))
        assert aggregate_majority(ds).tolist() == [2, 0]


def _instance_loss(p, T, label, V=None):
    """crowd_grads' loss on a one-annotation batch with M = T (+ V)."""
    M = np.asarray(T, dtype=np.float64) + (0.0 if V is None else V)
    zero = np.zeros(1, dtype=np.int64)
    loss, _, _ = kernels.crowd_grads(np.asarray(p, dtype=np.float64)[None, :], zero, zero,
                                     np.array([label], dtype=np.int64), M[None], 1)
    return loss


class TestInstanceLoss:
    def test_identity_reduces_to_ce(self):
        p = np.array([0.2, 0.5, 0.3])
        assert _instance_loss(p, np.eye(3), 1) == pytest.approx(-np.log(0.5))

    def test_rank_one_collapse(self):
        p = np.array([0.9, 0.05, 0.05])
        T = np.full((3, 3), 1 / 3)
        assert _instance_loss(p, T, 2) == pytest.approx(np.log(3))

    def test_hand_product(self):
        p = np.array([0.6, 0.4])
        T = np.array([[0.9, 0.1], [0.2, 0.8]])
        # q = p @ T = [0.62, 0.38]
        assert _instance_loss(p, T, 1) == pytest.approx(0.967584, abs=1e-6)

    def test_correction_added(self):
        p = np.array([0.5, 0.5])
        T = np.eye(2)
        V = np.array([[0.0, 0.0], [0.0, 1.0]])
        # q = [0.5, 1.0] -> renormalized [1/3, 2/3]
        assert _instance_loss(p, T, 1, V=V) == pytest.approx(-np.log(2 / 3))


class TestConfusionInit:
    def test_identity(self):
        T = _init_confusions(_multiset_dataset([[0, 1, 2]], 4), _tiny_cfg())
        assert T.shape == (3, 4, 4)
        assert np.array_equal(T[1], np.eye(4))

    def test_votes_hand_case(self):
        # i0: r0->0, r1->0 ; i1: r0->1 ; i2: r1->0  (C=2)
        ds = CrowdDataset(
            features=np.zeros((3, 1)), class_count=2, annotator_count=2,
            ann_instance=np.array([0, 0, 1, 2]),
            ann_annotator=np.array([0, 1, 0, 1]),
            ann_label=np.array([0, 0, 1, 0]))
        T = init_confusion_votes(ds)
        e = 1e-6
        # r0 labeled i0 (Q=[1,0]) with 0 and i1 (Q=[0,1]) with 1
        assert T[0, 0, 0] == pytest.approx(np.log((1 + e) / (1 + 2 * e)))
        assert T[0, 0, 1] == pytest.approx(np.log(e / (1 + 2 * e)))
        assert T[0, 1, 1] == pytest.approx(np.log((1 + e) / (1 + 2 * e)))
        # r1 never saw class-1 mass: row is log-uniform
        assert np.allclose(T[1, 1], np.log(0.5), atol=1e-5)

    def test_rows_exponentiate_to_stochastic(self):
        ds = _blob_crowd(seed=3)
        T = init_confusion_votes(ds)
        sums = np.exp(T).sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-4


class TestCrowdlayerTraining:
    def test_absent_annotators_zero_gradient_every_step(self):
        ds = _blob_crowd(seed=1)
        violations = []

        def check(info):
            absent = np.setdiff1d(np.arange(ds.annotator_count), info["present"])
            if not all((info["dT"][r] == 0.0).all() for r in absent):
                violations.append(info["step"])

        train(ds, _tiny_cfg(epochs=2, batch_size=16), on_step=check)
        assert violations == []

    def test_hand_two_class_gradients(self):
        # single instance, single annotation; compare one step against a
        # fully hand-written chain for the clamped renormalized loss
        D, C = 1, 2
        clf = init_classifier("linear", D, 0, C, RngStream(0))
        clf.params["W"][:] = np.array([[0.2, -0.1]])
        clf.params["b"][:] = np.array([0.05, 0.0])
        T = np.array([[[0.9, 0.1], [0.2, 0.8]]])
        state = ModelState(clf, T=T.copy(), T_mom=np.zeros_like(T))
        x = np.array([[1.0]])
        batch = Batch(features=x,
                      ann_instance=np.array([0]), ann_annotator=np.array([0]),
                      ann_label=np.array([1]))

        z = (x @ clf.params["W"] + clf.params["b"])[0]
        p = np.exp(z - z.max())
        p /= p.sum()
        q = p @ T[0]
        S = q.sum()
        g_q = np.array([1 / S, 1 / S - 1 / q[1]])
        dT_hand = np.outer(p, g_q)
        g_p = T[0] @ g_q
        dz = p * (g_p - (p @ g_p))
        dW_hand = np.outer(x[0], dz)
        db_hand = dz

        lr = 0.1
        W0 = clf.params["W"].copy()
        b0 = clf.params["b"].copy()
        _crowd_step(state, batch, lr, _tiny_cfg(momentum=0.0, weight_decay=0.0),
                    forward=batch_forward(clf, x), M=state.T)
        np.testing.assert_allclose(clf.params["W"], W0 - lr * dW_hand, atol=1e-8)
        np.testing.assert_allclose(clf.params["b"], b0 - lr * db_hand, atol=1e-8)
        np.testing.assert_allclose(state.T[0], T[0] - lr * dT_hand, atol=1e-8)

    def test_loss_decreases_monotonically_on_separable_blobs(self):
        ds = _blob_crowd(seed=2, n=64, eps=0.0, spread=0.05)
        losses = []
        cfg = _tiny_cfg(epochs=50, batch_size=64, lr=0.05, momentum=0.0,
                        weight_decay=0.0)
        train(ds, cfg, on_step=lambda info: losses.append(info["loss"]))
        assert len(losses) == 50
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_curve_length_and_best_last(self):
        ds = _blob_crowd(seed=4)
        res = train(ds, _tiny_cfg(epochs=5))
        state = res.states["model1"]
        assert len(res.curves["model1"]) == 5
        assert res.best["model1"] >= res.last["model1"]
        assert state.T.shape == (ds.annotator_count, 4, 4)

    def test_deterministic(self):
        ds = _blob_crowd(seed=5)
        r1 = train(ds, _tiny_cfg(epochs=3))
        r2 = train(ds, _tiny_cfg(epochs=3))
        assert r1.curves == r2.curves


class TestMajorityTraining:
    def test_noiseless_equals_truth_training(self):
        ds = _blob_crowd(seed=6, eps=0.0)
        assert np.array_equal(aggregate_majority(ds), ds.truth)
        res = train(ds, _tiny_cfg(algo="majority", epochs=4))
        assert len(res.curves["model1"]) == 4

    def test_determinism(self):
        ds = _blob_crowd(seed=7)
        a = train(ds, _tiny_cfg(algo="majority", epochs=3))
        b = train(ds, _tiny_cfg(algo="majority", epochs=3))
        assert a.curves == b.curves


class TestDistillation:
    def test_one_candidate_per_class(self):
        rng = RngStream(0)
        X, y = make_blobs(4, 4, 3, 0.01, rng)
        ds = CrowdDataset(
            features=X, class_count=4, annotator_count=1,
            ann_instance=np.arange(4), ann_annotator=np.zeros(4, dtype=np.int64),
            ann_label=y.copy(), truth=y)
        scorer = init_classifier("linear", 3, 0, 4, rng.split("clf"))
        _, labels = distill_meta_set(ds, aggregate_majority(ds), scorer, M=4)
        assert labels.size == 4
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_selected_losses_are_minima(self):
        ds = _blob_crowd(seed=8, n=80, c=4)
        scorer = init_classifier("linear", ds.d, 0, 4, RngStream(9))
        M = 16
        mv = aggregate_majority(ds)
        meta_features, meta_labels = distill_meta_set(ds, mv, scorer, M)
        _, P = batch_forward(scorer, ds.features)
        losses = -np.log(np.maximum(P[np.arange(ds.n), mv], CE_FLOOR))
        quota = M // 4
        # oracle: full sort per class
        for c in range(4):
            cand = np.flatnonzero(mv == c)
            expect = np.sort(losses[cand])[:quota]
            got_mask = meta_labels == c
            assert got_mask.sum() <= quota
            got_feats = meta_features[got_mask]
            got_losses = []
            for f in got_feats:
                idx = np.flatnonzero((ds.features == f).all(axis=1))[0]
                got_losses.append(losses[idx])
            np.testing.assert_allclose(np.sort(got_losses), expect[:len(got_losses)])

    def test_per_class_quota(self):
        ds = _blob_crowd(seed=10, n=100, c=4)
        scorer = init_classifier("linear", ds.d, 0, 4, RngStream(11))
        _, labels = distill_meta_set(ds, aggregate_majority(ds), scorer, M=20)
        counts = np.bincount(labels, minlength=4)
        assert (counts <= 5).all()

    def test_purity_on_noiseless_annotations(self):
        ds = _blob_crowd(seed=12, eps=0.0)
        scorer = init_classifier("linear", ds.d, 0, 4, RngStream(13))
        for feat, label in zip(*distill_meta_set(ds, aggregate_majority(ds), scorer, M=12)):
            idx = np.flatnonzero((ds.features == feat).all(axis=1))[0]
            assert ds.truth[idx] == label


class TestGrouping:
    def test_identical_transitions_share_group(self):
        rng = RngStream(0)
        base = np.stack([np.eye(3)] * 4)
        base[2] += 0.5
        base[3] += 0.5
        groups = group_annotators([base, base], 2, rng)
        assert groups[0] == groups[1]
        assert groups[2] == groups[3]
        assert groups[0] != groups[2]

    def test_r_equals_g(self):
        rng = RngStream(1)
        T = np.stack([np.eye(2) * (i + 1) for i in range(4)])
        groups = group_annotators([T, T], 4, rng)
        assert sorted(groups.tolist()) == [0, 1, 2, 3]

    def test_single_model_grouping_is_kmeans_on_flattened_transitions(self):
        T = RngStream(2).normal((6, 3, 3))
        groups = group_annotators([T], 3, RngStream(3))
        expected = kmeans(T.reshape(6, -1), 3, rng=RngStream(3)).assignments
        assert np.array_equal(groups, expected)

    def test_g_exceeds_r(self):
        with pytest.raises(ContractError):
            group_annotators([np.zeros((2, 2, 2)), np.zeros((2, 2, 2))], 3, RngStream(0))


class TestAutoMetaLr:
    def test_gamma_zero(self):
        assert auto_meta_lr(np.ones((2, 2, 2)), np.ones((1, 2, 2)), 0.0) == 0.0

    def test_formula(self):
        T = np.zeros((1, 2, 2))
        T[0, 0, 0] = 1.0
        g = np.full((1, 2, 2), -0.5)
        assert auto_meta_lr(T, g, 0.5) == pytest.approx(1.0)

    def test_zero_gradient_guard(self):
        out = auto_meta_lr(np.ones((1, 2, 2)), np.zeros((1, 2, 2)), 0.7)
        assert out == 0.0 and np.isfinite(out)


def _outer_fixture(seed=0, D=4, C=3, R=2, G=1, n=4, m=4):
    rng = RngStream(seed)
    clf = init_classifier("linear", D, 0, C, rng.split("init"))
    X = rng.normal((n, D))
    Xm = rng.normal((m, D))
    ym = rng.gen.integers(0, C, m).astype(np.int64)
    ann_i = rng.gen.integers(0, n, 2 * n).astype(np.int64)
    ann_r = rng.gen.integers(0, R, 2 * n).astype(np.int64)
    ann_y = rng.gen.integers(0, C, 2 * n).astype(np.int64)
    T = np.stack([np.eye(C) + 0.05 * rng.normal((C, C)) for _ in range(R)])
    group_of = (np.arange(R) % G).astype(np.int64)
    batch = Batch(features=X, ann_instance=ann_i, ann_annotator=ann_r,
                  ann_label=ann_y)
    return clf, T, group_of, batch, Xm, ym


def _meta_after_virtual(clf, T, V, group_of, batch, Xm, ym, eta_v):
    """Independent primal: meta loss after one virtual last-layer step."""
    W, b = last_layer(clf)
    M = T + V[group_of]
    H, P = batch_forward(clf, batch.features)
    _, dZ, _ = kernels.crowd_grads(P, batch.ann_instance, batch.ann_annotator,
                                   batch.ann_label, M, T.shape[0])
    a = batch.ann_instance.shape[0]
    W_hat = W - eta_v * (H.T @ dZ / a)
    b_hat = b - eta_v * (dZ.sum(axis=0) / a)
    Pm = softmax_rows(hidden_layer(clf, Xm) @ W_hat + b_hat)
    py = np.maximum(Pm[np.arange(len(ym)), ym], CE_FLOOR)
    return float(-np.log(py).mean())


# How far the descent property's meta step moves the largest correction entry.
DESCENT_STEP = 1e-6


@st.composite
def descent_cases(draw):
    """A correction_gradient input: linear or mlp, C from 2, at least one
    annotation, eta_v 0 (a zero gradient) or not, and transitions as in
    tests/test_kernel_props.py: plain, or with one column per annotator,
    reported by half the annotations, whose q lies just above the
    GRAD_FLOOR band or is clamped at EPS."""
    model = draw(st.sampled_from(["linear", "mlp"]))
    C, R = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    G = draw(st.integers(1, R))
    n, m, A = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 16))
    mode = draw(st.sampled_from(["plain", "above-band", "clamped"]))
    eta_v = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = 4
    clf = init_classifier(model, D, 5 if model == "mlp" else 0, C,
                          RngStream(int(rng.integers(2**32))))
    batch = Batch(features=rng.normal(size=(n, D)), ann_instance=rng.integers(0, n, A),
                  ann_annotator=rng.integers(0, R, A), ann_label=rng.integers(0, C, A))
    T = np.eye(C) + 0.1 * rng.normal(size=(R, C, C))
    col = rng.integers(0, C, R)
    low = {"above-band": (2 * GRAD_FLOOR, 1e-2), "clamped": (-1.0, -0.1)}
    if mode != "plain":
        T[np.arange(R), :, col] = rng.uniform(*low[mode], (R, C))
        batch.ann_label[::2] = col[batch.ann_annotator[::2]]
    group_of = rng.integers(0, G, R)
    meta = rng.normal(size=(m, D)), rng.integers(0, C, m)
    return clf, T, group_of, G, batch, meta, eta_v


class TestOuterStep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(descent_cases())
    def test_meta_step_lowers_the_meta_loss(self, case):
        # Criterion 3's primal at the virtual point, before and after one meta
        # step V = -eta g that moves no entry by more than DESCENT_STEP. Where
        # the step's first-order drop eta |g|^2 is below what float64 resolves
        # in the loss (g of rounding size, 1e-14, at a clamped column), the
        # loss may only move by rounding.
        clf, T, group_of, G, batch, (Xm, ym), eta_v = case
        fwd = batch_forward(clf, batch.features)
        q = np.einsum("ac,acj->aj", fwd[1][batch.ann_instance], T[batch.ann_annotator])
        q_y = q[np.arange(q.shape[0]), batch.ann_label]
        # In the GRAD_FLOOR band the kernel floors dV's 1/q^2 as it floors
        # dZ's 1/q, so dV is not the derivative of the floored loss there.
        assume(not ((q_y > EPS) & (q_y < GRAD_FLOOR)).any())
        g = correction_gradient(clf, T, group_of, G, batch, Xm, ym, eta_v, forward=fwd)
        top = np.abs(g).max()
        eta = DESCENT_STEP / top if top else 1.0
        before, after = (_meta_after_virtual(clf, T, V, group_of, batch, Xm, ym, eta_v)
                         for V in (np.zeros_like(g), -eta * g))
        resolution = 1e-12 * max(before, 1.0)
        if not top:
            assert after == before
        elif eta * (g ** 2).sum() > resolution:
            assert after < before
        else:
            assert abs(after - before) <= resolution

    def test_zero_virtual_lr_gives_zero_gradient(self):
        clf, T, group_of, batch, Xm, ym = _outer_fixture()
        g = correction_gradient(clf, T, group_of, 1, batch,
                                Xm, ym, eta_v=0.0,
                                forward=batch_forward(clf, batch.features))
        assert (g == 0.0).all()

    def test_matches_finite_differences(self):
        clf, T, group_of, batch, Xm, ym = _outer_fixture(seed=21)
        G, C = 1, 3
        V = 0.02 * RngStream(5).normal((G, C, C))
        eta_v = 0.3
        g = correction_gradient(clf, T + V[group_of], group_of, G, batch, Xm, ym, eta_v,
                                forward=batch_forward(clf, batch.features))
        h = 1e-4
        num = np.zeros_like(V)
        for gi in range(G):
            for i in range(C):
                for j in range(C):
                    Vp, Vm = V.copy(), V.copy()
                    Vp[gi, i, j] += h
                    Vm[gi, i, j] -= h
                    num[gi, i, j] = (
                        _meta_after_virtual(clf, T, Vp, group_of, batch, Xm, ym, eta_v)
                        - _meta_after_virtual(clf, T, Vm, group_of, batch, Xm, ym, eta_v)
                    ) / (2 * h)
        rel = np.abs(g - num) / np.maximum(np.abs(num), 1e-10)
        assert rel.max() < 1e-4

    def test_absent_annotator_group_gets_zero(self):
        # two annotators in separate groups; only annotator 0 appears
        clf, T, _, batch, Xm, ym = _outer_fixture(seed=3, R=2, G=2)
        group_of = np.array([0, 1], dtype=np.int64)
        batch.ann_annotator[:] = 0
        g = correction_gradient(clf, T, group_of, 2, batch,
                                Xm, ym, eta_v=0.25,
                                forward=batch_forward(clf, batch.features))
        assert (g[1] == 0.0).all()
        assert (g[0] != 0.0).any()

    def test_outer_step_updates_corrections_only(self):
        # correction_gradient reads the live classifier and T; it writes neither.
        clf, T, group_of, batch, Xm, ym = _outer_fixture(seed=4)
        before = {k: v.copy() for k, v in clf.params.items()}
        T_before = T.copy()
        g = correction_gradient(clf, T, group_of, 1, batch,
                                Xm, ym, eta_v=0.3,
                                forward=batch_forward(clf, batch.features))
        for key, value in before.items():
            assert np.array_equal(clf.params[key], value)
        assert np.array_equal(T, T_before)
        assert (g != 0.0).any()


class TestActualStep:
    def test_zero_corrections_bitwise_equals_crowdlayer_step(self):
        ds = _blob_crowd(seed=14)
        idx = np.arange(24)
        batch = make_batch(ds, idx, ds.instance_slices())
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1)

        # A crowdlayer step (M = T) against zero corrections in one group
        # and in three (M = T + 0[group_of]).
        clf = init_classifier("linear", ds.d, 0, 4, RngStream(15))
        T0 = _init_confusions(ds, cfg)
        R = ds.annotator_count
        states = [ModelState(copy.deepcopy(clf), T=T0.copy(), T_mom=np.zeros_like(T0))
                  for _ in range(3)]
        Ms = [states[0].T,
              states[1].T + np.zeros((1, 4, 4))[np.zeros(R, dtype=np.int64)],
              states[2].T + np.zeros((3, 4, 4))[np.arange(R) % 3]]
        for state, M in zip(states, Ms):
            _crowd_step(state, batch, cfg.lr, cfg,
                        forward=batch_forward(state.clf, batch.features), M=M)
        ref = states[0]
        for state in states[1:]:
            for key in ("W", "b"):
                assert np.array_equal(ref.clf.params[key], state.clf.params[key])
            assert np.array_equal(ref.T, state.T)
            assert np.array_equal(ref.T_mom, state.T_mom)

    def test_untouched_annotators_unchanged(self):
        ds = _blob_crowd(seed=16)
        batch = make_batch(ds, np.arange(10), ds.instance_slices())
        present = set(batch.ann_annotator.tolist())
        absent = [r for r in range(ds.annotator_count) if r not in present]
        assert absent
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1)
        T0 = _init_confusions(ds, cfg)
        state = ModelState(init_classifier("linear", ds.d, 0, 4, RngStream(17)),
                           T=T0, T_mom=np.zeros_like(T0))
        M = T0 + np.zeros((2, 4, 4))[np.zeros(ds.annotator_count, dtype=np.int64)]
        _crowd_step(state, batch, cfg.lr, cfg,
                    forward=batch_forward(state.clf, batch.features), M=M)
        for r in absent:
            assert np.array_equal(state.T[r], np.eye(4))


class TestDivergenceGuard:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("algo, phase", [("majority", "majority"),
                                             ("crowdlayer", "crowdlayer"),
                                             ("ccc", "warmup")])
    def test_blow_up_stops_in_its_first_epoch(self, algo, phase):
        ds = _blob_crowd(seed=32)
        steps = []
        with pytest.raises(ConfigError, match=f"epoch 0, model1, {phase} phase"):
            train(ds, _tiny_cfg(algo=algo, lr=1e200, epochs=3), on_step=steps.append)
        assert {info["epoch"] for info in steps} <= {0}

    def test_nan_correction_stops_the_run_in_its_epoch(self, monkeypatch):
        # A NaN meta lr makes every corrected transition NaN, so the first
        # ccc epoch's step poisons T and the run stops there.
        monkeypatch.setattr(training, "auto_meta_lr", lambda T, g_cor, gamma: float("nan"))
        ds = _blob_crowd(seed=33)
        steps = []
        with pytest.raises(ConfigError, match=r"epoch 1, model1, ccc phase: non-finite "):
            train(ds, _tiny_cfg(algo="ccc", epochs=3, warmup=1), on_step=steps.append)
        assert {info["epoch"] for info in steps} == {0, 1}


# Faults in a _blob_crowd(seed=35) dataset: (column, row, value, validate()'s
# message); a value of None copies row 0's annotator to row 1, so that
# instance 0's first (instance, annotator) pair appears twice.
_BAD_DATASETS = {
    "label-C": ("ann_label", 5, 4, "annotation label out of range"),
    "label--1": ("ann_label", 5, -1, "annotation label out of range"),
    "instance-n": ("ann_instance", -1, 120, "annotation instance id out of range"),
    "duplicate-pair": ("ann_annotator", 1, None, "duplicate (instance, annotator) annotation"),
    "truth-C": ("truth", 5, 4, "truth label out of range"),
}


class TestConfigValidation:
    def test_config_is_frozen_and_checked_when_built(self):
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.lr = 0.1
        with pytest.raises(ConfigError, match="lr must be finite and > 0, got nan"):
            replace(cfg, lr=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("gamma", float("nan")), ("lr", float("nan")), ("lr", -0.05),
        ("lr", 0.0), ("lr", float("inf")), ("momentum", float("inf")),
        ("momentum", -0.1), ("weight_decay", -1.0), ("lr_decay_epoch", -1),
    ])
    def test_nonsense_value_rejected_before_training(self, field, value):
        steps = []
        with pytest.raises(ConfigError, match=f"{field} must be"):
            train(_blob_crowd(seed=34), _tiny_cfg(algo="ccc", **{field: value}),
                  on_step=steps.append)
        assert steps == []

    @pytest.mark.parametrize("algo, column, row, value, message", [
        pytest.param("crowdlayer", "ann_annotator", 5, -1, "annotation annotator id out of range",
                     id="-1"),
        pytest.param("crowdlayer", "ann_annotator", 5, 8, "annotation annotator id out of range",
                     id="8"),
        *(pytest.param(algo, *case, id=f"{algo}-{name}")
          for algo in ("majority", "crowdlayer") for name, case in _BAD_DATASETS.items()),
    ])
    def test_annotator_out_of_range_rejected_before_training(self, algo, column, row, value,
                                                              message):
        # train checks the dataset with validate(): the kernels gather transitions
        # with mode="clip", which would not raise, and majority's vote count
        # would read a label of C as the next instance's class 0.
        ds = _blob_crowd(seed=35)  # 120 instances, 4 classes, 8 annotators
        column = getattr(ds, column)
        column[row] = column[0] if value is None else value
        steps = []
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            train(ds, _tiny_cfg(algo=algo, confusion_init="identity"), on_step=steps.append)
        assert steps == []


class TestSchedule:
    """The learning rate's decay, which no benchmark workload reaches."""

    @pytest.mark.parametrize("algo, on_step", [
        ("majority", None), ("crowdlayer", None), ("ccc", None), ("ccc", lambda info: None),
    ], ids=["majority", "crowdlayer", "ccc-forked", "ccc-on-step"])
    def test_decay_divides_the_lr_by_ten_from_its_epoch(self, algo, on_step):
        ds = _blob_crowd(seed=56)
        cfg = _tiny_cfg(algo=algo, epochs=4, warmup=1, seed=6)
        decayed, tenth = (train(ds, c, on_step=on_step)
                          for c in (replace(cfg, lr_decay_epoch=0), replace(cfg, lr=cfg.lr / 10.0)))
        assert decayed.curves == tenth.curves
        for tag, s in decayed.states.items():
            t = tenth.states[tag]
            assert all(_same_bits(s.clf.params[k], t.clf.params[k]) for k in s.clf.params), tag
            assert s.T is t.T is None or _same_bits(s.T, t.T), tag
        late = train(ds, replace(cfg, lr_decay_epoch=2), on_step=on_step)
        plain = train(ds, cfg, on_step=on_step)
        assert all(late.curves[tag][:2] == plain.curves[tag][:2] for tag in plain.curves)
        assert not _same_bits(late.states["model1"].clf.params["W"],
                              plain.states["model1"].clf.params["W"])


class TestTrainCcc:
    def test_meta_size_below_class_count_rejected_before_training(self):
        ds = _blob_crowd(seed=30)
        steps = []
        with pytest.raises(ConfigError, match="meta_size=3"):
            train(ds, _tiny_cfg(algo="ccc", epochs=4, warmup=1, meta_size=3),
                  on_step=steps.append)
        assert steps == []

    def test_more_groups_than_annotators_rejected_before_training(self):
        ds = _blob_crowd(seed=31)
        steps = []
        with pytest.raises(ConfigError, match="groups=9"):
            train(ds, _tiny_cfg(algo="ccc", epochs=4, warmup=1, groups=9),
                  on_step=steps.append)
        assert steps == []

    def test_gamma_zero_reduces_to_crowdlayer_bitwise(self):
        ds = _blob_crowd(seed=18)
        test_X, test_y = make_blobs(60, 4, 6, 0.2, RngStream(19))
        cfg_ccc = _tiny_cfg(algo="ccc", epochs=6, warmup=2, gamma=0.0, seed=3)
        cfg_cl = _tiny_cfg(algo="crowdlayer", epochs=6, seed=3)
        res = train(ds, cfg_ccc, eval_set=(test_X, test_y))
        res_cl = train(ds, cfg_cl, eval_set=(test_X, test_y))
        assert res.curves["model1"] == res_cl.curves["model1"]

    def test_curve_lengths_and_best_last(self):
        ds = _blob_crowd(seed=20)
        cfg = _tiny_cfg(algo="ccc", epochs=5, warmup=2, seed=1)
        res = train(ds, cfg)
        assert len(res.curves["model1"]) == 5
        assert len(res.curves["model2"]) == 5
        for key in ("model1", "model2"):
            assert res.best[key] >= res.last[key]
        assert "mean" in res.best
        assert res.groups_by_epoch[0][0] == cfg.warmup

    def test_deterministic(self):
        ds = _blob_crowd(seed=22)
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1, seed=5)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.curves["model1"] == b.curves["model1"]
        assert a.curves["model2"] == b.curves["model2"]

    def test_majority_votes_computed_once_per_run(self, monkeypatch):
        # The candidates' majority labels never change during a run.
        calls = []

        def counting(ds):
            calls.append(ds)
            return aggregate_majority(ds)

        monkeypatch.setattr("ccc.training.aggregate_majority", counting)
        train(_blob_crowd(seed=23), _tiny_cfg(algo="ccc", epochs=4, warmup=1, seed=2))
        assert len(calls) == 1

    def test_models_differ(self):
        ds = _blob_crowd(seed=23)
        cfg = _tiny_cfg(algo="ccc", epochs=3, warmup=1, seed=2)
        states = train(ds, cfg).states
        assert not np.array_equal(states["model1"].clf.params["W"],
                                  states["model2"].clf.params["W"])

    def test_bad_config_rejected(self):
        ds = _blob_crowd(seed=24)
        with pytest.raises(ConfigError):
            train(ds, _tiny_cfg(algo="ccc", epochs=3, warmup=3))
        with pytest.raises(ConfigError):
            train(ds, _tiny_cfg(algo="ccc", gamma=-1.0, epochs=3, warmup=1))

    def test_votes_init_trains(self):
        ds = _blob_crowd(seed=26)
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1, seed=7,
                        confusion_init="votes")
        # vote-based starting transitions are probability-scale matrices
        T0 = _init_confusions(ds, cfg)
        assert T0.min() >= 0.0
        assert np.allclose(T0.sum(axis=2), 1.0, atol=1e-4)
        res = train(ds, cfg)
        assert len(res.curves["model1"]) == 4
        assert np.isfinite(res.states["model1"].T).all()

    def test_correlated_preset_trains(self):
        master = RngStream(27)
        X, y = make_blobs(150, 10, 6, 0.2, master.split("feat"))
        pool = build_pool("COR-II", 10, R=25, k=3, rng=master.split("pool"))
        ds = generate(y, X, pool, master.split("lab"))
        # ten classes need a meta set of at least ten
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1, seed=8, meta_size=20)
        res = train(ds, cfg)
        assert len(res.curves["model1"]) == 4
        assert all(np.isfinite(v) for v in res.curves["model1"])


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestCoupling:
    """ccc's two mechanisms that accuracy at desk scale does not show, spied
    on in an in-process run: each model learns from the meta set that the
    other model's classifier distills, one clustering of both models'
    transitions groups the annotators, and both models' corrections in that
    epoch use the groups it returned."""

    def test_each_model_is_distilled_for_by_the_other_and_grouped_with_it(self, monkeypatch):
        ends, scorers, grouped = {}, [], []
        check = training._check_finite
        distill = training.distill_meta_set
        group = training.group_annotators

        def ending(state, epoch, tag, phase):
            ends[epoch, tag] = copy.deepcopy(state.clf.params), state.T.copy()
            check(state, epoch, tag, phase)

        def distilling(ds, mv, scorer, M, ws=None):
            scorers.append(copy.deepcopy(scorer.params))
            return distill(ds, mv, scorer, M, ws)

        def grouping(Ts, G, rng, restarts=1):
            grouped.append([T.copy() for T in Ts])
            return group(Ts, G, rng, restarts)

        monkeypatch.setattr(training, "_check_finite", ending)
        monkeypatch.setattr(training, "distill_meta_set", distilling)
        monkeypatch.setattr(training, "group_annotators", grouping)
        cfg = _tiny_cfg(algo="ccc", epochs=5, warmup=2, model="mlp", hidden_dim=8, seed=6)
        train(_blob_crowd(seed=56), cfg, on_step=lambda info: None)
        epochs = range(cfg.warmup, cfg.epochs)
        # model1's meta set is distilled first, then model2's, once an epoch.
        assert len(scorers) == 2 * len(epochs) and len(grouped) == len(epochs)
        for i, epoch in enumerate(epochs):
            # Each model starts an epoch as it ended the one before.
            (params1, T1), (params2, T2) = ends[epoch - 1, "model1"], ends[epoch - 1, "model2"]
            assert not _same_params(params1, params2)
            assert _same_params(scorers[2 * i], params2), f"model1's meta set, epoch {epoch}"
            assert _same_params(scorers[2 * i + 1], params1), f"model2's meta set, epoch {epoch}"
            assert len(grouped[i]) == 2, f"epoch {epoch} grouped from one model"
            assert np.array_equal(grouped[i][0], T1) and np.array_equal(grouped[i][1], T2)

    def test_each_epochs_corrections_use_the_groups_it_returned(self, monkeypatch):
        returned, pending, received = [], [], {}
        group = training.group_annotators
        gradient = training.correction_gradient

        def grouping(Ts, G, rng, restarts=1):
            group_of = group(Ts, G, rng, restarts)
            returned.append((group_of, group_of.copy()))
            return group_of

        def correcting(clf, M, group_of, *args, **kwargs):
            pending.append(group_of)
            return gradient(clf, M, group_of, *args, **kwargs)

        def stepped(info):  # a step's correction is computed before its callback
            received.setdefault((info["epoch"], info["model"]), []).append(pending[:])
            pending.clear()

        monkeypatch.setattr(training, "group_annotators", grouping)
        monkeypatch.setattr(training, "correction_gradient", correcting)
        cfg = _tiny_cfg(algo="ccc", epochs=5, warmup=2, groups=3, seed=6)
        ds = _blob_crowd(seed=57)
        train(ds, cfg, on_step=stepped)
        epochs = range(cfg.warmup, cfg.epochs)
        assert len(returned) == len(epochs)
        steps = -(-ds.n // cfg.batch_size)
        for epoch in range(cfg.epochs):
            for tag in ("model1", "model2"):
                calls = received[epoch, tag]
                assert len(calls) == steps
                if epoch < cfg.warmup:
                    assert all(step == [] for step in calls), f"{tag} corrected in warmup"
                    continue
                group_of, as_returned = returned[epoch - cfg.warmup]
                assert np.array_equal(group_of, as_returned), f"epoch {epoch}'s groups changed"
                assert np.unique(group_of).size == cfg.groups
                assert all(len(step) == 1 and step[0] is group_of for step in calls), \
                    f"{tag}'s corrections in epoch {epoch} used other groups"


class TestWorkspace:
    def test_nothing_handed_out_is_a_view_of_the_workspace(self, monkeypatch):
        buffers = {}

        class Recording(kernels.Workspace):
            def array(self, name, shape):
                out = super().array(name, shape)
                buffers[id(out.base)] = out.base
                return out

        monkeypatch.setattr(training, "Workspace", Recording)
        # 70 instances in batches of 32 end each epoch on a short batch.
        ds = _blob_crowd(seed=40, n=70)
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1, seed=9, model="mlp",
                        hidden_dim=8, meta_batch=4)
        steps = []
        res = train(ds, cfg, on_step=lambda rec: steps.append((rec["dT"], rec["dT"].copy())))
        assert buffers and len(steps) == 2 * 4 * 3
        # Each step's dT keeps its value through every later step.
        assert all(np.array_equal(dT, kept) for dT, kept in steps)
        handed_out = [dT for dT, _ in steps]
        for state in res.states.values():
            handed_out += [*state.clf.params.values(), *state.clf.momentum.values(),
                           state.T, state.T_mom]
        assert not any(np.shares_memory(a, b) for a in handed_out for b in buffers.values())

    def test_whole_set_meta_batches_are_gathered_once(self):
        meta = (np.arange(10.0).reshape(5, 2), np.arange(5))
        whole = training._meta_batches(meta, RngStream(3), 8)
        first = next(whole)
        assert sorted(first[1].tolist()) == list(range(5))
        assert all(batch[0] is first[0] for batch, _ in zip(whole, range(3)))
        part = training._meta_batches(meta, RngStream(3), 2)
        labels = np.concatenate([next(part)[1] for _ in range(5)])
        assert np.array_equal(labels, np.tile(first[1], 2))

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_second_identical_ccc_train_takes_few_page_faults(self):
        import resource

        # Desk-shaped but short. Allocating each step's large temporaries
        # anew made the second train take tens of thousands of minor faults.
        master = RngStream(41)
        X, y = make_blobs(2000, 10, 16, 0.29, master.split("features"))
        ds = generate(y, X, build_pool("IND-I", 10, R=50, k=3, rng=master.split("pool")),
                      master.split("labels"))
        cfg = TrainConfig(algo="ccc", epochs=12, warmup=2, batch_size=128, meta_batch=200,
                          lr=0.05, momentum=0.9, weight_decay=0.0, meta_size=200,
                          lr_decay_epoch=None, model="mlp", hidden_dim=128, seed=1)
        train(ds, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(ds, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 4000

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_fresh_crowdlayer_train_takes_few_page_faults(self, tmp_path):
        import resource

        # A fresh process, as users run it. Allocating each step's gathered
        # transitions anew made glibc trim the heap top and fault it back in
        # every step; with more BLAS threads the cycle does not show.
        master = RngStream(43)
        X, y = make_blobs(2000, 10, 16, 0.29, master.split("features"))
        save_dataset(generate(y, X, build_pool("IND-I", 10, R=50, k=3, rng=master.split("pool")),
                              master.split("labels")), tmp_path / "data")
        src = str(Path(training.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "ccc.cli", "train", "--data", str(tmp_path / "data"),
                "--algo", "crowdlayer", "--out", str(tmp_path / "run"), "--model", "mlp",
                "--hidden-dim", "128", "--epochs", "20", "--batch-size", "128", "--lr", "0.05",
                "--momentum", "0.9", "--weight-decay", "0", "--lr-decay-epoch", "-1",
                "--confusion-init", "identity", "--seed", "1"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        assert faults <= 20_000


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_run(a, b):
    assert (a.curves, a.best, a.last) == (b.curves, b.best, b.last)
    assert [e for e, _ in a.groups_by_epoch] == [e for e, _ in b.groups_by_epoch]
    assert all(_same_bits(g, h) for (_, g), (_, h) in zip(a.groups_by_epoch, b.groups_by_epoch))
    assert list(a.states) == list(b.states)
    for tag, s in a.states.items():
        t = b.states[tag]
        for name in s.clf.params:
            assert _same_bits(s.clf.params[name], t.clf.params[name]), (tag, name)
            assert _same_bits(s.clf.momentum[name], t.clf.momentum[name]), (tag, name)
        assert _same_bits(s.T, t.T) and _same_bits(s.T_mom, t.T_mom), tag


class TestModel2Worker:
    """ccc trains model2 in a forked worker unless a callback is given."""

    @pytest.mark.parametrize("model, c, warmup", [("linear", 2, 0), ("mlp", 2, 0),
                                                  ("mlp", 4, 1), ("linear", 4, 2)])
    def test_worker_run_equals_in_process_run_bitwise(self, model, c, warmup):
        ds = _blob_crowd(seed=50, n=90, c=c)
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=warmup, model=model, hidden_dim=8,
                        meta_size=8, seed=3)
        _assert_same_run(train(ds, cfg), train(ds, cfg, on_step=lambda info: None))

    def test_without_fork_trains_in_process(self, monkeypatch):
        import multiprocessing

        ds = _blob_crowd(seed=51)
        cfg = _tiny_cfg(algo="ccc", epochs=3, warmup=1, seed=4)
        forked = train(ds, cfg)
        started = []
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: started.append(proc))
        _assert_same_run(forked, train(ds, cfg))
        assert started == []

    def test_no_child_process_outlives_train(self):
        import multiprocessing

        res = train(_blob_crowd(seed=52), _tiny_cfg(algo="ccc", epochs=3, warmup=1))
        assert multiprocessing.active_children() == []
        assert set(res.states) == {"model1", "model2"}

    def test_model2_error_is_raised_with_its_text(self, monkeypatch):
        check = training._check_finite

        def failing(state, epoch, tag, phase):
            if tag == "model2" and epoch == 2:
                raise ConfigError(f"model2 failed in epoch {epoch}, {phase} phase")
            check(state, epoch, tag, phase)

        # The fork inherits the patched module.
        monkeypatch.setattr(training, "_check_finite", failing)
        ds = _blob_crowd(seed=53)
        cfg = _tiny_cfg(algo="ccc", epochs=4, warmup=1)
        for on_step in (None, lambda info: None):
            with pytest.raises(ConfigError, match=r"^model2 failed in epoch 2, ccc phase$"):
                train(ds, cfg, on_step=on_step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_of_both_names_model1_as_in_process(self):
        ds = _blob_crowd(seed=32)
        cfg = _tiny_cfg(algo="ccc", lr=1e200, epochs=3)
        messages = []
        for on_step in (None, lambda info: None):
            with pytest.raises(ConfigError, match="epoch 0, model1, warmup phase") as err:
                train(ds, cfg, on_step=on_step)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_worker_inherits_the_warning_silence(self, monkeypatch):
        # train silences numpy's overflow warnings before it forks model2's
        # worker; here model2 overflows once an epoch, in either process.
        check = training._check_finite

        def overflowing(state, epoch, tag, phase):
            if tag == "model2":
                np.exp(np.array([1e3]))
            check(state, epoch, tag, phase)

        monkeypatch.setattr(training, "_check_finite", overflowing)
        ds = _blob_crowd(seed=55)
        cfg = _tiny_cfg(algo="ccc", epochs=3, warmup=1)
        runs = [train(ds, cfg, on_step=on_step) for on_step in (None, lambda info: None)]
        _assert_same_run(*runs)

    def test_dead_worker_raises_promptly(self, monkeypatch):
        import multiprocessing
        import os
        import time

        def dying(state, epoch, tag, phase):
            if tag == "model2":
                os._exit(1)

        monkeypatch.setattr(training, "_check_finite", dying)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="model2's worker process ended"):
            train(_blob_crowd(seed=54), _tiny_cfg(algo="ccc", epochs=4, warmup=1))
        assert time.perf_counter() - t0 < 10
        assert multiprocessing.active_children() == []
