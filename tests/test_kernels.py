"""Finite-difference and edge-case checks for the hot kernels."""

import numpy as np
import pytest

from ccc import kernels
from ccc.models import backprop, batch_forward, init_classifier
from ccc.rng import RngStream
from test_kernel_props import select_k_oracle


def _random_case(seed, n=6, C=4, R=5, A=15, G=2):
    rng = RngStream(seed)
    P = np.abs(rng.normal((n, C))) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    ann_i = rng.gen.integers(0, n, A).astype(np.int64)
    ann_r = rng.gen.integers(0, R, A).astype(np.int64)
    ann_y = rng.gen.integers(0, C, A).astype(np.int64)
    M = np.stack([np.eye(C) + 0.08 * rng.normal((C, C)) for _ in range(R)])
    groups = rng.gen.integers(0, G, R).astype(np.int64)
    U = rng.normal((n, C))
    return P, ann_i, ann_r, ann_y, M, groups, U


class TestCrowdGrads:
    def test_absent_annotators_have_exact_zero_rows(self):
        P, ai, ar, ay, M, _, _ = _random_case(1, R=8, A=6)
        _, _, dM = kernels.crowd_grads(P, ai, ar, ay, M, 8)
        absent = sorted(set(range(8)) - set(ar.tolist()))
        assert absent, "test needs at least one absent annotator"
        for r in absent:
            assert (dM[r] == 0.0).all()

    def test_matches_finite_differences(self):
        P, ai, ar, ay, M, _, _ = _random_case(2)
        R = M.shape[0]
        _, _, dM = kernels.crowd_grads(P, ai, ar, ay, M, R)
        h = 1e-6
        num = np.zeros_like(dM)
        for r in range(R):
            for i in range(M.shape[1]):
                for j in range(M.shape[2]):
                    Mp, Mm = M.copy(), M.copy()
                    Mp[r, i, j] += h
                    Mm[r, i, j] -= h
                    num[r, i, j] = (kernels.crowd_grads(P, ai, ar, ay, Mp, R)[0]
                                    - kernels.crowd_grads(P, ai, ar, ay, Mm, R)[0]) / (2 * h)
        np.testing.assert_allclose(dM, num, rtol=1e-6, atol=1e-9)

    def test_empty_batch(self):
        P = np.full((2, 3), 1 / 3)
        empty = np.empty(0, dtype=np.int64)
        loss, dZ, dM = kernels.crowd_grads(P, empty, empty, empty, np.stack([np.eye(3)]), 1)
        assert loss == 0.0 and (dZ == 0).all() and (dM == 0).all()

    def test_identity_transition_is_plain_ce(self):
        P = np.array([[0.2, 0.5, 0.3]])
        z = np.zeros(1, dtype=np.int64)
        one = np.ones(1, dtype=np.int64)
        loss, _, _ = kernels.crowd_grads(P, z, z, one, np.stack([np.eye(3)]), 1)
        assert loss == pytest.approx(-np.log(0.5), rel=1e-12)


def _same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWorkspace:
    # (n, A) per batch: the annotation count grows, shrinks, hits 0, grows
    # past every earlier batch, and the last batch is a short one.
    BATCHES = [(6, 15), (8, 40), (3, 5), (5, 0), (8, 60), (2, 4)]

    def test_reused_workspace_equals_fresh_arrays_bit_for_bit(self):
        ws = kernels.Workspace()
        clf = init_classifier("mlp", 3, 7, 4, RngStream(1))
        handed_out = []
        for seed, (n, A) in enumerate(self.BATCHES):
            P, ai, ar, ay, M, groups, U = _random_case(seed, n=n, C=4, R=5, A=A, G=2)
            want = kernels.crowd_grads(P, ai, ar, ay, M, 5)
            got = kernels.crowd_grads(P, ai, ar, ay, M, 5, ws=ws)
            assert got[0] == want[0]
            assert all(map(_same_bits, got[1:], want[1:]))
            want = kernels.hyper_grads(P, lambda dZ: U, ai, ar, ay, M, groups, 2)
            got_h = kernels.hyper_grads(P, lambda dZ: U, ai, ar, ay, M, groups, 2, ws=ws)
            assert all(map(_same_bits, got_h, want))

            X = RngStream(seed).normal((n, 3))
            fwd = batch_forward(clf, X, ws=ws)
            assert all(map(_same_bits, fwd, batch_forward(clf, X)))
            grads = backprop(clf, X, fwd[0], got[1], ws=ws)
            want = backprop(clf, X, batch_forward(clf, X)[0], got[1])
            assert all(_same_bits(grads[k], want[k]) for k in want)
            handed_out += [*got[1:], *got_h, *grads.values()]
        # Later calls on the same workspace leave earlier results alone.
        kept = [a.copy() for a in handed_out]
        for seed, (n, A) in enumerate(reversed(self.BATCHES)):
            P, ai, ar, ay, M, groups, U = _random_case(seed + 10, n=n, C=4, R=5, A=A, G=2)
            kernels.crowd_grads(P, ai, ar, ay, M, 5, ws=ws)
            kernels.hyper_grads(P, lambda dZ: U, ai, ar, ay, M, groups, 2, ws=ws)
            fwd = batch_forward(clf, RngStream(seed).normal((n, 3)), ws=ws)
            backprop(clf, RngStream(seed).normal((n, 3)), fwd[0], fwd[1], ws=ws)
        assert all(map(_same_bits, handed_out, kept))

    def test_grows_only_and_views_a_smaller_shape(self):
        ws = kernels.Workspace()
        big = ws.array("a", (4, 5))
        small = ws.array("a", (2, 3))
        assert small.flags.c_contiguous and np.shares_memory(small, big)
        assert not np.shares_memory(ws.array("a", (6, 5)), big)
        assert not np.shares_memory(ws.array("b", (2, 3)), small)


class TestSelectK:
    def test_beta_weights_at_pool_scale_equal_row_oracle(self):
        # A criterion-1-sized pool: each draw's path at R = 250.
        w = RngStream(2).beta(1.5, 3.0, 250)
        U = RngStream(3).uniform((3000, 3))
        assert np.array_equal(kernels.select_k(w, U), select_k_oracle(w, U))

    def test_uniforms_on_cumsum_entries_equal_row_oracle(self):
        # u * total lands exactly on an entry of the row's cumsum, so a
        # cumsum summed in another order would move some count by one.
        w = RngStream(4).beta(1.5, 3.0, 40)
        U = RngStream(5).uniform((1500, 3))
        rng = np.random.default_rng(6)
        for row in U:
            left = w.copy()
            for d in range(3):
                cums = np.cumsum(left)
                entry = cums[rng.integers(0, 40)]
                if entry / cums[-1] < 1.0 and entry / cums[-1] * cums[-1] == entry:
                    row[d] = entry / cums[-1]
                left[select_k_oracle(left, row[None, d:d + 1])[0, 0]] = 0.0
        assert np.array_equal(kernels.select_k(w, U), select_k_oracle(w, U))

    def test_never_picks_zero_weight(self):
        w = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        U = RngStream(0).uniform((5000, 2))
        out = kernels.select_k(w, U)
        assert set(np.unique(out)) <= {1, 3}

    def test_rows_have_distinct_picks(self):
        w = np.array([0.4, 1.0, 0.2, 2.0, 0.6])
        out = kernels.select_k(w, RngStream(1).uniform((2000, 3)))
        for row in out:
            assert len(set(row.tolist())) == 3

    def test_extreme_uniform_near_one(self):
        w = np.array([1.0, 1.0, 0.0])
        U = np.array([[0.9999999999999999, 0.9999999999999999]])
        out = kernels.select_k(w, U)
        assert set(out[0].tolist()) == {0, 1}


class TestDrawLabels:
    def test_deterministic_rows(self):
        cum = np.cumsum(np.array([[1.0, 0.0], [0.0, 1.0]]), axis=1)
        truth = np.array([0, 1, 0, 1], dtype=np.int64)
        u = np.array([0.99, 0.99, 0.0, 0.0])
        out = kernels.draw_labels(cum, truth, u)
        assert out.tolist() == [0, 1, 0, 1]

    def test_frequencies_match_matrix(self):
        mat = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        cum = np.cumsum(mat, axis=1)
        rng = RngStream(11)
        truth = np.full(60_000, 2, dtype=np.int64)
        out = kernels.draw_labels(cum, truth, rng.uniform(60_000))
        freq = np.bincount(out, minlength=3) / 60_000
        np.testing.assert_allclose(freq, mat[2], atol=0.01)
