import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc.errors import ContractError
from ccc.kernels import select_k
from ccc.models import single_label_ce
from ccc.numerics import kmeans, softmax_rows
from ccc.rng import RngStream
from ccc.simulate import PatternSpec, build_pool


def _softmax_row(logits):
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None, :])[0]


def _ce(p, label):
    """The majority trainer's per-instance loss on one (1, C) row."""
    losses, _ = single_label_ce([label])(np.asarray(p, dtype=np.float64)[None, :])
    return float(losses[0])


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(_softmax_row([0.0, 0.0, 0.0, 0.0]), 0.25)

    def test_known_values(self):
        # cross-checked against a 40-digit mpmath evaluation
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        assert np.allclose(_softmax_row([1.0, 2.0, 3.0]), expected, atol=1e-12)

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 4.0, 2.2])
        assert np.allclose(_softmax_row(v), _softmax_row(v + 123.456), atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_positive(self, logits):
        p = _softmax_row(logits)
        assert abs(p.sum() - 1.0) < 1e-6
        assert (p > 0).all()

    def test_rows_matches_single(self):
        def softmax_1d(z):  # oracle: stable softmax of one logit vector
            e = np.exp(z - z.max())
            return e / e.sum()

        Z = RngStream(1).normal((5, 4))
        P = softmax_rows(Z)
        for i in range(5):
            assert np.allclose(P[i], softmax_1d(Z[i]), atol=1e-15)


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        assert _ce(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_ten_classes(self):
        p = np.full(10, 0.1)
        assert abs(_ce(p, 3) - 2.302585092994046) < 1e-12

    def test_known_value(self):
        assert abs(_ce(np.array([0.7, 0.3]), 1) - 1.203972804325936) < 1e-12

    def test_zero_probability_is_finite(self):
        v = _ce(np.array([1.0, 0.0]), 1)
        assert np.isfinite(v) and v == pytest.approx(-np.log(1e-12))

    @given(st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, label):
        p = _softmax_row(RngStream(label).normal(5))
        assert _ce(p, label) >= 0.0


class TestSampleBeta:
    def test_moments(self):
        draws = RngStream(5).beta(1.5, 3.0, 100_000)
        assert (draws > 0).all() and (draws < 1).all()
        assert abs(draws.mean() - 1.0 / 3.0) < 0.01
        # analytic variance a*b / ((a+b)^2 (a+b+1))
        assert abs(draws.var() - 0.04040404040404041) < 0.003

    def test_bad_params(self):
        specs = [PatternSpec("dummy")]
        with pytest.raises(ContractError):
            build_pool(specs, 4, k=1, alpha=0.0, beta=1.0, rng=RngStream(0))
        with pytest.raises(ContractError):
            build_pool(specs, 4, k=1, alpha=1.0, beta=-2.0, rng=RngStream(0))


class TestWeightedSampling:
    def test_single_positive_weight(self):
        idx = select_k(np.array([1.0, 0.0, 0.0]), RngStream(0).uniform((1, 1)))[0]
        assert set(idx) == {0}

    def test_exhaustive_equal_weights(self):
        idx = select_k(np.ones(6), RngStream(3).uniform((1, 6)))[0]
        assert sorted(idx) == list(range(6))

    def test_first_draw_proportions(self):
        picks = select_k(np.array([3.0, 1.0]), RngStream(17).uniform((100_000, 1)))
        hits = int((picks[:, 0] == 0).sum())
        assert abs(hits / 100_000 - 0.75) < 0.01

    def test_no_duplicates_and_no_zero_weight(self):
        w = np.array([0.0, 2.0, 0.5, 0.0, 1.0, 3.0, 0.0, 0.25])
        for idx in select_k(w, RngStream(23).uniform((500, 4))):
            assert len(set(idx.tolist())) == 4
            assert (w[idx] > 0).all()


class TestKmeans:
    def test_identical_points_one_cluster(self):
        X = np.ones((8, 3))
        res = kmeans(X, 1, rng=RngStream(0))
        assert res.inertia == 0.0
        assert (res.assignments == 0).all()

    def test_two_separated_pairs(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        res = kmeans(X, 2, rng=RngStream(1))
        assert res.inertia == 0.0
        assert res.assignments[0] == res.assignments[1]
        assert res.assignments[2] == res.assignments[3]
        assert res.assignments[0] != res.assignments[2]

    def test_three_clumps_vs_restart_oracle(self):
        rng = RngStream(7)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
        clump = np.repeat(np.arange(3), 10)
        X = centers[clump] + 0.5 * rng.normal((30, 2))

        res = kmeans(X, 3, rng=rng.split("fit"))
        # oracle: best inertia over 50 independent restarts
        best = min(kmeans(X, 3, rng=rng.split(f"restart-{t}")).inertia
                   for t in range(50))
        assert res.inertia <= best * 1.01
        # assignments match clump identity up to relabeling
        for c in range(3):
            members = res.assignments[clump == c]
            assert (members == members[0]).all()

    def test_g_larger_than_points(self):
        with pytest.raises(ContractError):
            kmeans(np.zeros((3, 2)), 4, rng=RngStream(0))

    def test_deterministic_under_seed(self):
        X = RngStream(2).normal((40, 5))
        a = kmeans(X, 4, rng=RngStream(9))
        b = kmeans(X, 4, rng=RngStream(9))
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_inertia_nonnegative_and_iterations_reported(self):
        X = RngStream(4).normal((25, 3))
        res = kmeans(X, 5, rng=RngStream(5))
        assert res.inertia >= 0.0
        assert 1 <= res.iterations <= 100
