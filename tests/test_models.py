import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccc.errors import ContractError
from ccc.models import (PARAM_KEYS, backprop, batch_forward, hidden_layer,
                        init_classifier, last_layer, load_model, loss_and_grads,
                        save_model, sgd_step, single_label_ce)
from ccc.rng import RngStream


def _mean_loss(clf, X, labels):
    """Primal-only evaluation, independent of the backprop path."""
    _, P = batch_forward(clf, X)
    losses, _ = single_label_ce(P, labels)
    return float(losses.mean())


def _fd_grads(clf, X, labels, h=1e-5):
    out = {}
    for key in PARAM_KEYS[clf.kind]:
        arr = clf.params[key]
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = _mean_loss(clf, X, labels)
            flat[idx] = orig - h
            lm = _mean_loss(clf, X, labels)
            flat[idx] = orig
            gflat[idx] = (lp - lm) / (2 * h)
        out[key] = g
    return out


def _assert_close_rel(analytic, numeric, rel=1e-6, floor=1e-8):
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    assert (err / scale).max() < rel


class TestInit:
    def test_linear_shapes_and_zero_bias(self):
        clf = init_classifier("linear", 2, 0, 3, RngStream(0))
        assert clf.params["W"].shape == (2, 3)
        assert clf.params["b"].shape == (3,)
        assert (clf.params["b"] == 0).all()
        assert (clf.momentum["W"] == 0).all()

    def test_same_seed_identical(self):
        a = init_classifier("mlp", 4, 5, 3, RngStream(12))
        b = init_classifier("mlp", 4, 5, 3, RngStream(12))
        for key in PARAM_KEYS["mlp"]:
            assert np.array_equal(a.params[key], b.params[key])

    def test_weights_within_bound(self):
        clf = init_classifier("linear", 10, 0, 4, RngStream(3))
        bound = np.sqrt(6.0 / (10 + 4))
        W = clf.params["W"]
        assert (W >= -bound).all() and (W <= bound).all()

    def test_invalid_dims(self):
        with pytest.raises(ContractError):
            init_classifier("linear", 0, 0, 3, RngStream(0))
        with pytest.raises(ContractError):
            init_classifier("linear", 2, 4, 3, RngStream(0))
        with pytest.raises(ContractError):
            init_classifier("mlp", 2, 0, 3, RngStream(0))
        with pytest.raises(ContractError):
            init_classifier("resnet", 2, 0, 3, RngStream(0))


class TestForward:
    def test_zero_weights_uniform(self):
        clf = init_classifier("linear", 3, 0, 4, RngStream(0))
        clf.params["W"][:] = 0.0
        _, P = batch_forward(clf, np.array([[1.0, -2.0, 0.5]]))
        assert P.shape == (1, 4)
        assert np.allclose(P[0], 0.25)

    def test_hand_mlp(self):
        clf = init_classifier("mlp", 2, 2, 2, RngStream(0))
        clf.params["W1"][:] = np.eye(2)
        clf.params["b1"][:] = 0.0
        clf.params["W2"][:] = np.eye(2)
        clf.params["b2"][:] = 0.0
        H, P = batch_forward(clf, np.array([[1.0, -2.0]]))
        # hand: hidden = relu([1, -2]) = [1, 0]; logits = [1, 0]
        assert np.array_equal(H, [[1.0, 0.0]])
        e = np.exp(1.0)
        assert np.allclose(P, [[e / (1 + e), 1 / (1 + e)]], atol=1e-15)

    def test_probabilities_sum_to_one(self):
        clf = init_classifier("mlp", 5, 7, 6, RngStream(4))
        _, P = batch_forward(clf, RngStream(5).normal((20, 5)))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        clf = init_classifier("linear", 3, 0, 2, RngStream(0))
        with pytest.raises(ContractError):
            batch_forward(clf, np.zeros((1, 4)))


class TestLossAndGrads:
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 6)])
    def test_matches_finite_differences(self, kind, hidden):
        rng = RngStream(100 if kind == "linear" else 200)
        for trial in range(6):
            D = 2 + trial % 4
            C = 2 + trial % 3
            clf = init_classifier(kind, D, hidden, C, rng.split(f"clf{trial}"))
            X = rng.split(f"x{trial}").normal((5, D))
            labels = rng.gen.integers(0, C, 5).astype(np.int64)
            _, grads = loss_and_grads(clf, X, labels)
            fd = _fd_grads(clf, X, labels)
            for key in PARAM_KEYS[kind]:
                _assert_close_rel(grads[key], fd[key])

    def test_duplicate_instances_equal_single(self):
        clf = init_classifier("linear", 3, 0, 2, RngStream(7))
        x = RngStream(8).normal((1, 3))
        _, g1 = loss_and_grads(clf, x, np.array([1]))
        _, g2 = loss_and_grads(clf, np.vstack([x, x]), np.array([1, 1]))
        for key in PARAM_KEYS["linear"]:
            np.testing.assert_allclose(g1[key], g2[key], rtol=1e-12)

    def test_near_zero_grad_at_confident_correct(self):
        clf = init_classifier("linear", 2, 0, 2, RngStream(0))
        clf.params["W"][:] = np.array([[30.0, -30.0], [0.0, 0.0]])
        x = np.array([[1.0, 0.0]])
        _, grads = loss_and_grads(clf, x, np.array([0]))
        norm = np.sqrt(sum((g**2).sum() for g in grads.values()))
        assert norm < 1e-8

    def test_empty_batch(self):
        clf = init_classifier("linear", 2, 0, 2, RngStream(0))
        with pytest.raises(ContractError):
            loss_and_grads(clf, np.empty((0, 2)), np.empty(0, dtype=int))


class TestSgdStep:
    def test_zero_lr_no_change(self):
        clf = init_classifier("linear", 3, 0, 2, RngStream(1))
        before = clf.params["W"].copy()
        grads = {"W": np.ones((3, 2)), "b": np.ones(2)}
        sgd_step(clf, grads, lr=0.0, momentum=0.9, weight_decay=1e-4)
        assert np.array_equal(clf.params["W"], before)

    def test_plain_gradient_descent(self):
        clf = init_classifier("linear", 2, 0, 2, RngStream(2))
        before = clf.params["W"].copy()
        g = np.full((2, 2), 0.5)
        sgd_step(clf, {"W": g, "b": np.zeros(2)}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.array_equal(clf.params["W"], before - 0.1 * g)

    def test_momentum_two_steps(self):
        # constant gradient g: second delta is lr * (1 + momentum) * g
        clf = init_classifier("linear", 2, 0, 2, RngStream(3))
        g = np.full((2, 2), 0.3)
        grads = {"W": g, "b": np.zeros(2)}
        sgd_step(clf, grads, lr=0.1, momentum=0.9, weight_decay=0.0)
        after_one = clf.params["W"].copy()
        sgd_step(clf, grads, lr=0.1, momentum=0.9, weight_decay=0.0)
        delta2 = after_one - clf.params["W"]
        np.testing.assert_allclose(delta2, 0.1 * 1.9 * g, rtol=1e-12)

    def test_shape_mismatch(self):
        clf = init_classifier("linear", 2, 0, 2, RngStream(4))
        with pytest.raises(ContractError):
            sgd_step(clf, {"W": np.zeros((3, 2)), "b": np.zeros(2)}, lr=0.1)

    def test_descends_on_separable_problem(self):
        rng = RngStream(9)
        X = np.vstack([rng.normal((30, 2)) + [3, 0], rng.normal((30, 2)) + [-3, 0]])
        y = np.array([0] * 30 + [1] * 30)
        clf = init_classifier("linear", 2, 0, 2, rng.split("init"))
        loss0, _ = loss_and_grads(clf, X, y)
        for _ in range(100):
            _, grads = loss_and_grads(clf, X, y)
            sgd_step(clf, grads, lr=0.5, momentum=0.9, weight_decay=0.0)
        loss1, _ = loss_and_grads(clf, X, y)
        assert loss1 < loss0


class TestLastLayerSnapshot:
    """The last layer and hidden map that ccc's meta step reads."""

    def test_linear_structure(self):
        clf = init_classifier("linear", 3, 0, 2, RngStream(5))
        W, b = last_layer(clf)
        assert W is clf.params["W"]
        assert b is clf.params["b"]
        X = RngStream(6).normal((4, 3))
        assert np.array_equal(hidden_layer(clf, X), X)

    def test_mlp_structure(self):
        clf = init_classifier("mlp", 3, 4, 2, RngStream(7))
        W, b = last_layer(clf)
        assert W is clf.params["W2"] and b is clf.params["b2"]
        X = RngStream(8).normal((5, 3))
        H, _ = batch_forward(clf, X)
        assert np.array_equal(hidden_layer(clf, X), H)


# Pre-activations where a mask read from the ReLU's output could part from
# one read from its input: both zeros, the smallest subnormals, NaN.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, np.nan, 1.0, -1.0]


@st.composite
def relu_cases(draw):
    n, h, c = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(_EDGES), st.floats(-2.0, 2.0))
    pre = np.array(draw(st.lists(value, min_size=n * h, max_size=n * h))).reshape(n, h)
    scale = np.array(draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, 3.0]),
                                   min_size=n, max_size=n)))
    return pre, scale, c, draw(st.integers(0, 2**32 - 1))


def _oracle_grads(clf, X, pre, dZ):
    """backprop's hidden-layer gradients with the ReLU mask taken from pre."""
    dA = (dZ @ clf.params["W2"].T) * (pre > 0.0)
    return {"W1": X.T @ dA, "b1": dA.sum(axis=0)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(relu_cases())
def test_backprop_masks_with_H_as_with_the_pre_activation(case):
    pre, scale, c, seed = case
    (n, h), rng = pre.shape, RngStream(seed)
    clf = init_classifier("mlp", 1, h, c, rng.split("init"))
    dZ = rng.normal((n, c))
    # One input feature: each forward pre-activation is scale * W1 + b1, one
    # product and one sum, so the drawn edges reach it. BLAS writes no -0.0.
    clf.params["W1"][:] = pre[:1]
    clf.params["b1"][:] = pre[-1]
    X = scale[:, None]
    forward_pre = X @ clf.params["W1"] + clf.params["b1"]
    H = hidden_layer(clf, X)
    assert np.array_equal(H, np.maximum(forward_pre, 0.0), equal_nan=True)
    # The drawn matrix itself, -0.0 included, through the ReLU hidden_layer takes.
    for got_pre, got_H in ((forward_pre, H), (pre, np.maximum(pre, 0.0))):
        grads, want = backprop(clf, X, got_H, dZ), _oracle_grads(clf, X, got_pre, dZ)
        for key, value in want.items():
            assert grads[key].tobytes() == value.tobytes(), key


class TestSerialization:
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 5)])
    def test_roundtrip(self, tmp_path, kind, hidden):
        clf = init_classifier(kind, 4, hidden, 3, RngStream(11))
        path = tmp_path / "model.bin"
        save_model(clf, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        for key in PARAM_KEYS[kind]:
            assert np.array_equal(loaded.params[key], clf.params[key])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(ContractError):
            load_model(path)

    def test_truncated(self, tmp_path):
        clf = init_classifier("linear", 4, 0, 3, RngStream(12))
        path = tmp_path / "model.bin"
        save_model(clf, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ContractError):
            load_model(path)

    @pytest.mark.parametrize("size", [4, 6, 23])
    def test_truncated_header(self, tmp_path, size):
        path = tmp_path / "model.bin"
        save_model(init_classifier("linear", 4, 0, 3, RngStream(12)), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ContractError, match=r"model\.bin: truncated model blob$"):
            load_model(path)
