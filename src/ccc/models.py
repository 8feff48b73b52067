"""Desk-scale classifiers with hand-derived gradients.

Two kinds: plain linear softmax and a one-hidden-layer ReLU MLP. Both
expose the penultimate representation and the last-layer parameters so
the training code can run its virtual step and meta gradient through the
last layer alone while treating everything below as constant.

Parameter layout (declaration order, also the serialization order):
    linear: W (D, C), b (C,)
    mlp:    W1 (D, H), b1 (H,), W2 (H, C), b2 (C,)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .numerics import CE_FLOOR, softmax_rows
from .rng import RngStream

PARAM_KEYS = {"linear": ("W", "b"), "mlp": ("W1", "b1", "W2", "b2")}
_KIND_TAGS = {"linear": 0, "mlp": 1}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass
class Classifier:
    kind: str
    input_dim: int
    hidden_dim: int
    class_count: int
    params: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.momentum:
            self.momentum = {k: np.zeros_like(v) for k, v in self.params.items()}


def init_classifier(kind: str, input_dim: int, hidden_dim: int, class_count: int,
                    rng: RngStream) -> Classifier:
    """Scaled-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    if kind not in PARAM_KEYS:
        raise ContractError(f"unknown classifier kind {kind!r}")
    if input_dim < 1 or class_count < 1:
        raise ContractError("input_dim and class_count must be >= 1")
    if kind == "linear":
        if hidden_dim != 0:
            raise ContractError("linear kind requires hidden_dim == 0")
        bound = np.sqrt(6.0 / (input_dim + class_count))
        params = {
            "W": rng.uniform_range(-bound, bound, (input_dim, class_count)),
            "b": np.zeros(class_count),
        }
    else:
        if hidden_dim < 1:
            raise ContractError("mlp kind requires hidden_dim >= 1")
        b1 = np.sqrt(6.0 / (input_dim + hidden_dim))
        b2 = np.sqrt(6.0 / (hidden_dim + class_count))
        params = {
            "W1": rng.uniform_range(-b1, b1, (input_dim, hidden_dim)),
            "b1": np.zeros(hidden_dim),
            "W2": rng.uniform_range(-b2, b2, (hidden_dim, class_count)),
            "b2": np.zeros(class_count),
        }
    return Classifier(kind, input_dim, hidden_dim, class_count, params)


def batch_forward(clf: Classifier, X: np.ndarray):
    """Forward a (n, D) batch; returns (pre_act, penultimate, probs).

    pre_act is the hidden pre-activation for the mlp kind (needed for the
    ReLU mask in backprop) and None for linear.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.input_dim:
        raise ContractError(
            f"expected features of dim {clf.input_dim}, got shape {X.shape}")
    if clf.kind == "linear":
        H = X
        pre = None
    else:
        pre = X @ clf.params["W1"] + clf.params["b1"]
        H = np.maximum(pre, 0.0)
    Z = H @ clf.params["W" if clf.kind == "linear" else "W2"] + clf.params[
        "b" if clf.kind == "linear" else "b2"]
    return pre, H, softmax_rows(Z)


def backprop(clf: Classifier, X: np.ndarray, pre, H, dZ) -> dict[str, np.ndarray]:
    """Parameter gradients from accumulated logit gradients dZ (n, C)."""
    if clf.kind == "linear":
        return {"W": X.T @ dZ, "b": dZ.sum(axis=0)}
    dH = dZ @ clf.params["W2"].T
    dA = dH * (pre > 0.0)
    return {
        "W1": X.T @ dA,
        "b1": dA.sum(axis=0),
        "W2": H.T @ dZ,
        "b2": dZ.sum(axis=0),
    }


def single_label_ce(labels: np.ndarray):
    """Loss definition: per-instance cross entropy against fixed labels.

    Returns a callable mapping softmax outputs P (n, C) to per-instance
    losses and per-instance logit gradients, with the CE_FLOOR clamp's
    zero-gradient branch handled exactly.
    """
    labels = np.asarray(labels, dtype=np.int64)

    def loss_def(P: np.ndarray):
        n = P.shape[0]
        py = P[np.arange(n), labels]
        losses = -np.log(np.maximum(py, CE_FLOOR))
        dZ = P.copy()
        dZ[np.arange(n), labels] -= 1.0
        dZ[py <= CE_FLOOR] = 0.0
        return losses, dZ

    return loss_def


def loss_and_grads(clf: Classifier, X: np.ndarray, loss_def):
    """Mean loss over the batch and its exact parameter gradients.

    loss_def(P) must return (per-instance losses, per-instance dloss/dlogits).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ContractError("batch must be a nonempty (n, D) array")
    pre, H, P = batch_forward(clf, X)
    losses, dZ = loss_def(P)
    n = X.shape[0]
    grads = backprop(clf, X, pre, H, dZ / n)
    return float(losses.mean()), grads


def sgd_step(clf: Classifier, grads: dict[str, np.ndarray], lr: float,
             momentum: float = 0.0, weight_decay: float = 0.0) -> Classifier:
    """In-place SGD with momentum buffers and additive weight decay.

    buffer <- momentum*buffer + grad + weight_decay*param
    param  <- param - lr*buffer
    """
    for key in PARAM_KEYS[clf.kind]:
        g = grads[key]
        p = clf.params[key]
        if g.shape != p.shape:
            raise ContractError(f"gradient shape {g.shape} != param shape {p.shape} for {key}")
        buf = clf.momentum[key]
        buf *= momentum
        buf += g
        if weight_decay != 0.0:
            buf += weight_decay * p
        p -= lr * buf
    return clf


def last_layer_snapshot(clf: Classifier):
    """Copies of the last-layer parameters plus a frozen penultimate map.

    The returned function closes over copies of the sub-last-layer
    parameters, so mutating either the snapshot or the live classifier
    afterwards does not affect the other.
    """
    if clf.kind == "linear":
        W = clf.params["W"].copy()
        b = clf.params["b"].copy()

        def penultimate_fn(X):
            return np.asarray(X, dtype=np.float64)
    else:
        W = clf.params["W2"].copy()
        b = clf.params["b2"].copy()
        W1 = clf.params["W1"].copy()
        b1 = clf.params["b1"].copy()

        def penultimate_fn(X):
            return np.maximum(np.asarray(X, dtype=np.float64) @ W1 + b1, 0.0)

    return W, b, penultimate_fn


_MAGIC = b"CCCM"
_VERSION = 1


def save_model(clf: Classifier, path) -> None:
    """Flat binary blob: magic, version, kind tag, dims, params (f64 LE)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIII", _VERSION, _KIND_TAGS[clf.kind],
                             clf.input_dim, clf.hidden_dim, clf.class_count))
        for key in PARAM_KEYS[clf.kind]:
            arr = np.ascontiguousarray(clf.params[key], dtype="<f8")
            fh.write(arr.tobytes())


def load_model(path) -> Classifier:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ContractError(f"{path}: not a model blob (bad magic)")
    version, tag, input_dim, hidden_dim, class_count = struct.unpack("<IIIII", blob[4:24])
    if version != _VERSION:
        raise ContractError(f"{path}: unsupported model format version {version}")
    if tag not in _TAG_KINDS:
        raise ContractError(f"{path}: unknown classifier kind tag {tag}")
    kind = _TAG_KINDS[tag]
    shapes = {
        "linear": [("W", (input_dim, class_count)), ("b", (class_count,))],
        "mlp": [("W1", (input_dim, hidden_dim)), ("b1", (hidden_dim,)),
                ("W2", (hidden_dim, class_count)), ("b2", (class_count,))],
    }[kind]
    params = {}
    offset = 24
    for key, shape in shapes:
        count = int(np.prod(shape))
        end = offset + 8 * count
        if end > len(blob):
            raise ContractError(f"{path}: truncated model blob")
        params[key] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise ContractError(f"{path}: trailing bytes in model blob")
    return Classifier(kind, input_dim, hidden_dim, class_count, params)
