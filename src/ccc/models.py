"""Desk-scale classifiers with hand-derived gradients.

Two kinds: plain linear softmax and a one-hidden-layer ReLU MLP. Both
expose the penultimate representation and the last-layer parameters so
the training code can run its virtual step and meta gradient through the
last layer alone while treating everything below as constant.

param_shapes gives each kind's parameter layout, in declaration order,
which is also the serialization order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .files import atomic_open
from .kernels import Workspace
from .numerics import CE_FLOOR, softmax_rows
from .rng import RngStream

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


def param_shapes(kind: str, D: int, H: int, C: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each parameter, in order, for D inputs, H hidden units, C classes."""
    if kind == "linear":
        return [("W", (D, C)), ("b", (C,))]
    return [("W1", (D, H)), ("b1", (H,)), ("W2", (H, C)), ("b2", (C,))]


PARAM_KEYS = {kind: tuple(name for name, _ in param_shapes(kind, 0, 0, 0))
              for kind in _KIND_TAGS}


def init_classifier(kind: str, input_dim: int, hidden_dim: int, class_count: int,
                    rng: RngStream) -> Classifier:
    """Scaled-uniform weights (bound sqrt(6/(fan_in+fan_out))), drawn in order; zero biases."""
    if kind not in PARAM_KEYS:
        raise ContractError(f"unknown classifier kind {kind!r}")
    if input_dim < 1 or class_count < 1:
        raise ContractError("input_dim and class_count must be >= 1")
    if kind == "linear" and hidden_dim != 0:
        raise ContractError("linear kind requires hidden_dim == 0")
    if kind == "mlp" and hidden_dim < 1:
        raise ContractError("mlp kind requires hidden_dim >= 1")
    params = {}
    for key, shape in param_shapes(kind, input_dim, hidden_dim, class_count):
        if len(shape) == 1:
            params[key] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / sum(shape))
            params[key] = rng.uniform_range(-bound, bound, shape)
    return Classifier(kind, input_dim, hidden_dim, class_count, params)


def hidden_layer(clf: Classifier, X: np.ndarray, ws=None):
    """(pre_act, penultimate) of a (n, D) float batch.

    pre_act is the hidden pre-activation for the mlp kind (needed for the
    ReLU mask in backprop) and None for linear, whose penultimate is X.
    """
    if clf.kind == "linear":
        return None, X
    ws = Workspace() if ws is None else ws
    pre = np.matmul(X, clf.params["W1"], out=ws.array("pre", (X.shape[0], clf.hidden_dim)))
    pre += clf.params["b1"]
    return pre, np.maximum(pre, 0.0, out=ws.array("hidden", pre.shape))


def last_layer(clf: Classifier):
    """The live last-layer parameters (W, b), not copies."""
    if clf.kind == "linear":
        return clf.params["W"], clf.params["b"]
    return clf.params["W2"], clf.params["b2"]


def batch_forward(clf: Classifier, X: np.ndarray, ws=None):
    """Forward a (n, D) batch; returns (pre_act, penultimate, probs), views of ws if given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.input_dim:
        raise ContractError(
            f"expected features of dim {clf.input_dim}, got shape {X.shape}")
    ws = Workspace() if ws is None else ws
    pre, H = hidden_layer(clf, X, ws)
    W, b = last_layer(clf)
    Z = np.matmul(H, W, out=ws.array("logits", (X.shape[0], clf.class_count)))
    Z += b
    return pre, H, softmax_rows(Z, out=Z)


def backprop(clf: Classifier, X: np.ndarray, pre, H, dZ, ws=None) -> dict[str, np.ndarray]:
    """Parameter gradients, new arrays, from accumulated logit gradients dZ (n, C)."""
    if clf.kind == "linear":
        return {"W": X.T @ dZ, "b": dZ.sum(axis=0)}
    ws = Workspace() if ws is None else ws
    dA = np.matmul(dZ, clf.params["W2"].T, out=ws.array("d_hidden", pre.shape))
    dA *= pre > 0.0
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


def loss_and_grads(clf: Classifier, X: np.ndarray, loss_def, ws=None):
    """Mean loss over the batch and its exact parameter gradients.

    loss_def(P) must return (per-instance losses, per-instance dloss/dlogits).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ContractError("batch must be a nonempty (n, D) array")
    pre, H, P = batch_forward(clf, X, ws)
    losses, dZ = loss_def(P)
    n = X.shape[0]
    grads = backprop(clf, X, pre, H, dZ / n, ws)
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


_MAGIC = b"CCCM"
_VERSION = 1


def save_model(clf: Classifier, path) -> None:
    """Flat binary blob: magic, version, kind tag, dims, params (f64 LE)."""
    with atomic_open(path, "wb") as fh:
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
    params = {}
    offset = 24
    for key, shape in param_shapes(kind, input_dim, hidden_dim, class_count):
        count = int(np.prod(shape))
        end = offset + 8 * count
        if end > len(blob):
            raise ContractError(f"{path}: truncated model blob")
        params[key] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise ContractError(f"{path}: trailing bytes in model blob")
    return Classifier(kind, input_dim, hidden_dim, class_count, params)
