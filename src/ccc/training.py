"""Training algorithms over crowd annotations.

Three trainers share one evaluation/bookkeeping harness:

  * majority: aggregate each instance's labels by majority vote, then
    plain cross-entropy training.
  * crowdlayer: jointly fit the classifier and one transition matrix per
    annotator; an annotation (i, r, y) is scored by the clamped,
    renormalized distribution p_i @ T[r].
  * ccc: two coupled crowdlayer models. After a warmup phase each epoch
    distills a class-balanced meta set for the other model (small-loss
    selection over majority-vote candidates), clusters annotators by
    their learned transitions, and runs a three-stage update per batch:
    a discarded virtual step of the last layer, a meta update of the
    per-group correction matrices through that step (exact last-layer
    hypergradient), and the actual step on corrected transitions.

RNG streams are split per purpose (init/batches/meta per model, plus one
for clustering), so the ccc trainer with corrections disabled (gamma=0)
consumes batch randomness exactly like the plain crowdlayer trainer and
reproduces its trajectory bit for bit.

Weight decay applies to classifier parameters only; transition matrices
carry momentum but no decay, so annotators absent from a batch receive
an exactly-zero gradient and, with cold buffers, keep their matrices
untouched.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import CrowdDataset, MetaSet, evaluate_accuracy
from .errors import ConfigError, ContractError
from .kernels import EPS, crowd_grads, hyper_grads
from .models import (Classifier, backprop, batch_forward, init_classifier,
                     last_layer_snapshot, loss_and_grads, sgd_step,
                     single_label_ce)
from .numerics import CE_FLOOR, kmeans, softmax_rows
from .rng import RngStream

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    algo: str = "ccc"                 # majority | crowdlayer | ccc
    epochs: int = 60
    warmup: int = 10
    batch_size: int = 128
    meta_batch: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    gamma: float = 0.5                # correction rate scaling the meta lr
    meta_size: int = 200
    groups: int = 5
    seed: int = 0
    confusion_init: str = "identity"  # identity | votes
    model: str = "linear"             # linear | mlp
    hidden_dim: int = 32
    lr_decay_epoch: int | None = 40   # divide lr by 10 from this epoch on
    v_reset: str = "iteration"        # iteration | epoch
    grouping: str = "joint"           # joint | per-model

    def validate(self) -> None:
        if self.algo not in ("majority", "crowdlayer", "ccc"):
            raise ConfigError(f"unknown algo {self.algo!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.algo == "ccc" and not 0 <= self.warmup < self.epochs:
            raise ConfigError("need 0 <= warmup < epochs")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if self.meta_size < 1 or self.meta_batch < 1 or self.groups < 1:
            raise ConfigError("meta_size, meta_batch, groups must be >= 1")
        if self.confusion_init not in ("identity", "votes"):
            raise ConfigError(f"unknown confusion_init {self.confusion_init!r}")
        if self.model not in ("linear", "mlp"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.v_reset not in ("iteration", "epoch"):
            raise ConfigError(f"unknown v_reset {self.v_reset!r}")
        if self.grouping not in ("joint", "per-model"):
            raise ConfigError(f"unknown grouping {self.grouping!r}")

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class ConfusionSet:
    T: np.ndarray    # (R, C, C) learned transitions, unconstrained
    mom: np.ndarray  # momentum buffers, same shape


@dataclass
class CorrectionSet:
    V: np.ndarray         # (G, C, C), re-zeroed per iteration (or epoch)
    group_of: np.ndarray  # (R,) annotator -> group


@dataclass
class CccState:
    clf: Classifier
    confusions: ConfusionSet
    corrections: CorrectionSet | None
    meta_set: MetaSet | None
    epoch: int


@dataclass
class RunResult:
    algo: str
    seed: int
    curves: dict[str, list[float]]
    best: dict[str, float]
    last: dict[str, float]
    confusions: np.ndarray | None
    config: dict
    wall_time_sec: float
    groups_by_epoch: list[tuple[int, np.ndarray]] = field(default_factory=list)


@dataclass
class Batch:
    features: np.ndarray       # (n, D)
    ann_instance: np.ndarray   # (A,) batch-local row indices
    ann_annotator: np.ndarray  # (A,)
    ann_label: np.ndarray      # (A,)
    labels: np.ndarray | None = None


# ---------------------------------------------------------------------------
# label aggregation
# ---------------------------------------------------------------------------

def majority_vote(labels) -> int:
    """Modal label; ties break toward the lowest class index."""
    arr = np.asarray(labels, dtype=np.int64)
    if arr.size == 0:
        raise ContractError("majority_vote needs a nonempty label multiset")
    return int(np.bincount(arr).argmax())


def aggregate_majority(ds: CrowdDataset) -> np.ndarray:
    counts = np.zeros((ds.n, ds.class_count), dtype=np.int64)
    np.add.at(counts, (ds.ann_instance, ds.ann_label), 1)
    if (counts.sum(axis=1) == 0).any():
        raise ContractError("every instance needs at least one annotation")
    return counts.argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# losses and confusion initialization
# ---------------------------------------------------------------------------

def crowdlayer_instance_loss(p, T_r, label: int, V_g=None) -> float:
    """Cross entropy of the clamped, renormalized reported-label law."""
    p = np.asarray(p, dtype=np.float64)
    M = np.asarray(T_r, dtype=np.float64)
    if V_g is not None:
        M = M + V_g
    if M.shape != (p.shape[0], p.shape[0]):
        raise ContractError("transition matrix shape must match class count")
    q = np.maximum(p @ M, EPS)
    ratio = q[label] / q.sum()
    return float(-np.log(max(ratio, EPS)))


def init_confusion_identity(R: int, C: int) -> np.ndarray:
    return np.broadcast_to(np.eye(C), (R, C, C)).copy()


def init_confusion_votes(ds: CrowdDataset, smoothing: float = 1e-6) -> np.ndarray:
    """Log-ratio initialization from soft vote statistics.

    Per instance, Q is the mean of its one-hot crowd labels. Row p of
    annotator r is log of the smoothed ratio between the Q(p)-weighted
    count of reports q and the Q(p) mass over instances r labeled, so
    each row exponentiates to a smoothed stochastic vector. Annotators
    (or rows) with no labeled mass come out log-uniform.
    """
    N, C, R = ds.n, ds.class_count, ds.annotator_count
    counts = np.zeros((N, C))
    np.add.at(counts, (ds.ann_instance, ds.ann_label), 1.0)
    Q = counts / counts.sum(axis=1, keepdims=True)
    num = np.zeros((R, C, C))
    den = np.zeros((R, C))
    Qa = Q[ds.ann_instance]
    for p in range(C):
        np.add.at(num[:, p, :], (ds.ann_annotator, ds.ann_label), Qa[:, p])
        np.add.at(den[:, p], ds.ann_annotator, Qa[:, p])
    return np.log((num + smoothing) / (den + C * smoothing)[:, :, None])


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def _csr(ds: CrowdDataset):
    return ds.instance_slices()


def make_batch(ds: CrowdDataset, idx: np.ndarray, csr=None) -> Batch:
    """Gather one batch's features and annotations (batch-local indices)."""
    if csr is None:
        csr = _csr(ds)
    _, ar, al, ptr = csr
    idx = np.asarray(idx, dtype=np.int64)
    counts = ptr[idx + 1] - ptr[idx]
    total = int(counts.sum())
    rel = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.repeat(ptr[idx], counts) + rel
    return Batch(
        features=ds.features[idx],
        ann_instance=np.repeat(np.arange(idx.size, dtype=np.int64), counts),
        ann_annotator=ar[flat],
        ann_label=al[flat],
        labels=None if ds.truth is None else ds.truth[idx],
    )


def _epoch_chunks(perm: np.ndarray, batch_size: int):
    for lo in range(0, perm.size, batch_size):
        yield perm[lo:lo + batch_size]


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    if cfg.lr_decay_epoch is not None and epoch >= cfg.lr_decay_epoch:
        return cfg.lr / 10.0
    return cfg.lr


def _resolve_eval(ds: CrowdDataset, eval_set):
    if eval_set is not None:
        return eval_set
    if ds.truth is not None:
        return ds.features, ds.truth
    raise ConfigError("accuracy curves need an eval set or dataset truth labels")


def _crowd_step(clf: Classifier, conf: ConfusionSet, V: np.ndarray,
                group_of: np.ndarray, batch: Batch, lr: float,
                momentum: float, weight_decay: float, forward=None):
    """One joint SGD step on (classifier, transitions) for a batch.

    Corrections V stay constant; their group gather contributes to the
    forward transition only. `forward` is batch_forward(clf, features)
    when the caller already has it for the current parameters. Returns
    (mean loss, normalized dT).
    """
    M = conf.T + V[group_of]
    pre, H, P = batch_forward(clf, batch.features) if forward is None else forward
    loss_sum, dZ, dM = crowd_grads(P, batch.ann_instance, batch.ann_annotator,
                                   batch.ann_label, M, conf.T.shape[0])
    a = max(batch.ann_instance.shape[0], 1)
    grads = backprop(clf, batch.features, pre, H, dZ / a)
    sgd_step(clf, grads, lr, momentum, weight_decay)
    dT = dM / a
    conf.mom *= momentum
    conf.mom += dT
    conf.T -= lr * conf.mom
    return loss_sum / a, dT


# ---------------------------------------------------------------------------
# meta machinery
# ---------------------------------------------------------------------------

def distill_meta_set(ds: CrowdDataset, scorer: Classifier, M: int) -> MetaSet:
    """Small-loss selection, class-balanced by majority-vote candidates.

    For each class c, instances whose majority-vote label is c are
    ranked by the scorer's cross entropy against c; the floor(M/C)
    smallest-loss ones enter the meta set with pseudo-label c.
    """
    C = ds.class_count
    mv = aggregate_majority(ds)
    _, _, P = batch_forward(scorer, ds.features)
    losses = -np.log(np.maximum(P[np.arange(ds.n), mv], CE_FLOOR))
    quota = M // C
    keep: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for c in range(C):
        cand = np.flatnonzero(mv == c)
        if cand.size == 0:
            log.warning("meta distillation: no candidates for class %d", c)
            continue
        order = cand[np.argsort(losses[cand], kind="stable")]
        chosen = order[:quota]
        keep.append(chosen)
        labels.append(np.full(chosen.size, c, dtype=np.int64))
    if not keep:
        return MetaSet(np.empty((0, ds.d)), np.empty(0, dtype=np.int64))
    sel = np.concatenate(keep)
    return MetaSet(ds.features[sel], np.concatenate(labels))


def group_annotators(T1: np.ndarray, T2: np.ndarray, G: int,
                     rng: RngStream, restarts: int = 1) -> np.ndarray:
    """Joint clustering over both models' flattened transitions.

    With restarts > 1 the lowest-inertia run wins (50 points in a couple
    hundred dimensions leave Lloyd prone to local minima).
    """
    if T1.shape != T2.shape:
        raise ContractError("both confusion sets must have the same shape")
    R = T1.shape[0]
    if G > R:
        raise ContractError(f"G={G} exceeds annotator count {R}")
    feats = np.concatenate([T1.reshape(R, -1), T2.reshape(R, -1)], axis=1)
    best = None
    for _ in range(max(1, restarts)):
        res = kmeans(feats, G, rng=rng)
        if best is None or res.inertia < best.inertia:
            best = res
    return best.assignments


def _group_single(T: np.ndarray, G: int, rng: RngStream) -> np.ndarray:
    R = T.shape[0]
    if G > R:
        raise ContractError(f"G={G} exceeds annotator count {R}")
    return kmeans(T.reshape(R, -1), G, rng=rng).assignments


def auto_meta_lr(T: np.ndarray, g_cor: np.ndarray, gamma: float) -> float:
    """gamma * max T entry / max |correction gradient|, zero when flat."""
    denom = float(np.abs(g_cor).max()) if g_cor.size else 0.0
    if denom < 1e-12 or gamma == 0.0:
        return 0.0
    return gamma * float(T.max()) / denom


def correction_gradient(clf: Classifier, T: np.ndarray, V: np.ndarray,
                        group_of: np.ndarray, batch: Batch,
                        meta_features: np.ndarray, meta_labels: np.ndarray,
                        eta_v: float, forward=None) -> np.ndarray:
    """Exact gradient of the meta loss w.r.t. the group corrections.

    The virtual step moves only the last layer: (W, b) minus eta_v times
    their batch-loss gradient under transitions T + V. The meta loss is
    plain cross entropy at the virtually stepped layer over the frozen
    penultimate map. Its total derivative w.r.t. V is -eta_v times the
    V-gradient of <grad_{W,b} batch loss, meta-loss gradient at the
    virtual point>, accumulated per annotation in the kernel.

    `forward` is batch_forward(clf, batch.features) when the caller
    already has it; only the last layer moves, so the batch forward at
    the current parameters is all the virtual step needs.
    """
    W, b, penultimate_fn = last_layer_snapshot(clf)
    G, C = V.shape[0], V.shape[1]
    a = batch.ann_instance.shape[0]
    if a == 0 or meta_labels.shape[0] == 0:
        return np.zeros((G, C, C))
    M = T + V[group_of]
    _, H, P = batch_forward(clf, batch.features) if forward is None else forward
    _, dZ, _ = crowd_grads(P, batch.ann_instance, batch.ann_annotator,
                           batch.ann_label, M, T.shape[0], want_dM=False)
    gW = H.T @ dZ / a
    gb = dZ.sum(axis=0) / a
    W_hat = W - eta_v * gW
    b_hat = b - eta_v * gb

    Hm = penultimate_fn(meta_features)
    Pm = softmax_rows(Hm @ W_hat + b_hat)
    m = meta_labels.shape[0]
    dZm = Pm.copy()
    rows = np.arange(m)
    dZm[rows, meta_labels] -= 1.0
    dZm[Pm[rows, meta_labels] <= CE_FLOOR] = 0.0
    uW = Hm.T @ dZm / m
    ub = dZm.sum(axis=0) / m

    U = H @ uW + ub
    dV = hyper_grads(P, U, batch.ann_instance, batch.ann_annotator,
                     batch.ann_label, M, group_of, G)
    return -(eta_v / a) * dV


def ccc_outer_step(state: CccState, train_batch: Batch, meta_batch,
                   cfg: TrainConfig, eta_v: float | None = None,
                   forward=None) -> CorrectionSet:
    """Virtual + meta stage: update corrections, leave the model untouched."""
    meta_features, meta_labels = meta_batch
    cor = state.corrections
    if meta_labels.shape[0] == 0:
        log.warning("empty meta batch: skipping correction update")
        return cor
    eta = cfg.lr if eta_v is None else eta_v
    g_cor = correction_gradient(state.clf, state.confusions.T, cor.V,
                                cor.group_of, train_batch,
                                meta_features, meta_labels, eta, forward)
    eta_m = auto_meta_lr(state.confusions.T, g_cor, cfg.gamma)
    if eta_m != 0.0:
        cor.V -= eta_m * g_cor
    return cor


def ccc_actual_step(state: CccState, train_batch: Batch, cfg: TrainConfig,
                    lr: float | None = None, forward=None):
    """Inner stage: full joint step under corrected transitions."""
    cor = state.corrections
    return _crowd_step(state.clf, state.confusions, cor.V, cor.group_of,
                       train_batch, cfg.lr if lr is None else lr, cfg.momentum,
                       cfg.weight_decay, forward)


# ---------------------------------------------------------------------------
# trainers
# ---------------------------------------------------------------------------

def _finish(algo: str, cfg: TrainConfig, curves: dict, confusions, t0: float,
            groups_by_epoch=None) -> RunResult:
    best = {k: float(max(v)) for k, v in curves.items()}
    last = {k: float(v[-1]) for k, v in curves.items()}
    if len(curves) == 2:
        mean_curve = [(a + b) / 2 for a, b in zip(*curves.values())]
        best["mean"] = float(max(mean_curve))
        last["mean"] = float(mean_curve[-1])
    return RunResult(algo=algo, seed=cfg.seed, curves=curves, best=best,
                     last=last, confusions=confusions, config=cfg.echo(),
                     wall_time_sec=time.perf_counter() - t0,
                     groups_by_epoch=groups_by_epoch or [])


def train_majority(ds: CrowdDataset, cfg: TrainConfig, eval_set=None):
    """Majority-vote aggregation followed by single-label training."""
    cfg.validate()
    t0 = time.perf_counter()
    eval_X, eval_y = _resolve_eval(ds, eval_set)
    master = RngStream(cfg.seed)
    clf = init_classifier(cfg.model, ds.d,
                          cfg.hidden_dim if cfg.model == "mlp" else 0,
                          ds.class_count, master.split("init-model1"))
    batch_rng = master.split("batches-model1")
    mv = aggregate_majority(ds)
    curve = []
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        for idx in _epoch_chunks(batch_rng.permutation(ds.n), cfg.batch_size):
            _, grads = loss_and_grads(clf, ds.features[idx], single_label_ce(mv[idx]))
            sgd_step(clf, grads, lr, cfg.momentum, cfg.weight_decay)
        curve.append(evaluate_accuracy(clf, eval_X, eval_y))
    res = _finish("majority", cfg, {"model1": curve}, None, t0)
    return res, clf


def _init_confusions(ds: CrowdDataset, cfg: TrainConfig) -> ConfusionSet:
    if cfg.confusion_init == "identity":
        T0 = init_confusion_identity(ds.annotator_count, ds.class_count)
    else:
        # The log-ratio statistic lives in log space; the multiplicative
        # transition convention needs the probability-scale matrix.
        T0 = np.exp(init_confusion_votes(ds))
    return ConfusionSet(T=T0, mom=np.zeros_like(T0))


def train_crowdlayer(ds: CrowdDataset, cfg: TrainConfig, eval_set=None,
                     on_step=None, model_tag: str = "model1"):
    """Joint classifier + transition training over all annotations."""
    cfg.validate()
    t0 = time.perf_counter()
    eval_X, eval_y = _resolve_eval(ds, eval_set)
    master = RngStream(cfg.seed)
    clf = init_classifier(cfg.model, ds.d,
                          cfg.hidden_dim if cfg.model == "mlp" else 0,
                          ds.class_count, master.split(f"init-{model_tag}"))
    batch_rng = master.split(f"batches-{model_tag}")
    conf = _init_confusions(ds, cfg)
    V0 = np.zeros((1, ds.class_count, ds.class_count))
    g0 = np.zeros(ds.annotator_count, dtype=np.int64)
    csr = _csr(ds)
    curve = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        for idx in _epoch_chunks(batch_rng.permutation(ds.n), cfg.batch_size):
            batch = make_batch(ds, idx, csr)
            loss, dT = _crowd_step(clf, conf, V0, g0, batch, lr,
                                   cfg.momentum, cfg.weight_decay)
            if on_step is not None:
                on_step({"model": model_tag, "epoch": epoch, "step": step,
                         "phase": "crowdlayer", "loss": loss, "dT": dT,
                         "present": np.unique(batch.ann_annotator)})
            step += 1
        curve.append(evaluate_accuracy(clf, eval_X, eval_y))
    res = _finish("crowdlayer", cfg, {"model1": curve}, conf.T.copy(), t0)
    state = CccState(clf=clf, confusions=conf, corrections=None,
                     meta_set=None, epoch=cfg.epochs)
    return res, state


def train_ccc(ds: CrowdDataset, cfg: TrainConfig, eval_set=None, on_step=None):
    """Coupled training: warmup, then distill/cluster/correct per epoch."""
    cfg.validate()
    t0 = time.perf_counter()
    eval_X, eval_y = _resolve_eval(ds, eval_set)
    C, R, G = ds.class_count, ds.annotator_count, cfg.groups
    if cfg.meta_size < C:
        raise ConfigError(f"meta_size={cfg.meta_size} is below the class count {C}: "
                          "every class would get an empty meta quota")
    if G > R:
        raise ConfigError(f"groups={G} exceeds the annotator count {R}")
    master = RngStream(cfg.seed)
    kmeans_rng = master.split("kmeans")
    tags = ("model1", "model2")
    states = []
    batch_rngs = []
    meta_rngs = []
    for tag in tags:
        clf = init_classifier(cfg.model, ds.d,
                              cfg.hidden_dim if cfg.model == "mlp" else 0,
                              C, master.split(f"init-{tag}"))
        states.append(CccState(
            clf=clf, confusions=_init_confusions(ds, cfg),
            corrections=CorrectionSet(V=np.zeros((G, C, C)),
                                      group_of=np.zeros(R, dtype=np.int64)),
            meta_set=None, epoch=0))
        batch_rngs.append(master.split(f"batches-{tag}"))
        meta_rngs.append(master.split(f"meta-{tag}"))
    csr = _csr(ds)
    curves = {tag: [] for tag in tags}
    groups_by_epoch = []
    steps = [0, 0]

    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        if epoch < cfg.warmup:
            for kk, (tag, state) in enumerate(zip(tags, states)):
                for idx in _epoch_chunks(batch_rngs[kk].permutation(ds.n),
                                         cfg.batch_size):
                    batch = make_batch(ds, idx, csr)
                    # corrections are still all-zero during warmup
                    loss, dT = _crowd_step(state.clf, state.confusions,
                                           state.corrections.V,
                                           state.corrections.group_of, batch, lr,
                                           cfg.momentum, cfg.weight_decay)
                    if on_step is not None:
                        on_step({"model": tag, "epoch": epoch, "step": steps[kk],
                                 "phase": "warmup", "loss": loss, "dT": dT,
                                 "present": np.unique(batch.ann_annotator)})
                    steps[kk] += 1
        else:
            states[0].meta_set = distill_meta_set(ds, states[1].clf, cfg.meta_size)
            states[1].meta_set = distill_meta_set(ds, states[0].clf, cfg.meta_size)
            if cfg.grouping == "joint":
                shared = group_annotators(states[0].confusions.T,
                                          states[1].confusions.T, G, kmeans_rng)
                group_maps = [shared, shared]
            else:
                group_maps = [_group_single(s.confusions.T, G, kmeans_rng)
                              for s in states]
            groups_by_epoch.append((epoch, group_maps[0].copy()))
            for kk, (tag, state) in enumerate(zip(tags, states)):
                state.corrections = CorrectionSet(V=np.zeros((G, C, C)),
                                                  group_of=group_maps[kk])
                meta = state.meta_set
                meta_order = meta_rngs[kk].permutation(meta.size) if meta.size else None
                cursor = 0
                for idx in _epoch_chunks(batch_rngs[kk].permutation(ds.n),
                                         cfg.batch_size):
                    batch = make_batch(ds, idx, csr)
                    if cfg.v_reset == "iteration":
                        state.corrections.V[:] = 0.0
                    if meta.size:
                        take = min(cfg.meta_batch, meta.size)
                        sel = meta_order[(cursor + np.arange(take)) % meta.size]
                        cursor = (cursor + take) % meta.size
                        mb = (meta.features[sel], meta.labels[sel])
                    else:
                        mb = (np.empty((0, ds.d)), np.empty(0, dtype=np.int64))
                    # The outer step leaves the classifier as it is, so
                    # one forward serves both stages.
                    fwd = batch_forward(state.clf, batch.features)
                    ccc_outer_step(state, batch, mb, cfg, eta_v=lr, forward=fwd)
                    loss, dT = ccc_actual_step(state, batch, cfg, lr=lr,
                                               forward=fwd)
                    if on_step is not None:
                        on_step({"model": tag, "epoch": epoch, "step": steps[kk],
                                 "phase": "ccc", "loss": loss, "dT": dT,
                                 "present": np.unique(batch.ann_annotator)})
                    steps[kk] += 1
        for tag, state in zip(tags, states):
            curves[tag].append(evaluate_accuracy(state.clf, eval_X, eval_y))
        states[0].epoch = states[1].epoch = epoch + 1

    results = []
    for tag, state in zip(tags, states):
        res = _finish("ccc", cfg, {tag: curves[tag]},
                      state.confusions.T.copy(), t0,
                      groups_by_epoch=groups_by_epoch)
        results.append(res)
    # merged two-curve view for reporting
    merged = _finish("ccc", cfg, curves,
                     np.stack([s.confusions.T for s in states]), t0,
                     groups_by_epoch=groups_by_epoch)
    return (results[0], results[1]), (states[0], states[1]), merged
