"""Training algorithms over crowd annotations.

One loop, `train`, drives all three algorithms epoch by epoch over the
run's models, with one evaluation and bookkeeping path:

  * majority: aggregate each instance's labels by majority vote, then
    plain cross-entropy training on those fixed labels.
  * crowdlayer: jointly fit the classifier and one transition matrix per
    annotator; an annotation (i, r, y) is scored by the clamped,
    renormalized distribution p_i @ T[r]. Every epoch is this step.
  * ccc: two coupled crowdlayer models. Warmup epochs are the crowdlayer
    step; after them each epoch distills a class-balanced meta set for
    the other model (small-loss selection over majority-vote
    candidates), clusters annotators by their learned transitions, and
    runs a three-stage update per batch: a discarded virtual step of the
    last layer, a meta update of the per-group correction matrices
    through that step (exact last-layer hypergradient), and the actual
    step on corrected transitions.

RNG streams are split per purpose (init/batches/meta per model, plus one
for clustering), so ccc with corrections disabled (gamma=0) consumes
batch randomness exactly like crowdlayer and reproduces its trajectory
bit for bit. After each model's epoch the loop checks that its
parameters are finite and stops a diverged run with ConfigError.

Weight decay applies to classifier parameters only; transition matrices
carry momentum but no decay, so annotators absent from a batch receive
an exactly-zero gradient and, with cold buffers, keep their matrices
untouched.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, asdict

import numpy as np

from .data import CrowdDataset, MetaSet, evaluate_accuracy
from .errors import ConfigError, ContractError
from .kernels import crowd_grads, hyper_grads
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
    confusions: ConfusionSet | None    # None (and no corrections) for majority
    corrections: CorrectionSet | None
    meta_set: MetaSet | None


@dataclass
class RunResult:
    """One run: per-model-tag curves and best/last (plus "mean" for ccc)."""
    algo: str
    seed: int
    curves: dict[str, list[float]]
    best: dict[str, float]
    last: dict[str, float]
    confusions: dict[str, np.ndarray]  # learned T per tag; empty for majority
    states: dict[str, CccState]        # majority states carry no T or V
    config: dict
    wall_time_sec: float
    groups_by_epoch: list[tuple[int, np.ndarray]]


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

def aggregate_majority(ds: CrowdDataset) -> np.ndarray:
    """Modal label per instance; ties break toward the lowest class index."""
    counts = np.zeros((ds.n, ds.class_count), dtype=np.int64)
    np.add.at(counts, (ds.ann_instance, ds.ann_label), 1)
    if (counts.sum(axis=1) == 0).any():
        raise ContractError("every instance needs at least one annotation")
    return counts.argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# confusion initialization
# ---------------------------------------------------------------------------

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

def make_batch(ds: CrowdDataset, idx: np.ndarray, csr=None) -> Batch:
    """Gather one batch's features and annotations (batch-local indices)."""
    if csr is None:
        csr = ds.instance_slices()
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


def group_annotators(Ts: list[np.ndarray], G: int, rng: RngStream,
                     restarts: int = 1) -> np.ndarray:
    """Cluster annotators by the concatenated flattened transitions of Ts.

    With restarts > 1 the lowest-inertia run wins (50 points in a couple
    hundred dimensions leave Lloyd prone to local minima).
    """
    if any(T.shape != Ts[0].shape for T in Ts):
        raise ContractError("all confusion sets must have the same shape")
    R = Ts[0].shape[0]
    if G > R:
        raise ContractError(f"G={G} exceeds annotator count {R}")
    feats = np.concatenate([T.reshape(R, -1) for T in Ts], axis=1)
    best = None
    for _ in range(max(1, restarts)):
        res = kmeans(feats, G, rng=rng)
        if best is None or res.inertia < best.inertia:
            best = res
    return best.assignments


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


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _init_confusions(ds: CrowdDataset, cfg: TrainConfig) -> ConfusionSet:
    if cfg.confusion_init == "identity":
        T0 = init_confusion_identity(ds.annotator_count, ds.class_count)
    else:
        # The log-ratio statistic lives in log space; the multiplicative
        # transition convention needs the probability-scale matrix.
        T0 = np.exp(init_confusion_votes(ds))
    return ConfusionSet(T=T0, mom=np.zeros_like(T0))


def _meta_batches(meta: MetaSet, rng: RngStream, size: int, d: int):
    """Endless meta batches cycling through one permutation of the meta set."""
    if not meta.size:
        empty = (np.empty((0, d)), np.empty(0, dtype=np.int64))
        while True:
            yield empty
    order = rng.permutation(meta.size)
    take = min(size, meta.size)
    cursor = 0
    while True:
        sel = order[(cursor + np.arange(take)) % meta.size]
        cursor = (cursor + take) % meta.size
        yield meta.features[sel], meta.labels[sel]


def _check_finite(state: CccState, epoch: int, tag: str, phase: str) -> None:
    arrays = dict(state.clf.params)
    if state.confusions is not None:
        arrays["T"] = state.confusions.T
        arrays["V"] = state.corrections.V
    bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        raise ConfigError(f"training diverged in epoch {epoch}, {tag}, {phase} phase: "
                          f"non-finite {', '.join(bad)} (try a smaller lr)")


def train(ds: CrowdDataset, cfg: TrainConfig, eval_set=None, on_step=None,
          model_tag: str = "model1") -> RunResult:
    """Train cfg.algo on ds in one epoch loop over the run's models.

    majority and crowdlayer train one model, named `model_tag`; ccc
    trains model1 and model2. The tag names the model's RNG streams and
    its entries in the result. `on_step` receives one dict per crowd step.
    """
    cfg.validate()
    t0 = time.perf_counter()
    eval_X, eval_y = _resolve_eval(ds, eval_set)
    C, R, G = ds.class_count, ds.annotator_count, cfg.groups
    ccc = cfg.algo == "ccc"
    if ccc and cfg.meta_size < C:
        raise ConfigError(f"meta_size={cfg.meta_size} is below the class count {C}: "
                          "every class would get an empty meta quota")
    if ccc and G > R:
        raise ConfigError(f"groups={G} exceeds the annotator count {R}")
    labels = aggregate_majority(ds) if cfg.algo == "majority" else None
    master = RngStream(cfg.seed)
    kmeans_rng = master.split("kmeans")
    states, batch_rngs, meta_rngs = {}, {}, {}
    for tag in ("model1", "model2") if ccc else (model_tag,):
        clf = init_classifier(cfg.model, ds.d,
                              cfg.hidden_dim if cfg.model == "mlp" else 0,
                              C, master.split(f"init-{tag}"))
        conf = cor = None
        if labels is None:
            # corrections stay all-zero until the first ccc epoch
            conf = _init_confusions(ds, cfg)
            cor = CorrectionSet(V=np.zeros((G, C, C)),
                                group_of=np.zeros(R, dtype=np.int64))
        states[tag] = CccState(clf=clf, confusions=conf, corrections=cor,
                               meta_set=None)
        batch_rngs[tag] = master.split(f"batches-{tag}")
        meta_rngs[tag] = master.split(f"meta-{tag}")
    csr = ds.instance_slices() if labels is None else None
    curves = {tag: [] for tag in states}
    groups_by_epoch = []
    steps = dict.fromkeys(states, 0)

    # A blow-up makes numpy warn at every overflowing op; _check_finite
    # reports it once, at the end of the epoch where it happens.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = _lr_at(cfg, epoch)
            phase = ("warmup" if epoch < cfg.warmup else "ccc") if ccc else cfg.algo
            if phase == "ccc":
                m1, m2 = states["model1"], states["model2"]
                m1.meta_set = distill_meta_set(ds, m2.clf, cfg.meta_size)
                m2.meta_set = distill_meta_set(ds, m1.clf, cfg.meta_size)
                Ts = [m1.confusions.T, m2.confusions.T]
                if cfg.grouping == "joint":
                    group_maps = [group_annotators(Ts, G, kmeans_rng)] * 2
                else:
                    group_maps = [group_annotators([T], G, kmeans_rng) for T in Ts]
                groups_by_epoch.append((epoch, group_maps[0].copy()))
                for state, group_of in zip((m1, m2), group_maps):
                    state.corrections = CorrectionSet(V=np.zeros((G, C, C)),
                                                      group_of=group_of)
            for tag, state in states.items():
                if phase == "ccc":
                    meta_batches = _meta_batches(state.meta_set, meta_rngs[tag],
                                                 cfg.meta_batch, ds.d)
                for idx in _epoch_chunks(batch_rngs[tag].permutation(ds.n),
                                         cfg.batch_size):
                    if labels is not None:
                        _, grads = loss_and_grads(state.clf, ds.features[idx],
                                                  single_label_ce(labels[idx]))
                        sgd_step(state.clf, grads, lr, cfg.momentum, cfg.weight_decay)
                        continue
                    batch = make_batch(ds, idx, csr)
                    cor = state.corrections
                    fwd = None
                    if phase == "ccc":
                        if cfg.v_reset == "iteration":
                            cor.V[:] = 0.0
                        # The outer step leaves the classifier as it is, so
                        # one forward serves both stages.
                        fwd = batch_forward(state.clf, batch.features)
                        ccc_outer_step(state, batch, next(meta_batches), cfg,
                                       eta_v=lr, forward=fwd)
                    loss, dT = _crowd_step(state.clf, state.confusions, cor.V,
                                           cor.group_of, batch, lr, cfg.momentum,
                                           cfg.weight_decay, fwd)
                    if on_step is not None:
                        on_step({"model": tag, "epoch": epoch, "step": steps[tag],
                                 "phase": phase, "loss": loss, "dT": dT,
                                 "present": np.unique(batch.ann_annotator)})
                    steps[tag] += 1
                _check_finite(state, epoch, tag, phase)
            for tag, state in states.items():
                curves[tag].append(evaluate_accuracy(state.clf, eval_X, eval_y))

    best = {k: float(max(v)) for k, v in curves.items()}
    last = {k: float(v[-1]) for k, v in curves.items()}
    if ccc:
        mean_curve = [(a + b) / 2 for a, b in zip(*curves.values())]
        best["mean"] = float(max(mean_curve))
        last["mean"] = float(mean_curve[-1])
    return RunResult(algo=cfg.algo, seed=cfg.seed, curves=curves, best=best,
                     last=last, states=states, config=cfg.echo(),
                     confusions={tag: s.confusions.T for tag, s in states.items()
                                 if s.confusions is not None},
                     wall_time_sec=time.perf_counter() - t0,
                     groups_by_epoch=groups_by_epoch)
