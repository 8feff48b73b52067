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
    candidates), clusters the annotators of both models jointly by their
    learned transitions, and runs a three-stage update per batch: a
    discarded virtual step of the last layer, a meta update of the
    per-group correction matrices through that step (exact last-layer
    hypergradient), and the actual step on corrected transitions.

Each model is one flat ModelState: classifier, transitions T and their
momentum. A correction lives for one step: it starts at zero, takes one
meta update, shifts the transitions its step sees from T to
M = T + V[group_of], and is then dropped.

ccc's models meet only at epoch boundaries, where the caller groups the
annotators and hands each model a snapshot of the other's classifier.
The rest of an epoch, meta-set distillation by that snapshot and
evaluation included, runs where the model lives: model2's in a forked
worker beside model1's. A run with an on_step callback, or without fork,
trains both in the caller, with the same outputs.

Each process that trains owns two kernels.Workspaces and drops them when
it is done. The batch step's forward, backprop and crowd_grads write
their large temporaries into one; the meta step, which runs while the
batch forward's arrays are in use, and the epoch's whole-set forwards,
distillation and evaluation, use the other. Nothing train hands out,
on_step's dT or the returned states, is a view of either.

RNG streams are split per purpose (init/batches/meta per model, plus one
for clustering), so ccc with corrections disabled (gamma=0) consumes
batch randomness exactly like crowdlayer and reproduces its trajectory
bit for bit. After each model's epoch the loop checks that its
parameters are finite and stops a diverged run with ConfigError,
model1's first.

Weight decay applies to classifier parameters only; transition matrices
carry momentum but no decay, so annotators absent from a batch receive
an exactly-zero gradient and, with cold buffers, keep their matrices
untouched.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import CrowdDataset, evaluate_accuracy
from .errors import ConfigError, ContractError
from .files import forked
from .kernels import Workspace, crowd_grads, hyper_grads
from .models import (PARAM_KEYS, Classifier, backprop, batch_forward,
                     hidden_layer, init_classifier, last_layer, loss_and_grads,
                     sgd_step, single_label_ce)
from .numerics import kmeans, softmax_rows
from .rng import RngStream

log = logging.getLogger(__name__)


# Allowed values of TrainConfig's categorical fields.
CHOICES = {
    "algo": ("majority", "crowdlayer", "ccc"),
    "confusion_init": ("identity", "votes"),
    "model": tuple(PARAM_KEYS),
}


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings, validated when built (ConfigError) and frozen;
    dataclasses.replace builds, and so validates, a changed copy."""
    algo: str = "ccc"
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
    confusion_init: str = "identity"
    model: str = "linear"
    hidden_dim: int = 32
    lr_decay_epoch: int | None = 40   # divide lr by 10 from this epoch on; None: never

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.algo == "ccc" and not 0 <= self.warmup < self.epochs:
            raise ConfigError("need 0 <= warmup < epochs")
        if not 0 < self.lr < math.inf:  # also rejects nan
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("momentum", "weight_decay", "gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.lr_decay_epoch is not None and self.lr_decay_epoch < 0:
            raise ConfigError(f"lr_decay_epoch must be >= 0 or None, got {self.lr_decay_epoch}")
        if self.meta_size < 1 or self.meta_batch < 1 or self.groups < 1:
            raise ConfigError("meta_size, meta_batch, groups must be >= 1")
        if self.model == "mlp" and self.hidden_dim < 1:
            raise ConfigError("the mlp model needs hidden_dim >= 1")


@dataclass
class ModelState:
    """One model: T and T_mom are set for crowd steps (crowdlayer and ccc)."""
    clf: Classifier
    T: np.ndarray | None = None         # (R, C, C) learned transitions, unconstrained
    T_mom: np.ndarray | None = None     # momentum buffers, same shape


@dataclass
class RunResult:
    """One run: per-model-tag curves and best/last (plus "mean" for ccc)."""
    curves: dict[str, list[float]]
    best: dict[str, float]
    last: dict[str, float]
    states: dict[str, ModelState]
    wall_time_sec: float
    groups_by_epoch: list[tuple[int, np.ndarray]]


@dataclass
class Batch:
    features: np.ndarray       # (n, D)
    ann_instance: np.ndarray   # (A,) batch-local row indices
    ann_annotator: np.ndarray  # (A,)
    ann_label: np.ndarray      # (A,)


# ---------------------------------------------------------------------------
# label aggregation
# ---------------------------------------------------------------------------

def aggregate_majority(ds: CrowdDataset) -> np.ndarray:
    """Modal label per instance; ties break toward the lowest class index."""
    C = ds.class_count
    counts = np.bincount(ds.ann_instance * C + ds.ann_label, minlength=ds.n * C).reshape(ds.n, C)
    if (counts.sum(axis=1) == 0).any():
        raise ContractError("every instance needs at least one annotation")
    return counts.argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# confusion initialization
# ---------------------------------------------------------------------------

VOTES_SMOOTHING = 1e-6  # added to every vote count before the log-ratio


def init_confusion_votes(ds: CrowdDataset) -> np.ndarray:
    """Log-ratio initialization from soft vote statistics.

    Per instance, Q is the mean of its one-hot crowd labels. Row p of
    annotator r is log of the smoothed ratio between the Q(p)-weighted
    count of reports q and the Q(p) mass over instances r labeled, so
    each row exponentiates to a smoothed stochastic vector. Annotators
    (or rows) with no labeled mass come out log-uniform.
    """
    N, C, R = ds.n, ds.class_count, ds.annotator_count
    counts = np.bincount(ds.ann_instance * C + ds.ann_label, minlength=N * C).reshape(N, C)
    Q = counts / counts.sum(axis=1, keepdims=True)
    Qa = Q[ds.ann_instance].ravel()
    row = (ds.ann_annotator[:, None] * C + np.arange(C)).ravel()  # bin (r, p) of each Qa term
    den = np.bincount(row, Qa, minlength=R * C).reshape(R, C)
    num = np.bincount(row * C + np.repeat(ds.ann_label, C), Qa, minlength=R * C * C)
    return np.log((num.reshape(R, C, C) + VOTES_SMOOTHING)
                  / (den + C * VOTES_SMOOTHING)[:, :, None])


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def make_batch(ds: CrowdDataset, idx: np.ndarray, csr) -> Batch:
    """Gather one batch's features and annotations (batch-local indices).

    csr is ds.instance_slices().
    """
    ar, al, ptr = csr
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
    )


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


def _crowd_step(state: ModelState, batch: Batch, lr: float, cfg: TrainConfig,
                forward, M: np.ndarray, ws: Workspace | None = None):
    """One joint SGD step on (classifier, transitions) for a batch.

    The loss scores annotations through M: state.T, or ccc's corrected
    transitions; its gradient w.r.t. M updates state.T. `forward` is
    batch_forward(state.clf, batch.features) at the current parameters.
    Returns (mean loss, normalized dT).
    """
    H, P = forward
    loss_sum, dZ, dM = crowd_grads(P, batch.ann_instance, batch.ann_annotator,
                                   batch.ann_label, M, state.T.shape[0], ws=ws)
    a = max(batch.ann_instance.shape[0], 1)
    grads = backprop(state.clf, batch.features, H, dZ / a, ws=ws)
    sgd_step(state.clf, grads, lr, cfg.momentum, cfg.weight_decay)
    dT = dM / a
    state.T_mom *= cfg.momentum
    state.T_mom += dT
    state.T -= lr * state.T_mom
    return loss_sum / a, dT


# ---------------------------------------------------------------------------
# meta machinery
# ---------------------------------------------------------------------------

def distill_meta_set(ds: CrowdDataset, mv: np.ndarray, scorer: Classifier,
                     M: int, ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Small-loss selection, class-balanced by majority-vote candidates.

    mv is aggregate_majority(ds). For each class c, instances whose
    majority-vote label is c are ranked by the scorer's cross entropy
    against c; the floor(M/C) smallest-loss ones enter the meta set with
    pseudo-label c. Returns the meta set's (features, labels).
    """
    _, P = batch_forward(scorer, ds.features, ws=ws)
    losses, _ = single_label_ce(mv)(P)
    keep = []
    for c in range(ds.class_count):
        cand = np.flatnonzero(mv == c)
        if cand.size == 0:
            log.warning("meta distillation: no candidates for class %d", c)
        keep.append(cand[np.argsort(losses[cand], kind="stable")][:M // ds.class_count])
    sel = np.concatenate(keep)
    return ds.features[sel], mv[sel]


def group_annotators(Ts: list[np.ndarray], G: int, rng: RngStream,
                     restarts: int = 1) -> np.ndarray:
    """Cluster annotators by the concatenated flattened transitions of Ts.

    With restarts > 1 the lowest-inertia run wins (50 points in a couple
    hundred dimensions leave Lloyd prone to local minima).
    """
    if any(T.shape != Ts[0].shape for T in Ts):
        raise ContractError("all confusion sets must have the same shape")
    R = Ts[0].shape[0]
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


def correction_gradient(clf: Classifier, M: np.ndarray, group_of: np.ndarray,
                        G: int, batch: Batch,
                        meta_features: np.ndarray, meta_labels: np.ndarray,
                        eta_v: float, forward, ws: Workspace | None = None) -> np.ndarray:
    """Exact gradient of the meta loss w.r.t. the (G, C, C) group corrections.

    The gradient is taken where the corrections V shift the transitions
    to M = T + V[group_of]; the training loop passes T, so V = 0. The
    virtual step moves only the last layer: (W, b) minus eta_v times
    their batch-loss gradient under transitions M. The meta loss is
    plain cross entropy at the virtually stepped layer over the frozen
    penultimate map. Its total derivative w.r.t. V is -eta_v times the
    V-gradient of <grad_{W,b} batch loss, meta-loss gradient at the
    virtual point>, accumulated per annotation in the kernel.

    The virtual step and the meta loss form `meta_u`, which the kernel
    calls between its dZ and its dV. `forward` is batch_forward(clf,
    batch.features); only the last layer moves, so the batch forward at
    the current parameters is all the virtual step needs. Nothing here
    writes to clf, so it reads the live parameters. ws must not be the
    workspace that holds forward's arrays.
    """
    a = batch.ann_instance.shape[0]
    m = meta_labels.shape[0]
    if a == 0 or m == 0:
        return np.zeros((G, *M.shape[1:]))
    W, b = last_layer(clf)
    H, P = forward
    Hm = hidden_layer(clf, meta_features, ws)

    def meta_u(dZ):
        W_hat = W - eta_v * (H.T @ dZ / a)
        b_hat = b - eta_v * (dZ.sum(axis=0) / a)
        _, dZm = single_label_ce(meta_labels)(softmax_rows(Hm @ W_hat + b_hat))
        return H @ (Hm.T @ dZm / m) + dZm.sum(axis=0) / m

    _, dV = hyper_grads(P, meta_u, batch.ann_instance, batch.ann_annotator,
                        batch.ann_label, M, group_of, G, ws=ws)
    return -(eta_v / a) * dV


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _init_confusions(ds: CrowdDataset, cfg: TrainConfig) -> np.ndarray:
    """Starting transitions T (R, C, C) for cfg.confusion_init."""
    if cfg.confusion_init == "identity":
        C = ds.class_count
        return np.broadcast_to(np.eye(C), (ds.annotator_count, C, C)).copy()
    # The log-ratio statistic lives in log space; the multiplicative
    # transition convention needs the probability-scale matrix.
    return np.exp(init_confusion_votes(ds))


def _meta_batches(meta, rng: RngStream, size: int):
    """Endless batches cycling through one permutation of a (features, labels) meta
    set; a batch of the whole set is the same each time, so it is gathered once."""
    features, labels = meta
    m = labels.shape[0]
    order = rng.permutation(m)
    if size >= m:
        yield from itertools.repeat((features[order], labels[order]))
    cursor = 0
    while True:
        sel = order[(cursor + np.arange(size)) % m]
        cursor = (cursor + size) % m
        yield features[sel], labels[sel]


def _check_finite(state: ModelState, epoch: int, tag: str, phase: str) -> None:
    arrays = dict(state.clf.params, T=state.T)
    bad = [name for name, arr in arrays.items()
           if arr is not None and not np.isfinite(arr).all()]
    if bad:
        raise ConfigError(f"training diverged in epoch {epoch}, {tag}, {phase} phase: "
                          f"non-finite {', '.join(bad)} (try a smaller lr)")


def _model_epoch(ds: CrowdDataset, cfg: TrainConfig, csr, mv, evals, tag: str,
                 state: ModelState, rngs: tuple[RngStream, RngStream],
                 wss: tuple[Workspace, Workspace], job: tuple, on_step=None) -> float:
    """One model's epoch: in the ccc phase its meta set, distilled by the job's
    scorer; its pass over ds; its divergence check; and its accuracy on evals,
    returned. job is (epoch, lr, phase, scorer, group_of), the last two None
    outside the ccc phase; rngs are the model's batches and meta streams."""
    epoch, lr, phase, scorer, group_of = job
    ws, sets = wss
    if phase == "ccc":
        meta = distill_meta_set(ds, mv, scorer, cfg.meta_size, sets)
        meta_batches = _meta_batches(meta, rngs[1], cfg.meta_batch)
    perm = rngs[0].permutation(ds.n)
    starts = range(0, ds.n, cfg.batch_size)
    for step, lo in enumerate(starts, start=epoch * len(starts)):
        idx = perm[lo:lo + cfg.batch_size]
        if phase == "majority":
            _, grads = loss_and_grads(state.clf, ds.features[idx], single_label_ce(mv[idx]), ws)
            sgd_step(state.clf, grads, lr, cfg.momentum, cfg.weight_decay)
            continue
        batch = make_batch(ds, idx, csr)
        # The correction update leaves the classifier as it is, so one
        # forward serves both stages.
        fwd = batch_forward(state.clf, batch.features, ws)
        M = state.T
        if phase == "ccc":
            meta_X, meta_y = next(meta_batches)
            g_cor = correction_gradient(state.clf, state.T, group_of, cfg.groups, batch,
                                        meta_X, meta_y, lr, fwd, sets)
            eta_m = auto_meta_lr(state.T, g_cor, cfg.gamma)
            # Skipping the zero update keeps M exactly T at gamma=0,
            # where ccc reproduces crowdlayer.
            if eta_m != 0.0:
                M = state.T - (eta_m * g_cor)[group_of]
        loss, dT = _crowd_step(state, batch, lr, cfg, fwd, M, ws)
        if on_step is not None:
            on_step({"model": tag, "epoch": epoch, "step": step, "phase": phase,
                     "loss": loss, "dT": dT, "present": np.unique(batch.ann_annotator)})
    _check_finite(state, epoch, tag, phase)
    return evaluate_accuracy(state.clf, *evals, sets)


def _worker(conn, parent_end, ds, cfg, csr, mv, evals, state: ModelState, rngs) -> None:
    """model2's side of a forked run: answer each job with (whole state, accuracy)
    or the exception its epoch raised, until the parent closes the pipe."""
    parent_end.close()  # so that closing it in the parent ends conn.recv
    wss = Workspace(), Workspace()
    try:
        while True:
            job = conn.recv()
            try:
                acc = _model_epoch(ds, cfg, csr, mv, evals, "model2", state, rngs, wss, job)
                conn.send((state, acc))
            except Exception as exc:
                conn.send(exc)
    except (EOFError, OSError):
        pass  # the parent has ended or stopped the run


@contextlib.contextmanager
def _forked_worker(*args):
    """The connection to a forked daemon running _worker(*args), or None where
    files.forked starts none. On exit the pipe closes, which ends the worker."""
    from multiprocessing import Pipe  # here: commands that never train ccc skip its import
    conn, child_end = Pipe()
    with forked(_worker, child_end, conn, *args) as proc, conn:
        child_end.close()
        yield conn if proc else None


def _reply(conn):
    """The worker's next answer; raises the exception it sent, or one if it died."""
    try:
        reply = conn.recv()
    except EOFError:
        raise RuntimeError("model2's worker process ended before answering") from None
    if isinstance(reply, BaseException):
        raise reply
    return reply


def train(ds: CrowdDataset, cfg: TrainConfig, eval_set=None, on_step=None,
          model_tag: str = "model1") -> RunResult:
    """Train cfg.algo on ds in one epoch loop over the run's models.

    majority and crowdlayer train one model, named `model_tag`; ccc
    trains model1 and model2. The tag names the model's RNG streams and
    its entries in the result. `on_step` receives one dict per crowd step.
    """
    t0 = time.perf_counter()
    evals = _resolve_eval(ds, eval_set)
    if ds.n == 0 or len(evals[1]) == 0:
        raise ContractError("training needs a nonempty dataset and a nonempty eval set")
    C, R, G = ds.class_count, ds.annotator_count, cfg.groups
    ccc = cfg.algo == "ccc"
    if ccc and cfg.meta_size < C:
        raise ConfigError(f"meta_size={cfg.meta_size} is below the class count {C}: "
                          "every class would get an empty meta quota")
    if ccc and G > R:
        raise ConfigError(f"groups={G} exceeds the annotator count {R}")
    majority = cfg.algo == "majority"
    mv = aggregate_majority(ds) if majority or ccc else None
    master = RngStream(cfg.seed)
    kmeans_rng = master.split("kmeans")
    states, rngs = {}, {}
    for tag in ("model1", "model2") if ccc else (model_tag,):
        clf = init_classifier(cfg.model, ds.d,
                              cfg.hidden_dim if cfg.model == "mlp" else 0,
                              C, master.split(f"init-{tag}"))
        state = states[tag] = ModelState(clf)
        if not majority:
            state.T = _init_confusions(ds, cfg)
            state.T_mom = np.zeros_like(state.T)
        rngs[tag] = master.split(f"batches-{tag}"), master.split(f"meta-{tag}")
    csr = None if majority else ds.instance_slices()
    curves = {tag: [] for tag in states}
    groups_by_epoch = []
    # A callback sees each step in the caller's process, so it keeps model2 here.
    model2_side = (_forked_worker(ds, cfg, csr, mv, evals, states["model2"], rngs["model2"])
                   if ccc and on_step is None else contextlib.nullcontext())
    ws, sets = Workspace(), Workspace()

    # A blow-up makes numpy warn at every overflowing op; _check_finite
    # reports it once, at the end of the epoch where it happens. Entered
    # before the fork, so that the worker inherits it.
    with np.errstate(over="ignore", invalid="ignore"), model2_side as worker:
        for epoch in range(cfg.epochs):
            lr = _lr_at(cfg, epoch)
            phase = ("warmup" if epoch < cfg.warmup else "ccc") if ccc else cfg.algo
            scorers, group_of = dict.fromkeys(states), None
            if phase == "ccc":
                m1, m2 = states["model1"], states["model2"]
                # Each model learns from the meta set the other distills. In one
                # process model1's epoch runs first, so model2's scorer is a copy.
                scorers = {"model1": m2.clf, "model2": copy.deepcopy(m1.clf)}
                group_of = group_annotators([m1.T, m2.T], G, kmeans_rng)
                groups_by_epoch.append((epoch, group_of))
            jobs = {tag: (epoch, lr, phase, scorers[tag], group_of) for tag in states}
            if worker:  # before model1's epoch, so that the two run side by side
                worker.send(jobs["model2"])
            for tag, state in states.items():
                if worker and tag == "model2":
                    states["model2"], acc = _reply(worker)
                else:
                    acc = _model_epoch(ds, cfg, csr, mv, evals, tag, state, rngs[tag],
                                       (ws, sets), jobs[tag], on_step)
                curves[tag].append(acc)

    scored = dict(curves, mean=[(a + b) / 2 for a, b in zip(*curves.values())]) if ccc else curves
    best = {k: float(max(v)) for k, v in scored.items()}
    last = {k: float(v[-1]) for k, v in scored.items()}
    return RunResult(curves=curves, best=best, last=last, states=states,
                     wall_time_sec=time.perf_counter() - t0, groups_by_epoch=groups_by_epoch)
