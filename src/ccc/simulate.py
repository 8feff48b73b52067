"""Synthetic crowd annotations: pattern labeling, then sparse pruning.

Generation is defined in two phases. Phase 1 labels every instance with
every annotator according to its confusion pattern; independent
annotators go first, then correlated ones read their target's phase-1
label. Phase 2 keeps exactly k annotators per instance, sampled without
replacement proportional to per-annotator propensities drawn once from
Beta(alpha, beta). Low-propensity annotators end up with very few
retained labels, which is the sparsity profile the trainer has to cope
with. generate works out phase 2's picks first and then computes only
the phase-1 labels that are kept or that a correlated annotator reads.

Independent pattern kinds (rows = true class, cols = reported label):
    symmetric-e  diag 1-e, off-diag e/(C-1)
    pair-e       diag 1-e, weight e on the paired class (c+1) mod C
    classwise-S  one-hot rows for classes in S, uniform 1/C otherwise
    dummy        uniform 1/C everywhere

A preset (IND-I..IV, COR-I..IV) is a list of five pattern groups, which
build_pool expands into an explicit pattern list.

Correlated kinds resolve against a fixed target annotator chosen at pool
build time among the independent annotators:
    copy        always the target's label
    supportive  true label if the target was right, else uniform over C
    opposite    true label if the target was wrong, else uniform over C

RNG consumption order is part of the format: pool build draws R
propensities then one uniform per correlated annotator (index order);
generation draws N uniforms per independent annotator (index order),
N per correlated annotator (index order; copy consumes none), then the
(N, k) selection uniforms. A label left uncomputed still consumes its
uniform, so the stream and every label kept are those of the dense
recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CrowdDataset
from .errors import ConfigError, ContractError
from .kernels import draw_labels, select_k
from .rng import RngStream

INDEPENDENT_KINDS = ("symmetric", "pair", "classwise", "dummy")
CORRELATED_KINDS = ("copy", "supportive", "opposite")
PRESET_POOL_SIZE = 250  # a preset pool's R when none is given


@dataclass
class PatternSpec:
    kind: str
    epsilon: float | None = None          # symmetric / pair
    good_classes: tuple[int, ...] | None = None  # classwise
    target: int | None = None             # correlated kinds, set at build

    def __post_init__(self):
        if self.kind not in INDEPENDENT_KINDS + CORRELATED_KINDS:
            raise ContractError(f"unknown pattern kind {self.kind!r}")
        if self.kind in ("symmetric", "pair"):
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ContractError(f"{self.kind} needs epsilon in [0, 1]")
        if self.kind == "classwise" and not self.good_classes:
            raise ContractError("classwise needs a nonempty good-class set")

    @property
    def independent(self) -> bool:
        return self.kind in INDEPENDENT_KINDS


@dataclass
class AnnotatorPool:
    specs: list[PatternSpec]
    propensities: np.ndarray  # (R,) in (0, 1)
    k: int
    alpha: float
    beta: float
    class_count: int
    group_of: np.ndarray = field(default=None)  # generator pattern-group ids

    @property
    def annotator_count(self) -> int:
        return len(self.specs)


def pattern_matrix(spec: PatternSpec, C: int) -> np.ndarray:
    """Row-stochastic confusion matrix of an independent pattern."""
    if not spec.independent:
        raise ContractError(f"{spec.kind} has no standalone pattern matrix")
    if C < 2:
        raise ContractError("need at least 2 classes")
    if spec.kind == "symmetric":
        e = spec.epsilon
        mat = np.full((C, C), e / (C - 1))
        np.fill_diagonal(mat, 1.0 - e)
    elif spec.kind == "pair":
        e = spec.epsilon
        mat = np.zeros((C, C))
        np.fill_diagonal(mat, 1.0 - e)
        mat[np.arange(C), (np.arange(C) + 1) % C] += e
    elif spec.kind == "classwise":
        good = set(spec.good_classes)
        if not all(0 <= g < C for g in good):
            raise ContractError("classwise good classes out of range")
        mat = np.full((C, C), 1.0 / C)
        for g in good:
            mat[g] = 0.0
            mat[g, g] = 1.0
    else:  # dummy
        mat = np.full((C, C), 1.0 / C)
    return mat


# Five pattern groups per preset. Class lists are 0-based.
PRESETS: dict[str, list[PatternSpec]] = {
    "IND-I": [
        PatternSpec("symmetric", epsilon=0.3),
        PatternSpec("symmetric", epsilon=0.5),
        PatternSpec("pair", epsilon=0.6),
        PatternSpec("classwise", good_classes=(1, 3, 4, 6, 8)),
        PatternSpec("dummy"),
    ],
    "IND-II": [
        PatternSpec("symmetric", epsilon=0.4),
        PatternSpec("classwise", good_classes=(2, 5, 9)),
        PatternSpec("pair", epsilon=0.6),
        PatternSpec("classwise", good_classes=(0, 6, 8)),
        PatternSpec("dummy"),
    ],
    "IND-III": [
        PatternSpec("pair", epsilon=0.3),
        PatternSpec("pair", epsilon=0.6),
        PatternSpec("classwise", good_classes=(0, 4, 5)),
        PatternSpec("classwise", good_classes=(1, 3, 4, 6, 8)),
        PatternSpec("dummy"),
    ],
    "IND-IV": [
        PatternSpec("symmetric", epsilon=0.3),
        PatternSpec("symmetric", epsilon=0.5),
        PatternSpec("symmetric", epsilon=0.7),
        PatternSpec("pair", epsilon=0.5),
        PatternSpec("pair", epsilon=0.3),
    ],
    "COR-I": [
        PatternSpec("symmetric", epsilon=0.4),
        PatternSpec("classwise", good_classes=(2, 5, 9)),
        PatternSpec("dummy"),
        PatternSpec("supportive"),
        PatternSpec("opposite"),
    ],
    "COR-II": [
        PatternSpec("pair", epsilon=0.5),
        PatternSpec("classwise", good_classes=(0, 6, 8)),
        PatternSpec("supportive"),
        PatternSpec("opposite"),
        PatternSpec("copy"),
    ],
    "COR-III": [
        PatternSpec("pair", epsilon=0.4),
        PatternSpec("symmetric", epsilon=0.5),
        PatternSpec("opposite"),
        PatternSpec("supportive"),
        PatternSpec("copy"),
    ],
    "COR-IV": [
        PatternSpec("symmetric", epsilon=0.5),
        PatternSpec("pair", epsilon=0.7),
        PatternSpec("pair", epsilon=0.3),
        PatternSpec("opposite"),
        PatternSpec("supportive"),
    ],
}


def build_pool(spec_source, C: int, R: int | None = None, k: int = 3,
               alpha: float = 1.5, beta: float = 3.0, *,
               rng: RngStream) -> AnnotatorPool:
    """Assemble a pool: propensities and fixed correlated targets.

    spec_source is a preset name or an explicit list of PatternSpec; a
    preset expands to R // 5 annotators per pattern group (R divisible
    by 5, canonically 250). Bad pool options raise ConfigError before
    anything is drawn, and so does a k above the number of positive
    propensities once they are drawn. group_of numbers the pattern
    definitions by first appearance, which for a preset is its group order.
    """
    if isinstance(spec_source, str):
        R = PRESET_POOL_SIZE if R is None else R
        if R % 5 != 0 or R < 5:
            raise ConfigError(f"preset pools need R divisible by 5, got {R}")
        if spec_source not in PRESETS:
            raise ConfigError(f"unknown preset {spec_source!r} "
                              f"(available: {', '.join(sorted(PRESETS))})")
        spec_source = [proto for proto in PRESETS[spec_source] for _ in range(R // 5)]
    specs = [PatternSpec(s.kind, s.epsilon, s.good_classes, s.target) for s in spec_source]
    if R is not None and R != len(specs):
        raise ConfigError(f"R={R} does not match {len(specs)} specs")
    R = len(specs)
    if not 1 <= k <= R:
        raise ConfigError(f"k must be between 1 and the pool size {R}, got {k}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 < value < math.inf:  # also rejects nan
            raise ConfigError(f"{name} must be finite and positive, got {value}")
    for spec in specs:
        if spec.good_classes and not all(0 <= g < C for g in spec.good_classes):
            raise ConfigError(f"classwise classes {spec.good_classes} out of range for C={C}")
    independents = [i for i, s in enumerate(specs) if s.independent]
    if not independents:
        raise ContractError("pool needs at least one independent annotator")

    propensities = rng.beta(alpha, beta, R)
    positive = int(np.count_nonzero(propensities > 0.0))
    if k > positive:  # Beta draws can underflow to exactly 0.0
        raise ConfigError(f"k={k} exceeds the {positive} positive propensities drawn from "
                          f"Beta(alpha={alpha}, beta={beta}); raise alpha or lower k")
    for spec in specs:
        if spec.independent:
            continue
        if spec.target is None:
            spec.target = independents[min(int(rng.uniform() * len(independents)),
                                           len(independents) - 1)]
        elif not specs[spec.target].independent:
            raise ContractError("correlated targets must be independent annotators")
    keymap: dict[tuple, int] = {}
    groups = np.asarray([keymap.setdefault((s.kind, s.epsilon, s.good_classes), len(keymap))
                         for s in specs], dtype=np.int64)
    return AnnotatorPool(specs, propensities, k, alpha, beta, C, group_of=groups)


def _layout(pool: AnnotatorPool, picked: list[np.ndarray], dense: bool):
    """Where phase-1 labels are computed and read: annotator r labels the
    instances at[r], keeps labels[r][own[r]] and, if correlated, reads
    labels[target][src[r]]. Sparse, at[r] is r's picks followed, for an
    independent r, by the picks of each annotator targeting it in pool
    order (an instance may repeat), so own and src are slices. Dense,
    every annotator labels every instance and own[r] is r's picks."""
    if dense:
        return [slice(None)] * len(picked), picked, [slice(None)] * len(picked)
    at, src = [[p] for p in picked], [None] * len(picked)
    for r, spec in enumerate(pool.specs):
        if not spec.independent:
            start = sum(part.size for part in at[spec.target])
            src[r] = slice(start, start + picked[r].size)
            at[spec.target].append(picked[r])
    return [np.concatenate(parts) for parts in at], [slice(0, p.size) for p in picked], src


def generate(truth, features, pool: AnnotatorPool, rng: RngStream,
             return_dense: bool = False, preset: str | None = None,
             seed: int | None = None):
    """Run both phases and assemble a CrowdDataset.

    Every instance ends with exactly pool.k annotations, stored in
    (instance, annotator) order. The picks come first, from selection
    uniforms read ahead of phase 1's. Phase 1 then draws its uniforms as
    documented but labels each annotator only where _layout says its
    labels are read, into one array per annotator, and the stream ends
    past the selection uniforms. With return_dense=True every annotator
    labels every instance, and the stacked labels are returned alongside
    for auditing as an (N, R) view of an annotator-major (R, N) array.
    Phase-1 labels are stored as np.min_scalar_type(C - 1) (uint8 for
    C <= 256, else uint16); the dataset's ann_label is int64.
    """
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size == 0:
        raise ContractError("truth must be nonempty")
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != truth.shape[0]:
        raise ContractError("features and truth must align")
    C = pool.class_count
    if truth.min() < 0 or truth.max() >= C:
        raise ContractError("truth labels out of range")
    N = truth.shape[0]
    R = pool.annotator_count
    if pool.k > np.count_nonzero(pool.propensities > 0.0):
        raise ContractError(f"k={pool.k} exceeds the annotators with positive propensity")

    drawing = sum(spec.kind != "copy" for spec in pool.specs)
    picks = select_k(pool.propensities, rng.uniform_ahead(N * drawing, (N, pool.k)))
    picks = np.sort(picks, axis=1)  # canonical per-instance annotator order
    ann_instance = np.repeat(np.arange(N, dtype=np.int64), pool.k)
    ann_annotator = picks.reshape(-1)

    order = np.argsort(ann_annotator)  # annotations grouped by annotator
    ends = np.cumsum(np.bincount(ann_annotator, minlength=R))
    at, own, src = _layout(pool, np.split(ann_instance[order], ends[:-1]), return_dense)
    dtype = np.min_scalar_type(C - 1)
    labels: list[np.ndarray] = [None] * R
    for r, spec in enumerate(pool.specs):
        if not spec.independent:
            continue
        cum = np.cumsum(pattern_matrix(spec, C), axis=1)
        labels[r] = draw_labels(cum, truth[at[r]], rng.uniform(N)[at[r]]).astype(dtype)
    for r, spec in enumerate(pool.specs):
        if spec.independent:
            continue
        target = labels[spec.target][src[r]]
        if spec.kind == "copy":
            labels[r] = target
            continue
        u = rng.uniform(N)[at[r]]
        uniform_label = np.minimum((u * C).astype(np.int64), C - 1)
        right = target == truth[at[r]]
        keep_truth = right if spec.kind == "supportive" else ~right
        labels[r] = np.where(keep_truth, truth[at[r]], uniform_label).astype(dtype)
    rng.uniform((N, pool.k))  # step past the selection uniforms read above
    ann_label = np.empty(ann_annotator.size, dtype=np.int64)
    ann_label[order] = np.concatenate([lab[mine] for lab, mine in zip(labels, own)])
    dense = np.stack(labels) if return_dense else None
    del at, order  # each as large as the annotations, and validate's peak is to come

    ds = CrowdDataset(
        features=features, class_count=C, annotator_count=R,
        ann_instance=ann_instance, ann_annotator=ann_annotator,
        ann_label=ann_label, truth=truth, preset=preset, seed=seed,
    )
    ds.validate()
    return (ds, dense.T) if return_dense else ds
