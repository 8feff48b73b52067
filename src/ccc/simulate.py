"""Synthetic crowd annotations: dense pattern labeling, then sparse pruning.

Generation runs in two phases. Phase 1 labels every instance with every
annotator according to its confusion pattern; independent annotators go
first, then correlated ones read their target's phase-1 label. Phase 2
keeps exactly k annotators per instance, sampled without replacement
proportional to per-annotator propensities drawn once from
Beta(alpha, beta). Low-propensity annotators end up with very few
retained labels, which is the sparsity profile the trainer has to cope
with.

Independent pattern kinds (rows = true class, cols = reported label):
    symmetric-e  diag 1-e, off-diag e/(C-1)
    pair-e       diag 1-e, weight e on the paired class
                 (default pairing c -> (c+1) mod C, overridable)
    classwise-S  one-hot rows for classes in S, uniform 1/C otherwise
    dummy        uniform 1/C everywhere

Correlated kinds resolve against a fixed target annotator chosen at pool
build time among the independent annotators:
    copy        always the target's label
    supportive  true label if the target was right, else uniform over C
    opposite    true label if the target was wrong, else uniform over C

RNG consumption order is part of the format: pool build draws R
propensities then one uniform per correlated annotator (index order);
generation draws N uniforms per independent annotator (index order),
N per correlated annotator (index order; copy consumes none), then the
(N, k) selection uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CrowdDataset
from .errors import ConfigError, ContractError
from .kernels import draw_labels, select_k
from .rng import RngStream

INDEPENDENT_KINDS = ("symmetric", "pair", "classwise", "dummy")
CORRELATED_KINDS = ("copy", "supportive", "opposite")


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
    pair_map: np.ndarray | None = None
    group_of: np.ndarray = field(default=None)  # generator pattern-group ids

    @property
    def annotator_count(self) -> int:
        return len(self.specs)


def default_pair_map(C: int) -> np.ndarray:
    return (np.arange(C, dtype=np.int64) + 1) % C


def _check_pair_map(pair_map, C: int) -> np.ndarray:
    pm = np.asarray(pair_map, dtype=np.int64)
    if pm.shape != (C,) or (pm < 0).any() or (pm >= C).any() or (pm == np.arange(C)).any():
        raise ContractError("pair map must map each class to a different class in range")
    return pm


def pattern_matrix(spec: PatternSpec, C: int, pair_map=None) -> np.ndarray:
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
        pm = default_pair_map(C) if pair_map is None else _check_pair_map(pair_map, C)
        e = spec.epsilon
        mat = np.zeros((C, C))
        np.fill_diagonal(mat, 1.0 - e)
        mat[np.arange(C), pm] += e
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


# Preset pools: five pattern groups each (canonically 50 annotators per
# group). Class lists are 0-based.
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


def preset_specs(name: str, per_group: int):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} "
                          f"(available: {', '.join(sorted(PRESETS))})")
    specs = []
    groups = []
    for gi, proto in enumerate(PRESETS[name]):
        for _ in range(per_group):
            specs.append(PatternSpec(proto.kind, proto.epsilon, proto.good_classes))
            groups.append(gi)
    return specs, np.asarray(groups, dtype=np.int64)


def build_pool(spec_source, C: int, R: int | None = None, k: int = 3,
               alpha: float = 1.5, beta: float = 3.0,
               rng: RngStream | None = None, pair_map=None) -> AnnotatorPool:
    """Assemble a pool: propensities and fixed correlated targets.

    spec_source is a preset name or an explicit list of PatternSpec.
    Preset pools need R divisible by 5; the canonical size is 250.
    """
    if rng is None:
        raise ContractError("build_pool needs an RngStream")
    if isinstance(spec_source, str):
        R = 250 if R is None else R
        if R % 5 != 0 or R < 5:
            raise ConfigError(f"preset pools need R divisible by 5, got {R}")
        specs, groups = preset_specs(spec_source, R // 5)
    else:
        specs = [PatternSpec(s.kind, s.epsilon, s.good_classes, s.target)
                 for s in spec_source]
        if R is not None and R != len(specs):
            raise ConfigError(f"R={R} does not match {len(specs)} specs")
        groups = None
    R = len(specs)
    if k > R:
        raise ContractError(f"k={k} exceeds pool size {R}")
    if alpha <= 0 or beta <= 0:
        raise ContractError("Beta parameters must be positive")
    for spec in specs:
        if spec.good_classes and max(spec.good_classes) >= C:
            raise ContractError(
                f"classwise classes {spec.good_classes} out of range for C={C}")
    independents = [i for i, s in enumerate(specs) if s.independent]
    if not independents:
        raise ContractError("pool needs at least one independent annotator")
    pm = None if pair_map is None else _check_pair_map(pair_map, C)

    propensities = rng.beta(alpha, beta, R)
    for spec in specs:
        if spec.independent:
            continue
        if spec.target is None:
            spec.target = independents[min(int(rng.uniform() * len(independents)),
                                           len(independents) - 1)]
        elif not specs[spec.target].independent:
            raise ContractError("correlated targets must be independent annotators")
    if groups is None:
        # group by identical pattern definition, for diagnostics
        keymap: dict[tuple, int] = {}
        groups = np.asarray(
            [keymap.setdefault((s.kind, s.epsilon, s.good_classes), len(keymap))
             for s in specs], dtype=np.int64)
    return AnnotatorPool(specs, propensities, k, alpha, beta, C,
                         pair_map=pm, group_of=groups)


def generate(truth, features, pool: AnnotatorPool, rng: RngStream,
             return_dense: bool = False, preset: str | None = None,
             seed: int | None = None):
    """Run both phases and assemble a CrowdDataset.

    Every instance ends with exactly pool.k annotations, stored in
    (instance, annotator) order. With return_dense=True the dense
    phase-1 label table (N, R) is returned alongside for auditing.
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
    if pool.k > R:
        raise ContractError(f"k={pool.k} exceeds pool size {R}")

    dense = np.empty((N, R), dtype=np.int64)
    for r, spec in enumerate(pool.specs):
        if not spec.independent:
            continue
        cum = np.cumsum(pattern_matrix(spec, C, pool.pair_map), axis=1)
        dense[:, r] = draw_labels(cum, truth, rng.uniform(N))
    for r, spec in enumerate(pool.specs):
        if spec.independent:
            continue
        target = dense[:, spec.target]
        if spec.kind == "copy":
            dense[:, r] = target
            continue
        u = rng.uniform(N)
        uniform_label = np.minimum((u * C).astype(np.int64), C - 1)
        right = target == truth
        keep_truth = right if spec.kind == "supportive" else ~right
        dense[:, r] = np.where(keep_truth, truth, uniform_label)

    picks = select_k(pool.propensities, rng.uniform((N, pool.k)))
    picks = np.sort(picks, axis=1)  # canonical per-instance annotator order
    ann_instance = np.repeat(np.arange(N, dtype=np.int64), pool.k)
    ann_annotator = picks.reshape(-1)
    ann_label = dense[ann_instance, ann_annotator]

    ds = CrowdDataset(
        features=features, class_count=C, annotator_count=R,
        ann_instance=ann_instance, ann_annotator=ann_annotator,
        ann_label=ann_label, truth=truth, preset=preset, seed=seed,
    )
    ds.validate()
    return (ds, dense) if return_dense else ds
