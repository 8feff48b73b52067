"""Deterministic numeric primitives shared by the whole package.

Everything is float64. Probability vectors are plain ndarrays whose
entries are nonnegative and sum to 1 within 1e-6; matrices are row-major
2-D ndarrays. No wrapper classes: validation happens at the boundaries
that need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import RngStream

CE_FLOOR = 1e-12
KMEANS_MAX_ITER = 100  # Lloyd iterations before kmeans stops unconverged


def softmax_rows(Z: np.ndarray, out=None) -> np.ndarray:
    """Row-wise stable softmax of a 2-D logit array, into out (which may be Z) if given."""
    Z = np.asarray(Z, dtype=np.float64)
    E = np.subtract(Z, Z.max(axis=1, keepdims=True), out=out)
    np.exp(E, out=E)
    E /= E.sum(axis=1, keepdims=True)
    return E


@dataclass
class KmeansResult:
    assignments: np.ndarray  # (P,) int64 cluster index per point
    inertia: float           # sum of squared distances to assigned centroid


def _plusplus_seed(X: np.ndarray, G: int, rng: RngStream) -> np.ndarray:
    P = X.shape[0]
    centroids = np.empty((G, X.shape[1]))
    first = min(int(rng.uniform() * P), P - 1)
    centroids[0] = X[first]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for g in range(1, G):
        total = d2.sum()
        if total <= 0.0:
            idx = min(int(rng.uniform() * P), P - 1)
        else:
            cum = np.cumsum(d2)
            t = rng.uniform() * total
            idx = min(int((cum <= t).sum()), P - 1)
        centroids[g] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[g]) ** 2).sum(axis=1))
    return centroids


def kmeans(points, G: int, rng: RngStream) -> KmeansResult:
    """Lloyd iterations from k-means++ seeding.

    Stops when assignments stabilize or KMEANS_MAX_ITER is hit. Empty clusters
    are repaired by donating the point currently farthest from its
    centroid, which keeps the inertia non-increasing (asserted each
    iteration).
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ContractError("points must be a nonempty (P, dim) array")
    P = X.shape[0]
    if G < 1 or G > P:
        raise ContractError(f"G={G} must be in [1, {P}]")

    centroids = _plusplus_seed(X, G, rng)
    prev_assign = None
    prev_inertia = np.inf
    assign = np.zeros(P, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1).astype(np.int64)

        counts = np.bincount(assign, minlength=G)
        for g in np.flatnonzero(counts == 0):
            # donate the globally farthest point from a cluster with >= 2 members
            dist_own = d2[np.arange(P), assign]
            eligible = counts[assign] >= 2
            if not eligible.any():
                break
            donor = int(np.flatnonzero(eligible)[dist_own[eligible].argmax()])
            counts[assign[donor]] -= 1
            assign[donor] = g
            counts[g] = 1

        for g in range(G):
            mask = assign == g
            if mask.any():
                centroids[g] = X[mask].mean(axis=0)
        inertia = float(((X - centroids[assign]) ** 2).sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia)), (
            "k-means inertia increased"
        )
        prev_inertia = inertia
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign.copy()
    return KmeansResult(assign, prev_inertia)
