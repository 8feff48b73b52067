"""Hot numeric kernels, in numpy.

Every kernel is fully deterministic. All randomness is injected as
pre-drawn uniform arrays; kernels consume no RNG state. The kernels
scatter per-annotation terms into per-row sums with np.bincount over
flattened (row, column) indices, which adds each bin's terms in
annotation order, the same per-bin order as np.add.at.

The transition convention used throughout: an annotation (i, r, y)
with classifier output p = P[i] and transition matrix M[r] (rows = true
class, cols = reported label) induces a reported-label distribution

    q_raw = p @ M[r]
    q     = clamp(q_raw, EPS) renormalized to sum 1
    loss  = -log(max(q[y], EPS))

Gradients below are the exact derivatives of that clamped, renormalized
loss (clamped coordinates contribute zero, matching the almost-everywhere
derivative the finite-difference oracles see) with one safeguard: the
1/q factors in gradient denominators are floored at GRAD_FLOOR. The loss
has unbounded curvature as q[y] approaches the clamp, and a single
annotation landing in (EPS, GRAD_FLOOR) would otherwise inject a step of
magnitude lr/(batch * q) into the transition matrices, large enough to
destroy training. The floor only caps that band; anywhere q > GRAD_FLOOR
the derivatives are exact.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12
GRAD_FLOOR = 1e-3

# Read by perfbench/harness.py for its provenance record.
USING_NUMBA = False


def _scatter_rows(index, values, rows):
    """Sum values (A, ...) into a (rows, ...) array at the given row index.

    Equal bit for bit to np.add.at on zeros: np.bincount adds each bin's
    weights in input order, starting from 0.0, just as np.add.at does.
    Rows no index names are exactly 0.
    """
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=rows * width)
    return out.reshape((rows,) + tail)


def crowd_grads(P, ann_i, ann_r, ann_y, M, R, want_dM=True):
    """Loss and gradients of the per-annotation transition loss.

    P      (n, C)   softmax outputs per batch instance
    ann_i  (A,)     batch-local instance index per annotation
    ann_r  (A,)     annotator id per annotation
    ann_y  (A,)     reported label per annotation
    M      (R, C, C) transition matrices (confusion + correction)

    Returns (loss_sum, dZ, dM) where dZ (n, C) accumulates logit
    gradients via softmax backprop and dM (R, C, C) accumulates the
    matrix gradients. Nothing is normalized; callers divide by the
    annotation count. Annotators absent from the batch keep exact-zero
    rows in dM. With want_dM=False, dM is None and never built.
    """
    n, C = P.shape
    A = ann_i.shape[0]
    if A == 0:
        return 0.0, np.zeros((n, C)), np.zeros((R, C, C)) if want_dM else None
    idx = np.arange(A)
    p = P[ann_i]
    Ma = M[ann_r]
    q_raw = np.einsum("ac,acj->aj", p, Ma)
    qc = np.maximum(q_raw, EPS)
    m = (q_raw > EPS).astype(np.float64)
    S = qc.sum(axis=1)
    qy = qc[idx, ann_y]
    ratio = qy / S
    active = ratio > EPS
    loss_sum = float(-np.log(np.maximum(ratio, EPS)).sum())

    Sg = np.maximum(S, GRAD_FLOOR)
    qyg = np.maximum(qy, GRAD_FLOOR)
    g_q = m / Sg[:, None]
    g_q[idx, ann_y] -= m[idx, ann_y] / qyg
    g_q[~active] = 0.0

    dM = _scatter_rows(ann_r, p[:, :, None] * g_q[:, None, :], R) if want_dM else None
    g_p = np.einsum("acj,aj->ac", Ma, g_q)
    s = (p * g_p).sum(axis=1)
    dZa = p * (g_p - s[:, None])
    return loss_sum, _scatter_rows(ann_i, dZa, n), dM


def hyper_grads(P, U, ann_i, ann_r, ann_y, M, group_of, G):
    """Gradient w.r.t. per-group corrections of <grad_{W,b} L, u>.

    U (n, C) holds u_W^T h_i + u_b per batch instance, where (u_W, u_b)
    is the meta-loss gradient at the virtually stepped last layer. The
    directional derivative of the batch loss gradient along u can be
    written per annotation as dz(V)^T u_i; differentiating that w.r.t.
    the annotation's group correction gives two rank-one terms:

        outer(v, g_q)          explicit M dependence, v = p*u - (p.u) p
        outer(p, t)            through g_q's dependence on q(V)

    with A = M^T v, t[y] += m_y A[y]/q[y]^2, t[j] -= m_j (A.m)/S^2.
    Returns dV (G, C, C), unnormalized and without the virtual-step
    factor; callers scale by -eta_v / annotation_count.
    """
    C = P.shape[1]
    A_count = ann_i.shape[0]
    if A_count == 0:
        return np.zeros((G, C, C))
    idx = np.arange(A_count)
    p = P[ann_i]
    Ma = M[ann_r]
    u = U[ann_i]
    q_raw = np.einsum("ac,acj->aj", p, Ma)
    qc = np.maximum(q_raw, EPS)
    m = (q_raw > EPS).astype(np.float64)
    S = qc.sum(axis=1)
    qy = qc[idx, ann_y]
    active = (qy / S) > EPS

    Sg = np.maximum(S, GRAD_FLOOR)
    qyg = np.maximum(qy, GRAD_FLOOR)
    g_q = m / Sg[:, None]
    g_q[idx, ann_y] -= m[idx, ann_y] / qyg
    g_q[~active] = 0.0

    beta = p * u
    alpha = beta.sum(axis=1)
    v = beta - alpha[:, None] * p

    Avec = np.einsum("acj,ac->aj", Ma, v)
    Abar = (Avec * m).sum(axis=1)
    t = -m * (Abar / Sg**2)[:, None]
    t[idx, ann_y] += m[idx, ann_y] * Avec[idx, ann_y] / qyg**2
    t[~active] = 0.0

    contrib = v[:, :, None] * g_q[:, None, :] + p[:, :, None] * t[:, None, :]
    return _scatter_rows(group_of[ann_r], contrib, G)


def draw_labels(cum_rows, truth, u):
    """Inverse-CDF label draws: one annotator labeling every instance.

    cum_rows (C, C) row-wise cumulative sums of the pattern matrix,
    truth (N,) true classes, u (N,) uniforms. Returns int64 labels.
    """
    C = cum_rows.shape[1]
    rows = cum_rows[truth]
    lab = (u[:, None] >= rows).sum(axis=1).astype(np.int64)
    np.minimum(lab, C - 1, out=lab)
    return lab


def select_k(weights, U):
    """Successive weighted draws without replacement, batched over rows.

    weights (R,) nonnegative, U (N, k) uniforms. Each draw is
    proportional to the weights of the not-yet-picked annotators; picked
    entries are zeroed before the next draw. Processes in row chunks to
    bound the (chunk, R) working set. Returns int64 picks (N, k).
    """
    R = weights.shape[0]
    N, k = U.shape
    out = np.empty((N, k), dtype=np.int64)
    chunk = 8192
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        w = np.repeat(weights[None, :], hi - lo, axis=0)
        rows = np.arange(hi - lo)
        for d in range(k):
            cums = np.cumsum(w, axis=1)
            t = U[lo:hi, d] * cums[:, -1]
            sel = (cums <= t[:, None]).sum(axis=1)
            # Rounding can push t to the total; land on the last positive weight.
            last_pos = R - 1 - np.argmax((w > 0.0)[:, ::-1], axis=1)
            sel = np.minimum(sel, last_pos)
            out[lo:hi, d] = sel
            w[rows, sel] = 0.0
    return out


# Called by perfbench/harness.py in set-up; numpy kernels need no warmup.
def warmup():
    pass
