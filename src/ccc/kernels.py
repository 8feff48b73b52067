"""Hot numeric kernels, in numpy.

Every kernel is fully deterministic. All randomness is injected as
pre-drawn uniform arrays; kernels consume no RNG state. crowd_grads, the
training step, scatters per-annotation terms into per-row sums with
np.bincount over flattened (row, column) indices, which adds each bin's
terms in annotation order, the same per-bin order as an unbuffered add.
hyper_grads, ccc's meta step, is one pass: it builds crowd_grads' dZ,
calls the caller's meta_u(dZ) once for the meta-loss weights U, and sums
the per-group dV by one GEMM over a table where each annotation's rows
are assigned to its group's block. BLAS orders that sum its own way, so
dV equals an annotation-order sum to rounding, not bit for bit. Both
kernels share _annotation_terms and _logit_grads.

training.train and model2's worker each own two Workspaces, float64 buffers
by name. The kernels, models.batch_forward (one hidden array and the logits)
and models.backprop write their temporaries into one with out=; without one
they allocate, with the same bits. No result but batch_forward's views it.

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

import math

import numpy as np

EPS = 1e-12
GRAD_FLOOR = 1e-3

# Read by perfbench/harness.py for its provenance record.
USING_NUMBA = False


class Workspace:
    """Grow-only float64 scratch arrays by name: a request views the start
    of its name's buffer, which only a larger request replaces."""

    def __init__(self):
        self._buffers = {}

    def array(self, name, shape):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = None  # freed before its successor is made
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _scatter_rows(index, values, rows):
    """Sum values (A, ...) into a (rows, ...) array at the given row index.

    Equal bit for bit to an unbuffered add into zeros (ufunc.at): np.bincount
    adds each bin's weights in input order, starting from 0.0, as that does.
    Rows no index names are exactly 0.
    """
    tail = values.shape[1:]
    width = math.prod(tail)
    # Gathering whole rows of flat offsets beats a broadcast add row by row.
    flat = np.arange(rows * width).reshape(rows, width)[index]
    out = np.bincount(flat.ravel(), weights=values.ravel(), minlength=rows * width)
    return out.reshape((rows,) + tail)


def _annotation_terms(P, ann_i, ann_r, ann_y, M):
    """Per-annotation terms of the transition loss (any A >= 0).

    Returns p = P[ann_i], Ma = M[ann_r], the clamp mask m, S and q[y]
    floored at GRAD_FLOOR, the loss ratio q[y] / S, and g_q = dloss/dq_raw
    (zero where the ratio is at the clamp).
    """
    idx = np.arange(ann_i.shape[0])
    p = P[ann_i]
    Ma = M[ann_r]
    q_raw = np.einsum("ac,acj->aj", p, Ma)
    qc = np.maximum(q_raw, EPS)
    m = (q_raw > EPS).astype(np.float64)
    S = qc.sum(axis=1)
    qy = qc[idx, ann_y]
    ratio = qy / S

    Sg = np.maximum(S, GRAD_FLOOR)
    qyg = np.maximum(qy, GRAD_FLOOR)
    g_q = m / Sg[:, None]
    g_q[idx, ann_y] -= m[idx, ann_y] / qyg
    g_q[~(ratio > EPS)] = 0.0
    return p, Ma, m, Sg, qyg, ratio, g_q


def crowd_grads(P, ann_i, ann_r, ann_y, M, R, ws=None):
    """Loss and gradients of the per-annotation transition loss.

    P      (n, C)   softmax outputs per batch instance
    ann_i  (A,)     batch-local instance index per annotation
    ann_r  (A,)     annotator id per annotation
    ann_y  (A,)     reported label per annotation
    M      (R, C, C) transition matrices (confusion + correction)

    Returns (loss_sum, dZ, dM) where dZ (n, C) accumulates logit gradients
    via softmax backprop and dM (R, C, C) accumulates the matrix gradients.
    Nothing is normalized; callers divide by the annotation count.
    Annotators absent from the batch keep exact-zero rows in dM, so an
    empty batch (A = 0) gives a zero loss and all-zero gradients.
    """
    ws = Workspace() if ws is None else ws
    p, Ma, _, _, _, ratio, g_q = _annotation_terms(P, ann_i, ann_r, ann_y, M)
    loss_sum = float(-np.log(np.maximum(ratio, EPS)).sum())
    outer = np.einsum("ac,aj->acj", p, g_q, out=ws.array("outer", Ma.shape))
    dM = _scatter_rows(ann_r, outer, R)
    return loss_sum, _logit_grads(ann_i, p, Ma, g_q, P.shape[0]), dM


def _logit_grads(ann_i, p, Ma, g_q, n):
    """dZ (n, C): g_q back through M[r] and the softmax, summed per instance."""
    g_p = np.einsum("acj,aj->ac", Ma, g_q)
    s = (p * g_p).sum(axis=1)
    return _scatter_rows(ann_i, p * (g_p - s[:, None]), n)


def hyper_grads(P, meta_u, ann_i, ann_r, ann_y, M, group_of, G, ws=None):
    """The meta step's logit gradients and per-group hypergradient, (dZ, dV).

    dZ (n, C) is crowd_grads' dZ, bit for bit, for the virtual step of the
    last layer. meta_u(dZ), called once, returns U (n, C): u_W^T h_i + u_b
    per batch instance, where (u_W, u_b) is the meta-loss gradient at the
    virtually stepped layer. dV (G, C, C) is the gradient w.r.t. the group
    corrections of <grad_{W,b} L, u>: per annotation dz(V)^T u_i, whose
    derivative w.r.t. its group's correction is two rank-one terms,

        outer(v, g_q)          explicit M dependence, v = p*u - (p.u) p
        outer(p, t)            through g_q's dependence on q(V)

    with A = M^T v, t[y] += m_y A[y]/q[y]^2, t[j] -= m_j (A.m)/S^2. dV is
    exactly 0 for unreached groups, unnormalized and without the virtual
    step's factor; callers scale by -eta_v / annotation_count.
    """
    ws = Workspace() if ws is None else ws
    p, Ma, m, Sg, qyg, ratio, g_q = _annotation_terms(P, ann_i, ann_r, ann_y, M)
    A_count, C = p.shape
    idx = np.arange(A_count)
    dZ = _logit_grads(ann_i, p, Ma, g_q, P.shape[0])
    u = meta_u(dZ)[ann_i]

    beta = p * u
    v = beta - beta.sum(axis=1)[:, None] * p
    Avec = np.einsum("acj,ac->aj", Ma, v)
    Abar = (Avec * m).sum(axis=1)
    t = -m * (Abar / Sg**2)[:, None]
    t[idx, ann_y] += m[idx, ann_y] * Avec[idx, ann_y] / qyg**2
    t[~(ratio > EPS)] = 0.0

    # Rows (g_q; t) of annotation a fill group_of[ann_r[a]]'s C columns.
    Y = ws.array("groups", (2, A_count, G, C))
    Y.fill(0.0)
    cols = group_of[ann_r]
    Y[0, idx, cols], Y[1, idx, cols] = g_q, t
    dV = np.concatenate([v, p]).T @ Y.reshape(2 * A_count, G * C)
    return dZ, dV.reshape(C, G, C).transpose(1, 0, 2)


def draw_labels(cum_rows, truth, u):
    """Inverse-CDF label draws: one annotator labeling every instance.

    cum_rows (C, C) row-wise cumulative sums of the pattern matrix,
    truth (N,) true classes, u (N,) uniforms. An instance's label is the
    number of entries of cum_rows[truth] at or below u, capped at C - 1.
    Each row is a cumsum of nonnegative entries and so never decreases,
    which makes that capped count the count over the first C - 1 columns
    alone; it is taken one column at a time for all instances. Returns
    int64 labels.
    """
    lab = np.zeros(truth.shape[0], dtype=np.int64)
    for column in cum_rows.T[:-1]:
        lab += u >= column[truth]
    return lab


# Rows per block of select_k's third and later draws, so that the block
# fits in cache. Rows are drawn independently: the picks do not depend on it.
SELECT_K_ROWS = 1024


def _count_at_or_below(cums, rows, t):
    """Per i, the count of entries of the nondecreasing row cums[rows[i]]
    (rows may be one row for all i) at or below t[i]: they form a prefix,
    found by binary search."""
    R = cums.shape[1]
    count = np.zeros(t.shape, dtype=np.int64)
    step = 1 << (R.bit_length() - 1)
    while step:
        probe = count + step
        below = cums[rows, np.minimum(probe, R) - 1] <= t
        count = np.where((probe <= R) & below, probe, count)
        step >>= 1
    return count


def select_k(weights, U):
    """Successive weighted draws without replacement, batched over rows.

    weights (R,) nonnegative with at least k positive, U (N, k) uniforms.
    A row's pick is the count of entries of its cumsum, picked weights
    zeroed, at or below u * total. Returns int64 picks (N, k), equal to
    that recipe run one row at a time. Draws 1 and 2 look each row up in
    one (R + 1, R) table of cumsums: row j has weight j zeroed and row R
    has none zeroed. Draw 1 reads row R, and draw 2 the row of the
    first pick, since a row's weights then depend only on that pick.
    Later draws sum SELECT_K_ROWS rows at a time in an (R, rows) block,
    one annotator at a time, so each add runs across rows and each entry
    gets np.cumsum's additions in np.cumsum's order. Rounding can push
    u * total up to the total, which counts all R entries; such a row
    lands on its last positive weight instead.
    """
    R = weights.shape[0]
    N, k = U.shape
    positive = np.flatnonzero(weights > 0.0)
    out = np.empty((N, k), dtype=np.int64)
    table = np.repeat(weights[None, :], R + 1, axis=0)
    np.fill_diagonal(table, 0.0)  # a tall matrix's diagonal ends at row R - 1
    table = np.cumsum(table, axis=1)
    for d in range(k):
        if d < 2:
            prev = out[:, 0] if d else R
            sel = _count_at_or_below(table, prev, U[:, d] * table[prev, -1])
        else:
            sel = np.empty(N, dtype=np.int64)
            for lo in range(0, N, SELECT_K_ROWS):
                hi = min(lo + SELECT_K_ROWS, N)
                cols = np.arange(hi - lo)
                block = np.repeat(weights[:, None], hi - lo, axis=1)
                block[out[lo:hi, :d].T, cols] = 0.0
                for r in range(1, R):
                    block[r] += block[r - 1]
                sel[lo:hi] = _count_at_or_below(block.T, cols, U[lo:hi, d] * block[-1])
        # Picks are distinct positive positions: a capped row's last free
        # one follows the leading ranks, counted from the top, it picked.
        capped = np.flatnonzero(sel == R)
        rank = np.sort(positive.size - 1 - np.searchsorted(positive, out[capped, :d]), axis=1)
        sel[capped] = positive[positive.size - 1 - (rank == np.arange(d)).sum(axis=1)]
        out[:, d] = sel
    return out


# Called by perfbench/harness.py in set-up; numpy kernels need no warmup.
def warmup():
    pass
