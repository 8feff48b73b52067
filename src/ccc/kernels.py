"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

Backend selection is decided at import time from the CCC_NUMBA
environment variable:

    CCC_NUMBA=0|off   force the numpy fallback
    CCC_NUMBA=1|on    require numba (ImportError if unavailable)
    unset / auto      numba when importable, numpy otherwise

Both backends implement the same floating-point recipe in the same
accumulation order, so integer outputs (label draws, annotator picks)
are bit-identical across backends and float outputs agree to rounding.
Within one backend every kernel is fully deterministic. All randomness
is injected as pre-drawn uniform arrays; kernels consume no RNG state.
The numpy kernels scatter per-annotation terms into per-row sums with
np.bincount over flattened (row, column) indices, which adds each bin's
terms in annotation order, the same per-bin order as np.add.at and the
numba loops.

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

import os

import numpy as np

EPS = 1e-12
GRAD_FLOOR = 1e-3

_flag = os.environ.get("CCC_NUMBA", "auto").strip().lower()
if _flag in ("0", "off", "false", "no"):
    _want_numba = False
elif _flag in ("1", "on", "true", "yes", "force"):
    _want_numba = True
else:
    _want_numba = None  # auto

_numba_ok = False
if _want_numba is not False:
    try:
        from numba import njit

        _numba_ok = True
    except ImportError:
        if _want_numba is True:
            raise


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------

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


def crowd_grads_np(P, ann_i, ann_r, ann_y, M, R, want_dM=True):
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


def crowd_loss_np(P, ann_i, ann_r, ann_y, M):
    """Loss sum only (same recipe as crowd_grads_np)."""
    A = ann_i.shape[0]
    if A == 0:
        return 0.0
    idx = np.arange(A)
    q_raw = np.einsum("ac,acj->aj", P[ann_i], M[ann_r])
    qc = np.maximum(q_raw, EPS)
    ratio = qc[idx, ann_y] / qc.sum(axis=1)
    return float(-np.log(np.maximum(ratio, EPS)).sum())


def hyper_grads_np(P, U, ann_i, ann_r, ann_y, M, group_of, G):
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


def draw_labels_np(cum_rows, truth, u):
    """Inverse-CDF label draws: one annotator labeling every instance.

    cum_rows (C, C) row-wise cumulative sums of the pattern matrix,
    truth (N,) true classes, u (N,) uniforms. Returns int64 labels.
    """
    C = cum_rows.shape[1]
    rows = cum_rows[truth]
    lab = (u[:, None] >= rows).sum(axis=1).astype(np.int64)
    np.minimum(lab, C - 1, out=lab)
    return lab


def select_k_np(weights, U):
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


# ---------------------------------------------------------------------------
# numba mirrors (same accumulation order as the numpy versions)
# ---------------------------------------------------------------------------

if _numba_ok:

    @njit(cache=True)
    def _crowd_grads_nb(P, ann_i, ann_r, ann_y, M, R):
        n, C = P.shape
        A = ann_i.shape[0]
        dZ = np.zeros((n, C))
        dM = np.zeros((R, C, C))
        loss_sum = 0.0
        g_q = np.empty(C)
        g_p = np.empty(C)
        for a in range(A):
            i = ann_i[a]
            r = ann_r[a]
            y = ann_y[a]
            S = 0.0
            qy = 0.0
            for j in range(C):
                q = 0.0
                for c in range(C):
                    q += P[i, c] * M[r, c, j]
                g_q[j] = q  # stash raw q
                qc = q if q > EPS else EPS
                S += qc
                if j == y:
                    qy = qc
            ratio = qy / S
            if ratio > EPS:
                loss_sum += -np.log(ratio)
            else:
                loss_sum += -np.log(EPS)
                for j in range(C):
                    g_q[j] = 0.0
                continue
            Sg = S if S > GRAD_FLOOR else GRAD_FLOOR
            qyg = qy if qy > GRAD_FLOOR else GRAD_FLOOR
            for j in range(C):
                mj = 1.0 if g_q[j] > EPS else 0.0
                g_q[j] = mj / Sg
                if j == y:
                    g_q[j] -= mj / qyg
            s = 0.0
            for c in range(C):
                gp = 0.0
                for j in range(C):
                    gp += M[r, c, j] * g_q[j]
                g_p[c] = gp
                s += P[i, c] * gp
            for c in range(C):
                for j in range(C):
                    dM[r, c, j] += P[i, c] * g_q[j]
                dZ[i, c] += P[i, c] * (g_p[c] - s)
        return loss_sum, dZ, dM

    @njit(cache=True)
    def _crowd_loss_nb(P, ann_i, ann_r, ann_y, M):
        A = ann_i.shape[0]
        C = P.shape[1]
        loss_sum = 0.0
        for a in range(A):
            i = ann_i[a]
            r = ann_r[a]
            y = ann_y[a]
            S = 0.0
            qy = 0.0
            for j in range(C):
                q = 0.0
                for c in range(C):
                    q += P[i, c] * M[r, c, j]
                qc = q if q > EPS else EPS
                S += qc
                if j == y:
                    qy = qc
            ratio = qy / S
            loss_sum += -np.log(ratio if ratio > EPS else EPS)
        return loss_sum

    @njit(cache=True)
    def _hyper_grads_nb(P, U, ann_i, ann_r, ann_y, M, group_of, G):
        C = P.shape[1]
        A_count = ann_i.shape[0]
        dV = np.zeros((G, C, C))
        q_raw = np.empty(C)
        g_q = np.empty(C)
        v = np.empty(C)
        Avec = np.empty(C)
        t = np.empty(C)
        for a in range(A_count):
            i = ann_i[a]
            r = ann_r[a]
            y = ann_y[a]
            g = group_of[r]
            S = 0.0
            qy = 0.0
            for j in range(C):
                q = 0.0
                for c in range(C):
                    q += P[i, c] * M[r, c, j]
                q_raw[j] = q
                qc = q if q > EPS else EPS
                S += qc
                if j == y:
                    qy = qc
            if qy / S <= EPS:
                continue
            Sg = S if S > GRAD_FLOOR else GRAD_FLOOR
            qyg = qy if qy > GRAD_FLOOR else GRAD_FLOOR
            for j in range(C):
                mj = 1.0 if q_raw[j] > EPS else 0.0
                g_q[j] = mj / Sg
                if j == y:
                    g_q[j] -= mj / qyg
            alpha = 0.0
            for c in range(C):
                bc = P[i, c] * U[i, c]
                v[c] = bc
                alpha += bc
            for c in range(C):
                v[c] -= alpha * P[i, c]
            Abar = 0.0
            for j in range(C):
                av = 0.0
                for c in range(C):
                    av += M[r, c, j] * v[c]
                Avec[j] = av
                mj = 1.0 if q_raw[j] > EPS else 0.0
                Abar += av * mj
            for j in range(C):
                mj = 1.0 if q_raw[j] > EPS else 0.0
                t[j] = -mj * Abar / (Sg * Sg)
            my = 1.0 if q_raw[y] > EPS else 0.0
            t[y] += my * Avec[y] / (qyg * qyg)
            for c in range(C):
                for j in range(C):
                    dV[g, c, j] += v[c] * g_q[j] + P[i, c] * t[j]
        return dV

    @njit(cache=True)
    def _draw_labels_nb(cum_rows, truth, u):
        N = truth.shape[0]
        C = cum_rows.shape[1]
        lab = np.empty(N, dtype=np.int64)
        for i in range(N):
            row = truth[i]
            cnt = 0
            for j in range(C):
                if u[i] >= cum_rows[row, j]:
                    cnt += 1
            lab[i] = cnt if cnt < C else C - 1
        return lab

    @njit(cache=True)
    def _select_k_nb(weights, U):
        R = weights.shape[0]
        N, k = U.shape
        out = np.empty((N, k), dtype=np.int64)
        for i in range(N):
            for d in range(k):
                total = 0.0
                for j in range(R):
                    taken = False
                    for dd in range(d):
                        if out[i, dd] == j:
                            taken = True
                            break
                    if not taken:
                        total += weights[j]
                t = U[i, d] * total
                cum = 0.0
                pick = -1
                last_pos = -1
                for j in range(R):
                    taken = False
                    for dd in range(d):
                        if out[i, dd] == j:
                            taken = True
                            break
                    if taken:
                        continue
                    if weights[j] > 0.0:
                        last_pos = j
                    cum += weights[j]
                    if pick < 0 and cum > t:
                        pick = j
                if pick < 0:
                    pick = last_pos
                out[i, d] = pick
        return out

    def crowd_grads_nb(P, ann_i, ann_r, ann_y, M, R, want_dM=True):
        # The jitted loop builds dM as it goes; want_dM is accepted for
        # call compatibility with crowd_grads_np and dM is returned anyway.
        return _crowd_grads_nb(P, ann_i, ann_r, ann_y, M, R)

    def crowd_loss_nb(P, ann_i, ann_r, ann_y, M):
        return _crowd_loss_nb(P, ann_i, ann_r, ann_y, M)

    def hyper_grads_nb(P, U, ann_i, ann_r, ann_y, M, group_of, G):
        return _hyper_grads_nb(P, U, ann_i, ann_r, ann_y, M, group_of, G)

    def draw_labels_nb(cum_rows, truth, u):
        return _draw_labels_nb(cum_rows, truth, u)

    def select_k_nb(weights, U):
        return _select_k_nb(weights, U)


USING_NUMBA = _numba_ok if _want_numba is None else (_want_numba and _numba_ok)

if USING_NUMBA:
    crowd_grads = crowd_grads_nb
    crowd_loss = crowd_loss_nb
    hyper_grads = hyper_grads_nb
    draw_labels = draw_labels_nb
    select_k = select_k_nb
else:
    crowd_grads = crowd_grads_np
    crowd_loss = crowd_loss_np
    hyper_grads = hyper_grads_np
    draw_labels = draw_labels_np
    select_k = select_k_np


def warmup():
    """Trigger jit compilation on tiny inputs so timings exclude it."""
    P = np.array([[0.6, 0.4]])
    ann = np.zeros(1, dtype=np.int64)
    M = np.stack([np.eye(2)])
    crowd_grads(P, ann, ann, ann, M, 1)
    crowd_loss(P, ann, ann, ann, M)
    hyper_grads(P, P.copy(), ann, ann, ann, M, np.zeros(1, dtype=np.int64), 1)
    draw_labels(np.cumsum(np.eye(2), axis=1), ann, np.array([0.5]))
    select_k(np.array([1.0, 1.0]), np.array([[0.3]]))
