"""Property tests: the vectorized kernels against a per-annotation oracle.

The oracle walks the annotations one at a time in plain Python, following
the recipe in the `ccc.kernels` module docstring. The kernels sum in a
different order (einsum, vector reductions), so float results are compared
with a tolerance fixed from float64 rounding; exact zeros (absent
annotators, absent groups) are compared exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccc import kernels
from ccc.kernels import EPS, GRAD_FLOOR

RTOL = 1e-10
ATOL_SCALE = 1e-12  # absolute slack, per unit of the largest oracle entry


# ---------------------------------------------------------------------------
# scalar oracle
# ---------------------------------------------------------------------------

def _annotation_terms(p, Mr, y):
    """Loss and, when the annotation is active, (mask, g_q, S_g, qy_g)."""
    C = len(p)
    q_raw = [sum(p[c] * Mr[c][j] for c in range(C)) for j in range(C)]
    qc = [q if q > EPS else EPS for q in q_raw]
    S = sum(qc)
    ratio = qc[y] / S
    loss = -math.log(ratio if ratio > EPS else EPS)
    if ratio <= EPS:
        return loss, None
    Sg = S if S > GRAD_FLOOR else GRAD_FLOOR
    qyg = qc[y] if qc[y] > GRAD_FLOOR else GRAD_FLOOR
    mask = [1.0 if q > EPS else 0.0 for q in q_raw]
    g_q = [mask[j] / Sg for j in range(C)]
    g_q[y] -= mask[y] / qyg
    return loss, (mask, g_q, Sg, qyg)


def crowd_grads_oracle(P, ann_i, ann_r, ann_y, M, R):
    n, C = P.shape
    loss_sum = 0.0
    dZ = np.zeros((n, C))
    dM = np.zeros((R, C, C))
    for i, r, y in zip(ann_i.tolist(), ann_r.tolist(), ann_y.tolist()):
        p, Mr = P[i].tolist(), M[r].tolist()
        loss, terms = _annotation_terms(p, Mr, y)
        loss_sum += loss
        if terms is None:
            continue
        _, g_q, _, _ = terms
        g_p = [sum(Mr[c][j] * g_q[j] for j in range(C)) for c in range(C)]
        s = sum(p[c] * g_p[c] for c in range(C))
        for c in range(C):
            dZ[i, c] += p[c] * (g_p[c] - s)
            for j in range(C):
                dM[r, c, j] += p[c] * g_q[j]
    return loss_sum, dZ, dM


def hyper_grads_oracle(P, U, ann_i, ann_r, ann_y, M, group_of, G):
    C = P.shape[1]
    dV = np.zeros((G, C, C))
    for i, r, y in zip(ann_i.tolist(), ann_r.tolist(), ann_y.tolist()):
        p, u, Mr = P[i].tolist(), U[i].tolist(), M[r].tolist()
        _, terms = _annotation_terms(p, Mr, y)
        if terms is None:
            continue
        mask, g_q, Sg, qyg = terms
        alpha = sum(p[c] * u[c] for c in range(C))
        v = [p[c] * u[c] - alpha * p[c] for c in range(C)]
        Avec = [sum(Mr[c][j] * v[c] for c in range(C)) for j in range(C)]
        Abar = sum(Avec[j] * mask[j] for j in range(C))
        t = [-mask[j] * Abar / (Sg * Sg) for j in range(C)]
        t[y] += mask[y] * Avec[y] / (qyg * qyg)
        g = group_of[r]
        for c in range(C):
            for j in range(C):
                dV[g, c, j] += v[c] * g_q[j] + p[c] * t[j]
    return dV


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

MODES = ("plain", "band", "tiny", "clamped")


def _case(seed, n, C, R, A, G, mode):
    """A random kernel input. ann_i is unsorted with repeats.

    band:    one column per annotator has entries in [1e-6, 1e-4], so its q
             lies in (EPS, GRAD_FLOOR); half the annotations report it.
    tiny:    every entry is that small, so the row sum S is in the band too.
    clamped: one column per annotator is negative, so its q clamps to EPS
             and annotations reporting it are inactive.
    """
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(C), size=n)
    ann_i = rng.integers(0, n, A).astype(np.int64)
    ann_r = rng.integers(0, R, A).astype(np.int64)
    ann_y = rng.integers(0, C, A).astype(np.int64)
    M = np.eye(C) + 0.1 * rng.normal(size=(R, C, C))
    col = rng.integers(0, C, R)
    if mode == "band":
        M[np.arange(R), :, col] = rng.uniform(1e-6, 1e-4, (R, C))
        ann_y[::2] = col[ann_r[::2]]
    elif mode == "tiny":
        M = rng.uniform(1e-6, 1e-4, (R, C, C))
    elif mode == "clamped":
        M[np.arange(R), :, col] = -rng.uniform(0.1, 1.0, (R, C))
        ann_y[::2] = col[ann_r[::2]]
    group_of = rng.integers(0, G, R).astype(np.int64)
    U = rng.normal(size=(n, C))
    return P, U, ann_i, ann_r, ann_y, M, group_of


@st.composite
def cases(draw):
    C = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    R = draw(st.integers(1, 6))
    A = draw(st.integers(0, 24))
    G = draw(st.integers(1, R))
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(MODES))
    return (G,) + _case(seed, n, C, R, A, G, mode)


def _close(got, want):
    np.testing.assert_allclose(
        got, want, rtol=RTOL, atol=ATOL_SCALE * (1.0 + np.abs(want).max(initial=0.0)))


def _check_crowd_grads(P, ann_i, ann_r, ann_y, M):
    R = M.shape[0]
    loss, dZ, dM = kernels.crowd_grads(P, ann_i, ann_r, ann_y, M, R)
    want_loss, want_dZ, want_dM = crowd_grads_oracle(P, ann_i, ann_r, ann_y, M, R)
    assert loss == pytest.approx(want_loss, rel=RTOL, abs=1e-12)
    assert dZ.shape == want_dZ.shape and dM.shape == want_dM.shape
    _close(dZ, want_dZ)
    _close(dM, want_dM)
    absent = np.setdiff1d(np.arange(R), ann_r)
    assert (dM[absent] == 0.0).all()
    assert (dZ[np.setdiff1d(np.arange(P.shape[0]), ann_i)] == 0.0).all()


def _check_hyper_grads(G, P, U, ann_i, ann_r, ann_y, M, group_of):
    calls = []

    def meta_u(dZ):
        calls.append(dZ.copy())
        return U

    dZ, dV = kernels.hyper_grads(P, meta_u, ann_i, ann_r, ann_y, M, group_of, G)
    want = hyper_grads_oracle(P, U, ann_i, ann_r, ann_y, M, group_of, G)
    # The virtual step sees crowd_grads' dZ bit for bit, and sees it once.
    want_dZ = kernels.crowd_grads(P, ann_i, ann_r, ann_y, M, M.shape[0])[1]
    assert np.array_equal(dZ, want_dZ)
    assert len(calls) == 1 and np.array_equal(calls[0], want_dZ)
    assert dV.shape == want.shape
    _close(dV, want)
    assert (dV[np.setdiff1d(np.arange(G), group_of[ann_r])] == 0.0).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_crowd_grads_matches_oracle(case):
    _, P, _, ann_i, ann_r, ann_y, M, _ = case
    _check_crowd_grads(P, ann_i, ann_r, ann_y, M)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_hyper_grads_matches_oracle(case):
    _check_hyper_grads(*case)


# Named edges, so each one runs on every pass whatever hypothesis draws.
EDGES = {
    "two-classes": dict(n=5, C=2, R=3, A=12, G=2, mode="plain"),
    "empty-batch": dict(n=4, C=3, R=3, A=0, G=2, mode="plain"),
    "one-annotator": dict(n=5, C=4, R=1, A=9, G=1, mode="plain"),
    "q-in-floor-band": dict(n=5, C=4, R=3, A=16, G=2, mode="band"),
    "sum-in-floor-band": dict(n=5, C=3, R=2, A=10, G=1, mode="tiny"),
    "clamped-column": dict(n=5, C=3, R=3, A=14, G=3, mode="clamped"),
    "unreached-groups": dict(n=5, C=3, R=2, A=10, G=4, mode="plain"),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edges_match_oracle(name):
    spec = EDGES[name]
    G = spec["G"]
    P, U, ann_i, ann_r, ann_y, M, group_of = _case(7, **spec)
    if name == "q-in-floor-band":
        q = np.einsum("ac,acj->aj", P[ann_i], M[ann_r])
        assert ((q > EPS) & (q < GRAD_FLOOR))[np.arange(ann_y.size), ann_y].any()
    if name == "unreached-groups":
        assert np.setdiff1d(np.arange(G), group_of[ann_r]).size
    _check_crowd_grads(P, ann_i, ann_r, ann_y, M)
    _check_hyper_grads(G, P, U, ann_i, ann_r, ann_y, M, group_of)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(0, 8), A=st.integers(0, 40),
       tail=st.sampled_from([(), (1,), (3,), (2, 2), (4, 4)]),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_rows_equals_add_at(rows, A, tail, seed):
    rng = np.random.default_rng(seed)
    A = A if rows else 0
    index = rng.integers(0, max(rows, 1), A).astype(np.int64)
    values = rng.normal(size=(A,) + tail) * rng.integers(0, 2, (A,) + tail)
    want = np.zeros((rows,) + tail)
    np.add.at(want, index, values)
    got = kernels._scatter_rows(index, values, rows)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert (got[np.setdiff1d(np.arange(rows), index)] == 0.0).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(C=st.integers(2, 6), N=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_draw_labels_equals_comparison_count(C, N, seed):
    # The oracle counts, by comparing against every entry, the cumulative
    # entries at or below u. Zero pattern entries make flat cumsum steps,
    # and some u sit exactly on an entry, at 0 or just below 1.
    rng = np.random.default_rng(seed)
    mat = rng.random((C, C)) * rng.integers(0, 2, (C, C))
    mat[mat.sum(axis=1) == 0, 0] = 1.0
    cum = np.cumsum(mat / mat.sum(axis=1, keepdims=True), axis=1)
    truth = rng.integers(0, C, N)
    u = rng.random(N)
    on_entry = rng.integers(0, 2, N).astype(bool)
    u[on_entry] = cum[truth[on_entry], rng.integers(0, C, on_entry.sum())]
    u[::7] = 0.0
    u[3::11] = np.nextafter(1.0, 0.0)
    want = np.minimum((u[:, None] >= cum[truth]).sum(axis=1), C - 1)
    got = kernels.draw_labels(cum, truth, u)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def select_k_oracle(weights, U):
    """One row at a time: count the 1-D cumsum entries at or below
    u * total, cap the count at the last positive weight, zero the pick."""
    N, k = U.shape
    out = np.empty((N, k), dtype=np.int64)
    for i in range(N):
        w = np.array(weights, dtype=np.float64)
        for d in range(k):
            cums = np.cumsum(w)
            sel = int((cums <= U[i, d] * cums[-1]).sum())
            sel = min(sel, int(np.flatnonzero(w > 0.0)[-1]))
            out[i, d] = sel
            w[sel] = 0.0
    return out


BELOW_ONE = float(np.nextafter(1.0, 0.0))


@st.composite
def select_k_cases(draw):
    # Ties, zero and tiny weights; u at 0 and just below 1; k up to the
    # number of positive weights. Only a subnormal total (5e-324) lets
    # u * total round up to the total, the case the cap exists for.
    R = draw(st.integers(1, 10))
    weight = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0]) | st.floats(1e-3, 10.0)
    weights = np.array(draw(st.lists(weight, min_size=R, max_size=R)))
    if not (weights > 0.0).any():
        weights[draw(st.integers(0, R - 1))] = 1.0
    k = draw(st.integers(1, int((weights > 0.0).sum())))
    N = draw(st.integers(1, 12))
    u = st.sampled_from([0.0, BELOW_ONE]) | st.floats(0.0, 1.0, exclude_max=True)
    U = np.array(draw(st.lists(u, min_size=N * k, max_size=N * k))).reshape(N, k)
    return weights, U


@settings(max_examples=300, deadline=None, derandomize=True)
@given(select_k_cases())
def test_select_k_equals_row_oracle(case):
    weights, U = case
    got = kernels.select_k(weights, U)
    assert got.dtype == np.int64 and np.array_equal(got, select_k_oracle(weights, U))


def test_select_k_across_row_chunks():
    # A few SELECT_K_ROWS blocks and a remainder: the picks must not
    # depend on the blocking.
    rng = np.random.default_rng(5)
    weights = np.array([0.0, 1.0, 1.0, 1e-300, 2.5, 5e-324, 0.0, 0.3])
    U = rng.random((3 * kernels.SELECT_K_ROWS + 37, 6))
    U[::97] = 0.0
    U[5::101] = BELOW_ONE
    got = kernels.select_k(weights, U)
    assert np.array_equal(got, select_k_oracle(weights, U))
