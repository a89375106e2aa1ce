"""The collocation assembler: every matrix it fills has the bits of the
construction it replaced, less that construction's explicit zeros, and a
build holds little beyond its matrix.

Each oracle below is the replaced construction, kept inline: COO triplets
converted to CSR for ``transfer_matrix``, diagonal matrix products for
``L_matrix``, a CSR copy of the transpose for the left power iteration, and
a whole-branch fill for ``dolgopyat._lagrange_step``.  The COO build and
the whole-branch fill store a 0 wherever a preimage lands on a node; the
assembler drops it, so they are compared after ``eliminate_zeros()``, and
the eigendata is compared with a power iteration on the zeros kept.  The
assembler's row chunks are shrunk to a few rows, so chunks split elements
and branches.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gibbsflow.dolgopyat as dg
import gibbsflow.operator as op
from conftest import SYSTEMS, last_depth, system
from gibbsflow.operator import (BranchPlan, GridFunction, _lagrange,
                                _power_iteration, eigendata, node_grid,
                                transfer_matrix)

MiB = 1 << 20


@pytest.fixture(params=[5, None], ids=["rows5", "rows"])
def rows(request, monkeypatch):
    """The assembler's chunks of 5 rows, or of its own _ROWS."""
    if request.param:
        monkeypatch.setattr(op, "_ROWS", request.param)


def _same_csr(got, want):
    """The same shape, and indptr, indices and data of the same dtypes and
    bytes."""
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def _zero_free(M):
    """M with its explicit zeros dropped, in place."""
    M.eliminate_zeros()
    return M


def _csr_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


# -- the replaced constructions -------------------------------------------------


def coo_transfer_matrix(sys, s, N):
    """P_s as COO triplets, element by element and branch by branch, with
    the linear hat, converted to CSR."""
    nodes = node_grid(sys, N)
    rows, cols, vals = [], [], []
    for e in range(sys.m):
        for i in range(sys.m):
            if not sys.transition[i, e]:
                continue
            y = sys.inverse_branch(i, nodes[e])
            a, bnd = sys.element_interval(i)
            h = (bnd - a) / (N - 1)
            t = (y - a) / h
            j = np.clip(np.floor(t).astype(int), 0, N - 2)
            frac = t - j
            g, _ = sys.log_weight(i, s, y)
            wgt = np.exp(g)
            base = e * N + np.arange(N)
            rows.extend([base, base])
            cols.extend([i * N + j, i * N + j + 1])
            vals.extend([wgt * (1.0 - frac), wgt * frac])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sys.m * N, sys.m * N))


def diag_products_L(eig, b):
    """L_{sigma + i b} as D^-1 P D with sparse diagonal matrices, P the COO
    build, real at b = 0; the products drop P's explicit zeros."""
    P = coo_transfer_matrix(eig.system,
                            eig.sigma + 1j * b if b else eig.sigma, eig.N)
    fflat = eig.f.values.reshape(-1)
    D = sp.diags(fflat)
    Dinv = sp.diags(1.0 / (eig.lam * fflat))
    return (Dinv @ P @ D).tocsr()


def whole_branch_lagrange_step(sys, eig, b, nodes):
    """v's step matrix with every branch's weights, stencils and columns
    formed over the whole branch at once, from one engine run per branch
    over its image's nodes."""
    N = nodes.shape[1]
    xs = nodes.reshape(-1)
    elements = np.repeat(np.arange(sys.m), N)
    blocks = []
    norm = np.zeros(len(xs))
    for i in range(sys.m):
        cols = np.flatnonzero(sys.transition[i, elements])
        pb = last_depth(sys, [[i]], xs[cols], ("x", "Snr", "J"), eig)
        norm[cols] += pb.J[0]
        blocks.append((i, cols, pb))
    indptr = np.zeros(sys.m * N + 1, dtype=np.intp)
    for _, cols, _ in blocks:
        indptr[cols + 1] += 4
    np.cumsum(indptr, out=indptr)
    indptr = indptr.astype(np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=np.int32)
    filled = indptr[:-1].copy()
    for i, cols, pb in blocks:
        coef = pb.J.astype(complex) if b == 0.0 else \
            pb.J * np.exp(-1j * b * pb.Snr)
        coef = coef.reshape(-1) / norm[cols]
        lo, hi = sys.element_interval(i)
        t = (pb.x.reshape(-1) - lo) * ((N - 1) / (hi - lo))
        j = np.clip(np.floor(t).astype(np.intp), 1, N - 3)
        at = filled[cols]
        for k, w in enumerate(_lagrange(t - j)):
            data[at + k] = coef * w
            indices[at + k] = i * N + j + (k - 1)
        filled[cols] += 4
    return sp.csr_matrix((data, indices, indptr), shape=(sys.m * N,) * 2)


def complex_j_apply(plan, b, fn, twist):
    """``BranchPlan.apply`` with a complex copy of each block's J, the
    twisted weight at b = 0: each column summed row after row (cumsum, as
    sum adds a lone column pairwise), the real and imaginary parts divided
    by the normaliser apart."""
    acc = np.zeros(plan.norm.shape, dtype=complex)
    for cols, hx, J, twisted in plan.blocks:
        val = twisted if twist and b != 0.0 else J.astype(complex)
        acc[cols] += np.cumsum(val * np.reshape(fn(hx), val.shape),
                               axis=0)[-1]
    out = np.empty_like(acc)
    out.real, out.imag = acc.real / plan.norm, acc.imag / plan.norm
    return out


# -- bits -----------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 64])
@pytest.mark.parametrize("name", SYSTEMS)
def test_transfer_matrix_equals_the_coo_build(name, N, rows):
    sys = system(name)
    for sigma in (0.0, 0.5):
        for b in (0.0, 1.0, 256.0):
            s = sigma if b == 0.0 else sigma + 1j * b
            _same_csr(transfer_matrix(sys, s, N),
                      _zero_free(coo_transfer_matrix(sys, s, N)))


@pytest.mark.parametrize("N", [2, 3, 64])
@pytest.mark.parametrize("name", SYSTEMS)
def test_l_matrix_equals_the_diagonal_products(name, N, rows):
    sys = system(name)
    for sigma in (0.0, 0.5):
        eig = eigendata(sys, sigma, N)
        for b in (0.0, 1.0, 256.0):
            _same_csr(eig.L_matrix(b), diag_products_L(eig, b))


@pytest.mark.parametrize("N", [2, 3, 64])
@pytest.mark.parametrize("name", SYSTEMS)
def test_left_power_iteration_reads_the_csc_transpose_bit_for_bit(name, N):
    sys = system(name)
    for sigma in (0.0, 0.5):
        M = transfer_matrix(sys, sigma, N)
        lam, nu, it = _power_iteration(M.T)
        lam_c, nu_c, it_c = _power_iteration(M.T.tocsr())
        assert (lam, it) == (lam_c, it_c)
        assert nu.tobytes() == nu_c.tobytes()


@pytest.mark.parametrize("N", [4, 5, 64])
@pytest.mark.parametrize("name", SYSTEMS)
def test_lagrange_step_equals_the_whole_branch_fill(name, N, rows):
    sys = system(name)
    nodes = node_grid(sys, N)
    for sigma in (0.0, 0.5):
        eig = eigendata(sys, sigma, 64)
        for b in (0.0, 1.0, 256.0):
            _same_csr(dg._lagrange_step(sys, eig, b, nodes),
                      _zero_free(whole_branch_lagrange_step(sys, eig, b,
                                                            nodes)))


@pytest.mark.parametrize("name", SYSTEMS)
def test_collocation_matrices_store_no_zero(name):
    # the replaced builds store a 0 for each preimage on a node, on every
    # system; v's step is built on cone_iteration's grid at b = 256
    sys = system(name)
    for N in (64, 1025):
        assert np.any(coo_transfer_matrix(sys, 0.0, N).data == 0)
        assert np.all(transfer_matrix(sys, 0.0, N).data != 0)
    nodes = node_grid(sys, int(max(dg._BASE_N, dg._V_NODES_PER_B * 256)))
    eig = eigendata(sys, 0.0, 64)
    assert np.any(whole_branch_lagrange_step(sys, eig, 256.0, nodes).data
                  == 0)
    assert np.all(dg._lagrange_step(sys, eig, 256.0, nodes).data != 0)


@pytest.mark.parametrize("N", [64, 1025])
@pytest.mark.parametrize("name", SYSTEMS)
def test_eigendata_has_the_bits_of_the_power_iteration_on_the_zeros(
        name, N, monkeypatch):
    # lam, f and nu of both sides, then everything eigendata derives from
    # them, with the COO build's zeros kept
    sys = system(name)
    for sigma in (0.0, 0.5):
        P = transfer_matrix(sys, sigma, N)
        M = coo_transfer_matrix(sys, sigma, N)
        for got, want in ((_power_iteration(P), _power_iteration(M)),
                          (_power_iteration(P.T), _power_iteration(M.T))):
            assert (got[0], got[2]) == (want[0], want[2])
            assert got[1].tobytes() == want[1].tobytes()
        eig = eigendata(sys, sigma, N)
        with monkeypatch.context() as patch:
            patch.setattr(op, "transfer_matrix", coo_transfer_matrix)
            kept = eigendata(sys, sigma, N)
        assert (eig.lam, eig.iterations, eig.residual) == (
            kept.lam, kept.iterations, kept.residual)
        assert eig.f.values.tobytes() == kept.f.values.tobytes()
        assert eig.mu.tobytes() == kept.mu.tobytes()


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C-NLROOF"])
def test_branch_plan_applies_its_real_j_with_the_bits_of_a_complex_copy(
        name):
    # real and complex functions, twisted or not; on SYS-C-NLROOF the node
    # sets make blocks of one point, summed row after row as a column is
    # among others (numpy's sum would add a lone column pairwise)
    sys = system(name)
    eig = eigendata(sys, 0.5, 128)
    sets = ([np.array([0.1]), np.array([]), np.array([0.9])]
            if sys.m == 3 else [np.linspace(0.0, 0.5, 9), np.array([0.7])])
    fns = [lambda x: 2.0 + np.cos(5.0 * x), lambda x: np.exp(3j * x)]
    for b in (0.0, 256.0):
        for n in (1, 4):
            plan = BranchPlan(sys, eig, b, n, sets)
            for fn in fns:
                for twist in (False, True):
                    got = plan.apply(fn, twist)
                    want = complex_j_apply(plan, b, fn, twist)
                    assert got.tobytes() == want.tobytes()


def test_a_stencil_wider_than_the_grid_is_refused(sys_b):
    with pytest.raises(ValueError, match="N >= 4"):
        dg._lagrange_step(sys_b, eigendata(sys_b, 0.0, 64), 256.0,
                          node_grid(sys_b, 3))


@pytest.mark.parametrize("N", [0, 1])
def test_a_grid_of_fewer_than_two_nodes_is_refused(sys_b, N):
    # one node per element would be the left ends alone, not an inclusive
    # grid, and the hat's step (b - a) / (N - 1) divides by zero
    with pytest.raises(ValueError, match="N >= 2"):
        node_grid(sys_b, N)
    with pytest.raises(ValueError, match="N >= 2"):
        transfer_matrix(sys_b, 0.0, N)
    with pytest.raises(ValueError, match="N >= 2"):
        eigendata(sys_b, 0.0, N)
    with pytest.raises(ValueError, match="N >= 2"):
        GridFunction(sys_b, np.ones((sys_b.m, N)))


# -- memory ---------------------------------------------------------------------


def _peak(build):
    """build() and the peak of traced memory above the start, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_transfer_matrix_build_holds_little_beyond_its_matrix():
    # SYS-C at 8,192 nodes per element: 114,688 entries, 1.41 MiB of CSR.
    # The COO build held the triplet lists, their concatenations and the
    # converted copies at once: a peak of 5.5 MiB
    sys = system("SYS-C")
    transfer_matrix(sys, 0.0, 64)  # lazy caches
    M, peak = _peak(lambda: transfer_matrix(sys, 0.0, 8192))
    assert peak <= 1.3 * _csr_bytes(M) + MiB, (peak, _csr_bytes(M))


def test_l_matrix_build_adds_at_most_its_transfer_matrix(sys_b):
    # SYS-B at 8,192 nodes per element, b = 256: P has 65,536 complex
    # entries, 1.31 MiB of CSR.  D^-1 P D held P, D^-1 P and the product
    # beside the COO build's transients: a peak of 4.6 MiB
    eig = eigendata(sys_b, 0.0, 8192)
    eig.L_matrix(1.0)  # lazy caches
    eig._lmat_cache.clear()
    P = _csr_bytes(transfer_matrix(sys_b, 256j, 8192))
    _, peak = _peak(lambda: eig.L_matrix(256.0))
    assert peak <= P + MiB, (peak, P)
