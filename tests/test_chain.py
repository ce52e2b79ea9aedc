"""Chain-layer tests: stochastic matrices, values, moments, m-step tools.

Derived expectations come from the dense oracles in _oracles (power
series, brute-force row convolutions) rather than from the package.
"""

import functools
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse import linalg as spla

import _oracles as orc
import _post_oracles as po
from momentagg import (
    MarkovRewardProcess,
    NumericalError,
    ResourceLimitError,
    RowStochasticMatrix,
    StateLattice,
    delta_at,
    exact_value,
    local_moments,
    m_step_chain,
    max_jump,
    scaled_value,
    solve_discounted,
    verify_mstep_identity,
)
from momentagg import build_grid, build_scheme, chain, lifted_chain
from momentagg.benchmarks import (
    build_hospital,
    build_jrp,
    build_reflecting_rw,
    build_simple_rw,
    build_two_point_chain,
    hospital_2ward,
    jrp_small,
)
from momentagg.chain import PROB_DROP, ROWSUM_TOL


def _chain_mrp(P, c, alpha):
    lat = StateLattice([0], [P.shape[0] - 1])
    return MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)


# ---------------------------------------------------------------------------
# RowStochasticMatrix
# ---------------------------------------------------------------------------

def _reference_constructor(matrix):
    """The original RowStochasticMatrix constructor (a full copy, duplicate
    summing, drop by zeroing, renormalizing rebuild and sort), kept as the
    oracle of the one that skips this work for canonical CSR input."""
    M = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
    M.sum_duplicates()
    if M.nnz and float(M.data.min()) < 0.0:
        raise ValueError("negative transition probability")
    sums = np.asarray(M.sum(axis=1)).ravel()
    if np.any(np.abs(sums - 1.0) > ROWSUM_TOL):
        raise ValueError("rows must sum to 1")
    if M.nnz and float(M.data.min()) < PROB_DROP:
        keep = M.data >= PROB_DROP
        M.data = np.where(keep, M.data, 0.0)
        M.eliminate_zeros()
        sums = np.asarray(M.sum(axis=1)).ravel()
    scale = 1.0 / sums
    M = sparse.csr_matrix(
        (M.data * np.repeat(scale, np.diff(M.indptr)), M.indices, M.indptr),
        shape=M.shape,
    )
    M.sort_indices()
    return M


def _assert_same_csr(got, expect):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("instance", ["jrp_large", "hospital3"])
def test_constructor_matches_reference_on_benchmark_rows(monkeypatch, instance):
    # the rows kernel_rows_at materializes at every representative state,
    # under action 0 and under a random feasible action
    from momentagg import benchmarks as B
    from momentagg.aggregation import build_scheme
    from momentagg.grid import build_grid

    if instance == "jrp_large":
        mdp = B.build_jrp(B.jrp_large())
    else:
        mdp = B.build_hospital(B.hospital_3ward())
    reps = np.asarray(build_scheme(build_grid(mdp.lattice, 0.45)).grid.rep_indices)
    seen = []

    class Capturing(RowStochasticMatrix):
        __slots__ = ()

        @classmethod
        def _adopt(cls, matrix):
            # the rows are built for the matrix alone, which keeps (and may
            # rescale) their arrays: the reference is taken before
            expect = _reference_constructor(matrix)
            P = super()._adopt(matrix)
            seen.append((P.csr, expect))
            return P

    monkeypatch.setattr(chain, "RowStochasticMatrix", Capturing)
    rng = np.random.default_rng(17)
    for actions in (
        np.zeros(len(reps), dtype=np.int64),
        rng.integers(0, mdp.action_counts()[reps]),
    ):
        mdp.kernel_rows_at(reps, actions).csr
    assert len(seen) == 2
    for got, expect in seen:
        _assert_same_csr(got, expect)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                       st.sampled_from([1e-17, 1e-16, 2e-15, 0.25, 0.5, 1.0])),
             min_size=1, max_size=30),
    st.sampled_from(["coo", "csr", "unsorted", "dense"]),
    st.sampled_from([1.0, 1.0 + 5e-13, 1.0 - 5e-13]),
)
def test_constructor_matches_reference_on_any_input(n_rows, n_cols, entries, form, mass):
    # one unit entry per row, so no row is empty, then the drawn entries
    rows = np.r_[np.arange(n_rows), [r % n_rows for r, _, _ in entries]]
    cols = np.r_[np.arange(n_rows) % n_cols, [c % n_cols for _, c, _ in entries]]
    vals = np.r_[np.ones(n_rows), [v for _, _, v in entries]]
    M = sparse.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    # rows sum to ``mass``, within the tolerance but not always exactly one
    M = sparse.csr_matrix(sparse.diags(mass / np.asarray(M.sum(axis=1)).ravel()) @ M)
    if form == "coo":
        M = M.tocoo()
    elif form == "unsorted":  # every row's entries reversed, half of each twice
        order = np.concatenate(
            [np.arange(M.indptr[r + 1] - 1, M.indptr[r] - 1, -1) for r in range(n_rows)]
        )
        half = M.data[order] / 2
        M = sparse.csr_matrix(
            (np.repeat(half, 2), np.repeat(M.indices[order], 2), 2 * M.indptr),
            shape=M.shape,
        )
    elif form == "dense":
        M = M.toarray()
    before = sparse.csr_matrix(M, copy=True)
    _assert_same_csr(RowStochasticMatrix(M).csr, _reference_constructor(M))
    after = sparse.csr_matrix(M)
    for name in ("indptr", "indices", "data"):  # the input is left as it was
        assert np.array_equal(getattr(after, name), getattr(before, name))


@pytest.mark.parametrize("tiny", [0.0, 1e-16])
def test_constructor_leaves_csr_input_untouched(tiny):
    # canonical CSR input whose rows sum to 1 + 5e-13: renormalized without
    # writing to (or handing out) the caller's arrays, with and without a drop
    M = sparse.csr_matrix(np.array([[0.5, 0.5 + 5e-13, tiny], [1.0, 0.0, 0.0]]))
    before = M.copy()
    P = RowStochasticMatrix(M)
    _assert_same_csr(P.csr, _reference_constructor(before))
    _assert_same_csr(M, before)
    for name in ("indptr", "indices", "data"):
        assert not np.shares_memory(getattr(P.csr, name), getattr(M, name))


@pytest.mark.parametrize("which", ["P", "G"])
def test_constructor_copies_exact_rows_without_rescaling(which):
    # a reflecting walk's P and its G: every row already sums to exactly one,
    # so the CSR comes out byte-identical to the reference, in copies of the
    # caller's arrays, without the entry-sized scale and product that took
    # the peak to 1.86 times the copies (1.32 without them)
    mrp = build_reflecting_rw(200_000, 0)
    M = mrp.P.csr if which == "P" else build_scheme(build_grid(mrp.lattice, 0.45)).G.csr
    assert np.all(np.add.reduceat(M.data, M.indptr[:-1]) == 1.0)
    tracemalloc.start()
    try:
        P = RowStochasticMatrix(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_csr(P.csr, _reference_constructor(M))
    for name in ("indptr", "indices", "data"):
        assert not np.shares_memory(getattr(P.csr, name), getattr(M, name))
    copies = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert peak <= 1.5 * copies, f"peak {peak} bytes for {copies} bytes of copies"


def test_induced_kernel_is_adopted_without_copies():
    # jrp_small's induced kernel as KronRows.matrix builds it: the package's
    # own CSR keeps its arrays, checked and rescaled in place; the copies
    # the public constructor makes took the peak to 1.69 times the arrays
    # (0.76 without them: the row sums and the scale)
    mdp = build_jrp(jrp_small())
    n = mdp.lattice.size
    posts = mdp.pairs_at(np.arange(n), np.zeros(n, dtype=np.int64))[0]
    rows = chain.KronRows(mdp.kernels, posts)
    M = chain.row_kron(rows._csr, rows.rows)
    want = RowStochasticMatrix(M).csr
    assert not np.all(np.add.reduceat(M.data, M.indptr[:-1]) == 1.0)  # it rescales
    copies = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    tracemalloc.start()
    try:
        P = RowStochasticMatrix._adopt(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_csr(P.csr, want)
    _assert_same_csr(rows.matrix.csr, want)
    for name in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(P.csr, name), getattr(M, name))
    assert peak <= copies, f"peak {peak} bytes for {copies} bytes of arrays"


def test_matrix_rejects_negative_mass():
    with pytest.raises(ValueError):
        RowStochasticMatrix([[1.5, -0.5], [0.5, 0.5]])


@pytest.mark.parametrize("form", ["csr", "dense"])
def test_matrix_rejects_nan(form):
    # NaN fails every comparison, so the checks are written to need a pass
    M = np.array([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="NaN"):
        RowStochasticMatrix(sparse.csr_matrix(M) if form == "csr" else M)


def test_matrix_rejects_bad_row_sum():
    with pytest.raises(ValueError, match="sum to 1"):
        RowStochasticMatrix([[0.6, 0.3], [0.5, 0.5]])


@pytest.mark.parametrize("form", ["csr", "dense"])
def test_matrix_rejects_empty_row(form):
    # row 1 holds no entry; the row sums must not read row 2's mass for it
    M = sparse.csr_matrix(([1.0, 1.0], ([0, 2], [0, 1])), shape=(3, 2))
    with pytest.raises(ValueError, match="empty"):
        RowStochasticMatrix(M if form == "csr" else M.toarray())


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5)])
def test_matrix_rejects_all_zero(shape):
    with pytest.raises(ValueError, match="sum to 1"):
        RowStochasticMatrix(sparse.csr_matrix(shape))
    with pytest.raises(ValueError, match="sum to 1"):
        RowStochasticMatrix(np.zeros(shape))


def test_tiny_entries_dropped_and_renormalized():
    eps = 1e-16
    M = RowStochasticMatrix([[1.0 - eps, eps], [0.5, 0.5]])
    assert M.nnz == 3
    cols, probs = M.row(0)
    assert np.array_equal(cols, [0])
    assert probs[0] == pytest.approx(1.0, abs=1e-15)


def test_row_sums_exact_after_construction():
    rng = np.random.default_rng(3)
    P = rng.random((40, 40))
    P /= P.sum(axis=1, keepdims=True)
    M = RowStochasticMatrix(P)
    assert_allclose(np.asarray(M.csr.sum(axis=1)).ravel(), 1.0, rtol=0, atol=1e-14)


def test_sorted_column_indices():
    M = RowStochasticMatrix.from_coo([0, 0, 1, 1], [3, 1, 0, 2], [0.5, 0.5, 0.25, 0.75], (2, 4))
    cols, _ = M.row(0)
    assert np.array_equal(cols, [1, 3])


def test_from_coo_sums_duplicates():
    # clamped boundary mass lands on the same column twice
    M = RowStochasticMatrix.from_coo([0, 0, 0], [0, 0, 1], [0.25, 0.25, 0.5], (1, 2))
    cols, probs = M.row(0)
    assert np.array_equal(cols, [0, 1])
    assert_allclose(probs, [0.5, 0.5])


def test_from_rows_and_take_rows():
    M = po.from_rows([([2], [1.0]), ([0, 1], [0.5, 0.5])], 3)
    assert M.shape == (2, 3)
    sliced = M.take_rows([1])
    assert sliced.shape == (1, 3)
    assert_allclose(sliced.toarray(), [[0.5, 0.5, 0.0]])


def test_apply_examples():
    n = 5
    rng = np.random.default_rng(0)
    P = rng.random((n, n))
    P /= P.sum(axis=1, keepdims=True)
    M = RowStochasticMatrix(P)
    assert_allclose(M.apply(np.ones(n)), np.ones(n), atol=1e-12)
    I = RowStochasticMatrix.identity(n)
    f = rng.random(n)
    assert_allclose(I.apply(f), f)
    with pytest.raises(ValueError):
        M.apply(np.ones(n + 1))


def test_apply_matrix_operand():
    M = RowStochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(M.apply(F), [[2.0, 3.0], [3.0, 4.0]])


def test_power_matches_bruteforce_two_step():
    P, _ = orc.random_dense_chain(11, 20)
    M = RowStochasticMatrix(P)
    assert_allclose(M.power(2).toarray(), orc.two_step_rows(P), atol=1e-12)


def test_power_of_permutation_is_identity():
    n = 6
    perm = np.roll(np.eye(n), 1, axis=1)
    M = RowStochasticMatrix(perm)
    assert_allclose(M.power(n).toarray(), np.eye(n), atol=1e-15)


def _budget_cases():
    """Per materialization: a call that builds it, and its entry count."""
    P, _ = orc.random_dense_chain(2, 30, sparsity=0.9)
    M = RowStochasticMatrix(P)
    _, Q, c, alpha = orc.random_lattice_chain(64, (0, 0), (9, 9), max_jump=9)
    mrp = MarkovRewardProcess(StateLattice((0, 0), (9, 9)), RowStochasticMatrix(Q), c, alpha)
    scheme = build_scheme(build_grid(mrp.lattice, 0.45))
    mdp = build_hospital(hospital_2ward())
    policy = np.zeros(mdp.lattice.size, dtype=np.int64)
    return {
        "power": lambda: M.power(3),
        "lifted_chain": lambda: lifted_chain(mrp, scheme).materialize(),
        "induced": lambda: mdp.induced(policy)[0],
    }


@pytest.mark.parametrize("kind", ["power", "lifted_chain", "induced"])
def test_nnz_budget_guard(kind, monkeypatch):
    # every materialization reads the one chain.NNZ_BUDGET when it is called
    build = _budget_cases()[kind]
    nnz = build().nnz
    assert 10 < nnz <= chain.NNZ_BUDGET
    monkeypatch.setattr(chain, "NNZ_BUDGET", 10)
    with pytest.raises(ResourceLimitError, match="budget"):
        build()


class _NoProduct(sparse.csr_matrix):
    """A CSR matrix that fails the test if it is ever multiplied."""

    def __matmul__(self, other):
        raise AssertionError("the refused product was formed")


@pytest.mark.parametrize("kind", ["power", "lifted_chain"])
def test_refused_product_is_never_formed(kind, monkeypatch):
    # the budget is checked from the factors' row supports, so a refused
    # product never reaches the sparse multiply
    P, _ = orc.random_dense_chain(2, 30, sparsity=0.9)
    M = RowStochasticMatrix(P)
    if kind == "power":
        build = lambda: M.power(3)
    else:
        _, Q, c, alpha = orc.random_lattice_chain(64, (0, 0), (9, 9), max_jump=9)
        lat = StateLattice((0, 0), (9, 9))
        M = RowStochasticMatrix(Q)
        mrp = MarkovRewardProcess(lat, M, c, alpha)
        scheme = build_scheme(build_grid(lat, 0.45))
        build = lambda: lifted_chain(mrp, scheme).materialize()
    M.csr = _NoProduct(M.csr)
    with pytest.raises(AssertionError, match="refused product"):
        build()  # within budget the product is formed, through the patch
    monkeypatch.setattr(chain, "NNZ_BUDGET", 10)
    with pytest.raises(ResourceLimitError, match="needs up to [0-9]+ entries"):
        build()


def test_product_bound_caps_rows_at_the_column_count():
    # without the cap, the row supports of hospital2's induced chain would
    # count its two-step matrix far past the budget
    mdp = build_hospital(hospital_2ward())
    P, _ = mdp.induced(np.zeros(mdp.lattice.size, dtype=np.int64))
    reach = np.diff(P.csr.indptr)[P.csr.indices]
    assert int(reach.sum()) > chain.NNZ_BUDGET
    P2 = P.power(2)
    assert_allclose(P2.toarray(), P.toarray() @ P.toarray(), atol=1e-14)


# ---------------------------------------------------------------------------
# row-wise Kronecker products
# ---------------------------------------------------------------------------

@st.composite
def kron_factors(draw):
    """1-4 CSR factors as (factors, dense copies, row picks).  A row stores
    a contiguous run of columns, or with ``gaps`` any ascending set of them,
    so that its dense form has zeros between stored entries; stored zeros
    are allowed anywhere."""
    n = draw(st.integers(1, 6))
    value = st.just(0.0) | st.floats(0.0, 10.0, allow_subnormal=False)
    gaps = draw(st.booleans())
    factors, dense, rows = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        D = np.zeros((n_rows, n_cols))
        indptr, indices, data = [0], [], []
        for r in range(n_rows):
            if gaps:
                cols = sorted(draw(st.sets(st.integers(0, n_cols - 1), min_size=1)))
            else:
                lo = draw(st.integers(0, n_cols - 1))
                cols = list(range(lo, lo + draw(st.integers(1, n_cols - lo))))
            run = draw(st.lists(value, min_size=len(cols), max_size=len(cols)))
            D[r, cols] = run
            indices += cols
            data += run
            indptr.append(len(indices))
        factors.append(sparse.csr_matrix((data, indices, indptr), shape=D.shape))
        dense.append(D)
        rows.append(np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))))
    return factors, dense, rows


@settings(max_examples=200, deadline=None)
@given(kron_factors())
def test_row_kron_matches_dense_kron(case):
    factors, dense, rows = case
    M = chain.row_kron(factors, rows)
    # np.kron multiplies axis 0 first, as the builder does, so bit-equal
    want = np.stack([
        functools.reduce(np.kron, [D[r[i]] for D, r in zip(dense, rows)])
        for i in range(len(rows[0]))
    ])
    assert M.shape == want.shape
    assert np.array_equal(M.toarray(), want)
    assert M.has_canonical_format and np.all(M.data != 0.0)
    # KronRows counts a row's entries before forming it: at least its nnz
    posts = np.ravel_multi_index(rows, [F.shape[0] for F in factors])
    assert np.all(chain.KronRows(factors, posts).sizes() >= np.diff(M.indptr))


def _stochastic(rng, n_rows, n_cols):
    """A random row-stochastic array with zeros scattered in, one nonzero
    per row at least."""
    D = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.6)
    D[np.arange(n_rows), rng.integers(0, n_cols, n_rows)] += 1.0
    return D / D.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), axes=st.integers(1, 3), n=st.integers(1, 8))
def test_kron_rows_match_their_materialized_rows(seed, axes, n):
    # the factored rows apply, count and compose as the rows they form
    rng = np.random.default_rng(seed)
    factors, mats = [], []
    for j in range(axes):
        n_rows, n_cols = rng.integers(1, 5, 2)
        F = _stochastic(rng, n_rows, n_cols)
        factors.append(sparse.csr_matrix(F) if j % 2 else F)
        mats.append(sparse.csr_matrix(_stochastic(rng, n_cols, rng.integers(1, 4))))
    rows = [rng.integers(0, F.shape[0], n) for F in factors]
    P = chain.KronRows(factors, np.ravel_multi_index(rows, [F.shape[0] for F in factors]))
    M = P.csr
    assert P.shape == M.shape and P.nnz == M.nnz
    assert np.all(P.sizes() >= np.diff(M.indptr))
    f = rng.random(M.shape[1])
    assert_allclose(P.apply(f), M @ f, rtol=1e-13, atol=0)
    G = functools.reduce(lambda a, b: sparse.kron(a, b, format="csr"), mats)
    r = rng.random(G.shape[1])
    assert_allclose(P.times(mats).apply(r), M @ (G @ r), rtol=1e-13, atol=0)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 40), max_size=30),
    budget=st.integers(1, 100),
)
def test_row_blocks_are_greedy_within_budget(sizes, budget):
    # the blocks tile the rows in order; each is as long as the budget
    # allows, and only a single row may exceed it
    ends = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    blocks = chain.row_blocks(ends, budget)
    assert [0] + [t for _, t in blocks] == [s for s, _ in blocks] + [len(sizes)]
    for s, t in blocks:
        assert t > s
        assert t == s + 1 or ends[t] - ends[s] <= budget
        assert t == len(sizes) or ends[t + 1] - ends[s] > budget


# ---------------------------------------------------------------------------
# MarkovRewardProcess validation
# ---------------------------------------------------------------------------

def test_mrp_validation():
    lat = StateLattice([0], [1])
    P = RowStochasticMatrix(np.eye(2))
    with pytest.raises(ValueError):
        MarkovRewardProcess(lat, P, [-1.0, 0.0], 0.9)
    with pytest.raises(ValueError):
        MarkovRewardProcess(lat, P, [np.inf, 0.0], 0.9)
    with pytest.raises(ValueError):
        MarkovRewardProcess(lat, P, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        MarkovRewardProcess(lat, RowStochasticMatrix(np.eye(3)), [1.0, 1.0], 0.9)


def test_mrp_cost_is_write_locked():
    lat = StateLattice([0], [1])
    mrp = MarkovRewardProcess(lat, RowStochasticMatrix(np.eye(2)), [1.0, 2.0], 0.9)
    with pytest.raises(ValueError):
        mrp.cost[0] = 5.0


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_constant_cost_value():
    P, _ = orc.random_dense_chain(5, 30)
    mrp = _chain_mrp(P, np.ones(30), 0.9)
    assert_allclose(exact_value(mrp), 10.0, atol=1e-9)


def test_simple_rw_value_closed_form():
    mrp = build_simple_rw(20, alpha=0.9)
    x = np.arange(21.0)
    assert_allclose(exact_value(mrp), x / 0.1, atol=1e-8)


def test_value_matches_power_series_oracle():
    P, c = orc.random_dense_chain(7, 50)
    V = exact_value(_chain_mrp(P, c, 0.9))
    assert_allclose(V, orc.value_power_series(P, c, 0.9), atol=1e-8)


def test_value_residual_promise():
    P, c = orc.random_dense_chain(9, 80)
    alpha = 0.95
    V = exact_value(_chain_mrp(P, c, alpha))
    res = np.max(np.abs(c + alpha * (P @ V) - V))
    assert res <= 1e-9 * (1.0 + np.max(np.abs(c)))


def test_solve_discounted_callable_operator():
    # every accepted operator form: dense, RowStochasticMatrix, scipy
    # sparse (the aggregate system's form) and a callable
    P, c = orc.random_dense_chain(13, 40)
    V_dense = solve_discounted(P, c, 0.9)
    for form in (RowStochasticMatrix(P), sparse.csr_matrix(P), lambda v: P @ v):
        assert_allclose(solve_discounted(form, c, 0.9), V_dense, atol=1e-8)


def test_solve_discounted_rejects_bad_discount():
    with pytest.raises(ValueError):
        solve_discounted(np.eye(2), np.ones(2), 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_discounted_rejects_a_non_finite_cost(bad):
    # refused up front, not by a Richardson step count of NaN
    c = np.ones(3)
    c[1] = bad
    for P in (0.5 * np.eye(3), lambda v: 0.5 * v):
        with pytest.raises(ValueError, match="cost vector must be finite"):
            solve_discounted(P, c, 0.9)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
def test_solve_discounted_rejects_nonpositive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_discounted(0.5 * np.eye(2), np.ones(2), 0.9, tol=tol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Bi-CGSTAB may overflow
@pytest.mark.parametrize("L", [10, 20, 40, 60, 100])
def test_inconsistent_system_raises_instead_of_a_huge_value(L):
    # row 0 of I - alpha P vanishes (alpha * 2 == 1) against a cost of 1, so
    # no V solves the system; an iterate near 1e16 makes the residual cancel
    # in rounding, and only the a-priori bound on |V|_inf refuses it
    P = np.full((L, L), 0.5 / L)
    P[0] = 0.0
    P[0, 0] = 2.0
    with pytest.raises(NumericalError, match="stalled"):
        solve_discounted(P, np.ones(L), 0.5)


def test_solve_discounted_propagates_operator_bugs():
    # a faulty operator is a bug, not a numerical failure: it must surface
    # from the first product instead of being retried by later solver stages
    calls = []

    def broken(v):
        calls.append(1)
        raise IndexError("index 5 is out of bounds")

    with pytest.raises(IndexError):
        solve_discounted(broken, np.ones(5), 0.9)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
def test_solve_discounted_refuses_a_misshapen_product(shape):
    # a product of the wrong shape would be truncated or broadcast silently
    with pytest.raises(ValueError, match="operator returned shape"):
        solve_discounted(lambda v: np.zeros(shape), np.ones(5), 0.9)


def _scipy_bicgstab(apply_P, c, alpha, atol):
    """scipy's ``bicgstab`` on I - alpha P from c / (1 - alpha): the slow
    path ``chain._krylov`` replaced, kept as its oracle."""
    n = len(c)
    A = spla.LinearOperator((n, n), matvec=lambda v: v - alpha * apply_P(v), dtype=np.float64)
    kw = "rtol" if "rtol" in inspect.signature(spla.bicgstab).parameters else "tol"
    x, _ = spla.bicgstab(A, c, x0=c / (1.0 - alpha), atol=atol,
                         maxiter=chain.KRYLOV_MAXITER, **{kw: 1e-14})
    return x


def _assert_krylov_matches_scipy(apply_P, c, alpha, tol=1e-10):
    """Under solve_discounted's stop rule, chain._krylov's iterate lies
    within 1e-12 |V|_inf of scipy's and takes as many iterations, +-1."""
    n = len(c)
    atol = max(0.25 * tol * (1.0 + np.max(np.abs(c))), 1e-14 * np.linalg.norm(c))
    products = [0, 0]

    def counted(side):
        def apply(v):
            products[side] += 1
            return apply_P(v)
        return apply

    got = chain._krylov(counted(0), alpha, c, c / (1.0 - alpha), atol,
                        [np.empty(n) for _ in range(5)])
    expect = _scipy_bicgstab(counted(1), c, alpha, atol)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    # one product for the start's residual, then two per iteration, the
    # last perhaps stopping after its first
    its = [k // 2 for k in products]
    assert abs(its[0] - its[1]) <= 1, products


def _induced(build, config):
    mdp = build(config())
    policy = np.random.default_rng(4).integers(0, mdp.action_counts())
    apply_P, c = mdp.induced_apply(policy)
    return apply_P, c, mdp.discount


@pytest.mark.parametrize("case", ["reflecting_rw", "jrp_small", "hospital2"])
def test_krylov_matches_scipy_bicgstab(case):
    if case == "reflecting_rw":
        mrp = build_reflecting_rw(2000, 3)
        apply_P, c, alpha = mrp.P.csr.__matmul__, mrp.cost, mrp.discount
    elif case == "jrp_small":
        apply_P, c, alpha = _induced(build_jrp, jrp_small)
    else:
        apply_P, c, alpha = _induced(build_hospital, hospital_2ward)
    _assert_krylov_matches_scipy(apply_P, c, alpha)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.05, 1.0),
    st.floats(0.1, 0.999),
    st.integers(0, 2**32 - 1),
)
def test_krylov_matches_scipy_on_substochastic_chains(n, density, alpha, seed):
    rng = np.random.default_rng(seed)
    M = sparse.random(n, n, density=density, random_state=rng, format="csr")
    sums = np.asarray(M.sum(axis=1)).ravel()
    sums[sums == 0.0] = 1.0
    # row sums drawn in [0, 1]
    M = sparse.csr_matrix(sparse.diags(rng.random(n) / sums) @ M)
    _assert_krylov_matches_scipy(M.__matmul__, rng.uniform(0.0, 10.0, n), alpha)


def test_solve_memory_is_six_vectors_and_a_product():
    # x, r, r^, p, v, t and P's product; scipy's bicgstab behind a
    # LinearOperator peaked at ten n-vectors
    mrp = build_reflecting_rw(200_000, 0)
    n = mrp.lattice.size
    tracemalloc.start()
    try:
        solve_discounted(mrp.P, mrp.cost, mrp.discount)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 8 * n, f"peak {peak / (8 * n):.2f} n-vectors"


def test_exact_start_costs_two_products():
    # constant cost on a stochastic P: c / (1 - alpha) solves the system, so
    # the solve forms only the start's residual and the certificate's
    P, _ = orc.random_dense_chain(21, 60)
    P = sparse.csr_matrix(P)
    products = []

    def counted(v):
        products.append(1)
        return P @ v

    V = solve_discounted(counted, np.full(60, 3.0), 0.9)
    assert_allclose(V, 30.0, rtol=1e-13)
    assert len(products) == 2


# ---------------------------------------------------------------------------
# moments and jumps
# ---------------------------------------------------------------------------

def test_simple_rw_interior_moments():
    mrp = build_simple_rw(20, alpha=0.9)
    mom = local_moments(mrp)
    assert_allclose(mom.mu[1:-1, 0], 0.0, atol=1e-14)
    assert_allclose(mom.sigma2[1:-1, 0, 0], 1.0, atol=1e-14)
    # interior row applied to f(y)=y gives x back
    f = np.arange(21.0)
    assert_allclose(mrp.P.apply(f)[1:-1], f[1:-1], atol=1e-14)


def test_two_point_chain_moments():
    n = 20
    mrp = build_two_point_chain(n, alpha=0.9)
    mom = local_moments(mrp)
    x = np.arange(n + 1.0)
    assert_allclose(mom.mu[:, 0], 0.0, atol=1e-12)
    # E[X_1^2] = n x, so the centered second moment is n x - x^2
    assert_allclose(mom.sigma2[:, 0, 0], n * x - x**2, atol=1e-10)


def test_deterministic_shift_moments():
    lat = StateLattice((0, 0), (1, 1))
    P = np.zeros((4, 4))
    # every state steps +e1 (axis 0), clamped at the edge
    for i, (a, b) in enumerate(lat.all_states()):
        P[i, lat.to_index((min(a + 1, 1), b))] = 1.0
    mrp = MarkovRewardProcess(lat, RowStochasticMatrix(P), np.zeros(4), 0.9)
    mom = local_moments(mrp)
    assert_allclose(mom.mu[0], [1.0, 0.0])
    assert_allclose(mom.sigma2[0], [[1.0, 0.0], [0.0, 0.0]])


def test_moments_match_dense_oracle():
    states, P, c, alpha = orc.random_lattice_chain(21, (0, 0), (4, 4))
    lat = StateLattice((0, 0), (4, 4))
    mrp = MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)
    mom = local_moments(mrp)
    mu_ref, sig_ref = orc.dense_local_moments(P, states)
    assert_allclose(mom.mu, mu_ref, atol=1e-12)
    assert_allclose(mom.sigma2, sig_ref, atol=1e-10)


def test_centered_covariance_is_psd():
    _, P, c, alpha = orc.random_lattice_chain(22, (0, 0), (5, 5), max_jump=3)
    lat = StateLattice((0, 0), (5, 5))
    mrp = MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)
    mom = local_moments(mrp)
    for i in range(lat.size):
        cov = mom.sigma2[i] - np.outer(mom.mu[i], mom.mu[i])
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def test_max_jump_identity_and_rw():
    lat = StateLattice([0], [9])
    ident = MarkovRewardProcess(lat, RowStochasticMatrix.identity(10), np.zeros(10), 0.9)
    assert_allclose(max_jump(ident), 0.0)
    rw = build_simple_rw(20, alpha=0.9)
    assert max_jump(rw, 10) == 1.0
    jumps = max_jump(rw)
    assert_allclose(jumps[1:-1], 1.0)
    assert jumps[0] == 0.0 and jumps[-1] == 0.0


def test_max_jump_two_point_chain():
    n = 20
    mrp = build_two_point_chain(n, alpha=0.9)
    x = 7
    assert max_jump(mrp, x) == max(x, n - x)
    assert max_jump(mrp, np.array([x])) == max(x, n - x)


def test_max_jump_blocked_path_matches(monkeypatch):
    _, P, c, alpha = orc.random_lattice_chain(23, (0,), (30,), max_jump=4)
    lat = StateLattice([0], [30])
    mrp = MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)
    full = max_jump(mrp)
    monkeypatch.setattr(chain, "BLOCK_NNZ", 17)
    small_blocks = max_jump(mrp)
    assert small_blocks.tobytes() == full.tobytes()


# ---------------------------------------------------------------------------
# scaled value
# ---------------------------------------------------------------------------

def test_scaled_value_eps_zero_is_value():
    P, c = orc.random_dense_chain(31, 25)
    mrp = _chain_mrp(P, c, 0.9)
    assert_allclose(scaled_value(mrp, 0.0), exact_value(mrp), atol=1e-9)


def test_scaled_value_zero_cost():
    P, _ = orc.random_dense_chain(32, 25)
    mrp = _chain_mrp(P, np.zeros(25), 0.9)
    assert_allclose(scaled_value(mrp, 0.5), 0.0, atol=1e-12)


def test_scaled_value_matches_oracle():
    P, c = orc.random_dense_chain(33, 30)
    mrp = _chain_mrp(P, c, 0.9)
    norms = np.abs(np.arange(30.0))
    c_eps = c / (1.0 + norms) ** 0.5
    assert_allclose(
        scaled_value(mrp, 0.5), orc.value_power_series(P, c_eps, 0.9), atol=1e-8
    )


def test_scaled_value_rejects_bad_eps():
    P, c = orc.random_dense_chain(34, 10)
    with pytest.raises(ValueError):
        scaled_value(_chain_mrp(P, c, 0.9), 1.5)


# ---------------------------------------------------------------------------
# m-step utilities
# ---------------------------------------------------------------------------

def test_m_step_chain_m1_is_same_process():
    P, c = orc.random_dense_chain(41, 15)
    mrp = _chain_mrp(P, c, 0.9)
    assert m_step_chain(mrp, 1) is mrp


def test_m_step_chain_two_steps():
    P, c = orc.random_dense_chain(42, 20)
    mrp = _chain_mrp(P, c, 0.9)
    sub = m_step_chain(mrp, 2)
    assert_allclose(sub.P.toarray(), orc.two_step_rows(P), atol=1e-12)
    assert sub.discount == pytest.approx(0.81)
    rows = np.asarray(sub.P.csr.sum(axis=1)).ravel()
    assert_allclose(rows, 1.0, atol=1e-10)


def test_mstep_identity_m1_degenerates():
    P, c = orc.random_dense_chain(43, 20)
    assert verify_mstep_identity(_chain_mrp(P, c, 0.9), 1) == 0.0


@pytest.mark.parametrize("m,alpha", [(2, 0.9), (3, 0.95)])
def test_mstep_identity_small_violation(m, alpha):
    P, c = orc.random_dense_chain(44 + m, 20)
    mrp = _chain_mrp(P, c, alpha)
    assert verify_mstep_identity(mrp, m) <= 1e-8
    # agrees with the all-dense oracle
    assert verify_mstep_identity(mrp, m) == pytest.approx(
        orc.mstep_identity_violation(P, c, alpha, m), abs=1e-8
    )


# ---------------------------------------------------------------------------
# one-step deviations
# ---------------------------------------------------------------------------

def test_delta_zero_for_equal_kernels():
    P, _ = orc.random_dense_chain(51, 25)
    M = RowStochasticMatrix(P)
    f = np.random.default_rng(0).random(25)
    assert delta_at(M, M, f).max() == 0.0


def test_delta_zero_for_constant_f():
    P, _ = orc.random_dense_chain(52, 25)
    Q, _ = orc.random_dense_chain(53, 25)
    assert delta_at(RowStochasticMatrix(P), RowStochasticMatrix(Q), np.full(25, 3.7)).max() <= 1e-12


def test_delta_first_moment_example_pair():
    # the absorbing walk and its two-point reduction share first moments
    n = 20
    walk = build_simple_rw(n, alpha=0.9)
    two = build_two_point_chain(n, alpha=0.9)
    f = np.arange(n + 1.0)
    per_state = delta_at(walk.P, two.P, f)
    assert per_state.max() <= 1e-12
    assert per_state.shape == (n + 1,)


def test_delta_rejects_matrix_valued_f():
    P, _ = orc.random_dense_chain(54, 10)
    M = RowStochasticMatrix(P)
    with pytest.raises(ValueError):
        delta_at(M, M, np.ones((10, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma1_value_perturbation_bound(seed):
    """|V - V~|_inf <= alpha/(1-alpha) (delta_V + delta_V~) on random pairs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    P, c = orc.random_dense_chain(seed, n)
    Q, _ = orc.random_dense_chain(seed + 1_000_000, n)
    alpha = float(rng.choice([0.8, 0.9, 0.95]))
    V = orc.dense_value(P, c, alpha)
    Vt = orc.dense_value(Q, c, alpha)
    lhs = np.max(np.abs(V - Vt))
    MP, MQ = RowStochasticMatrix(P), RowStochasticMatrix(Q)
    rhs = alpha / (1 - alpha) * (delta_at(MP, MQ, V).max() + delta_at(MP, MQ, Vt).max())
    assert lhs <= rhs + 1e-8
