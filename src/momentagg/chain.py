"""Markov reward processes: sparse stochastic matrices, exact values,
local transition moments, maximal jumps, and m-step utilities.

A process is the tuple ``<lattice, P, c, alpha>`` whose value function
solves ``(I - alpha P) V = c``.  Every discounted system, full-size or
the L x L aggregate one, is solved iteratively (Bi-CGSTAB, then
Richardson iteration if needed), and every solve is certified by its
infinity-norm residual and the a-priori bound on the value.  Both stages
are one loop here over six n-vectors allocated once per solve and
updated in place by BLAS level-1 calls; the only other n-vector a step
makes is the product P v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np
from scipy import sparse
from scipy.linalg.blas import daxpy, ddot, dscal

from .lattice import StateLattice

__all__ = [
    "NumericalError",
    "ResourceLimitError",
    "RowStochasticMatrix",
    "KronRows",
    "MarkovRewardProcess",
    "LocalMoments",
    "solve_discounted",
    "exact_value",
    "local_moments",
    "max_jump",
    "scaled_value",
    "m_step_chain",
    "verify_mstep_identity",
    "delta_at",
]

#: probabilities below this are dropped at construction, rows renormalized
PROB_DROP = 1e-15
#: absolute tolerance on row sums at validation time
ROWSUM_TOL = 1e-12
#: most kernel-row entries ``max_jump`` reads at once, about 6 MB of
#: values and columns
BLOCK_NNZ = 500_000
#: most Bi-CGSTAB iterations (two products each) per ``solve_discounted``,
#: about ten times the most any benchmark solve took (2-core VM): 36 on
#: jrp_small, jrp_large and hospital2/3/4 at alpha 0.99, 43 on jrp_small at
#: 0.99999, 47 on the 10^6-state reflecting walk at 0.95
KRYLOV_MAXITER = 500
#: most entries any materialization may hold (about 1 GB of CSR); matrix
#: powers, the lifted chain and induced kernels that may pass it raise
#: ResourceLimitError before they are built
NNZ_BUDGET = 80_000_000


class NumericalError(RuntimeError):
    """A linear solve failed to reach its required residual.

    Attributes
    ----------
    residual : float or None
        The infinity-norm residual actually achieved.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(RuntimeError):
    """A materialization would exceed ``NNZ_BUDGET``."""


class RowStochasticMatrix:
    """Sparse row-major matrix whose rows are probability distributions.

    Entries below ``PROB_DROP`` are dropped and rows renormalized; rows
    must sum to one within ``ROWSUM_TOL`` before renormalization and
    contain no negative mass.  Column indices are kept sorted.  A CSR
    argument is never written to, nor are its arrays kept.

    Parameters
    ----------
    matrix : scipy sparse / dense array_like
    """

    __slots__ = ("csr",)

    def __init__(self, matrix):
        # only CSR input can lend M its arrays; they are never written to
        shared = sparse.issparse(matrix) and matrix.format == "csr"
        self._validate(sparse.csr_matrix(matrix, dtype=np.float64), shared)

    @classmethod
    def _adopt(cls, matrix):
        """The package's own route for a CSR it has just built and that no
        caller holds: the constructor's checks, with the arrays kept (and
        rescaled in place) instead of copied."""
        P = cls.__new__(cls)
        P._validate(sparse.csr_matrix(matrix, dtype=np.float64), False)
        return P

    def _validate(self, M, shared):
        if not M.has_canonical_format:
            # sort columns and sum duplicates, in a copy
            M = M.copy()
            M.sum_duplicates()
            shared = False
        lowest = float(M.data.min()) if M.nnz else 1.0
        if not lowest >= 0.0:  # NaN fails it too
            raise ValueError("negative or NaN transition probability")
        if not np.diff(M.indptr).all():
            raise ValueError("rows must sum to 1 (a row is empty)")
        # one pass over the entries, segment by segment as scipy's sum does;
        # reduceat would read an empty segment as its next entry
        sums = np.add.reduceat(M.data, M.indptr[:-1])
        exact = np.all(sums == 1.0)  # then no deviation to measure
        if not (exact or np.all(np.abs(sums - 1.0) <= ROWSUM_TOL)):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"rows must sum to 1 (worst deviation {worst:.3e})")
        data, indices, indptr = M.data, M.indices, M.indptr
        if lowest < PROB_DROP:
            keep = data >= PROB_DROP
            # each row start moves back by the entries dropped before it
            indptr = indptr - np.searchsorted(np.flatnonzero(~keep), indptr)
            M = sparse.csr_matrix((data[keep], indices[keep], indptr), shape=M.shape)
            data, indices, indptr = M.data, M.indices, M.indptr
            # no row empties: a row summing to about one keeps its largest entry
            sums = np.add.reduceat(data, indptr[:-1])
            exact = np.all(sums == 1.0)
            shared = False
        # renormalize exactly (post-drop sums are within n*1e-15 of one);
        # rows that already sum to exactly one would be multiplied by ones
        scale = None if exact else np.repeat(1.0 / sums, np.diff(indptr))
        if shared:
            data = data.copy() if scale is None else data * scale
            indices, indptr = indices.copy(), indptr.copy()
        elif scale is not None:
            data *= scale
        M = sparse.csr_matrix((data, indices, indptr), shape=M.shape)
        M.has_canonical_format = True  # columns ascend, no duplicates
        self.csr = M

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, data, shape):
        """Build from triplets; duplicate entries are summed (this is how
        boundary-clamped mass is accumulated)."""
        M = sparse.coo_matrix((data, (rows, cols)), shape=shape)
        return cls(M)

    @classmethod
    def identity(cls, n):
        return cls(sparse.identity(n, format="csr"))

    # -- basic queries --------------------------------------------------------

    @property
    def shape(self):
        return self.csr.shape

    @property
    def n_rows(self):
        return self.csr.shape[0]

    @property
    def n_cols(self):
        return self.csr.shape[1]

    @property
    def nnz(self):
        return self.csr.nnz

    def row(self, i):
        """(columns, probabilities) of row i."""
        lo, hi = self.csr.indptr[i], self.csr.indptr[i + 1]
        return self.csr.indices[lo:hi], self.csr.data[lo:hi]

    def take_rows(self, indices):
        """Row slice as a new RowStochasticMatrix (e.g. the L x N P-bar)."""
        # scipy's row indexing returns new arrays
        return RowStochasticMatrix._adopt(self.csr[np.asarray(indices)])

    def toarray(self):
        return self.csr.toarray()

    # -- algebra ---------------------------------------------------------------

    def apply(self, f):
        """(P f)(x) = sum_y p_xy f(y);  f of shape (n_cols,) or (n_cols, k)."""
        f = np.asarray(f, dtype=np.float64)
        if f.shape[0] != self.n_cols:
            raise ValueError(
                f"operand of length {f.shape[0]} against {self.n_cols} columns"
            )
        return self.csr @ f

    def power(self, m):
        """Exact sparse m-step matrix; each product is refused before it is
        formed when it may exceed ``NNZ_BUDGET`` entries."""
        if m < 1 or m != int(m):
            raise ValueError("power requires integer m >= 1")
        if self.n_rows != self.n_cols:
            raise ValueError("power of a non-square matrix")
        out = self.csr.copy()
        for _ in range(int(m) - 1):
            check_product_budget(out, self.csr, "the matrix power")
            out = out @ self.csr
        return RowStochasticMatrix._adopt(out)

    def __repr__(self):
        return f"RowStochasticMatrix(shape={self.shape}, nnz={self.nnz})"


def check_product_budget(A, B, what):
    """Refuse the sparse product A @ B before it is formed when its rows,
    each at most min(sum over y in supp A_x of nnz(B_y), n_cols(B)) long,
    may hold more than ``NNZ_BUDGET`` entries."""
    reach = np.concatenate(([0], np.cumsum(np.diff(B.indptr)[A.indices])))[A.indptr]
    nnz = int(np.minimum(np.diff(reach), B.shape[1]).sum())
    if nnz > NNZ_BUDGET:
        raise ResourceLimitError(f"{what} needs up to {nnz} entries (budget {NNZ_BUDGET})")


def index_dtype(bound):
    """The index dtype of a CSR whose shape, columns and entry count all
    stay within ``bound``: int32 when it fits, as scipy would downcast to."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def row_blocks(indptr, budget):
    """Consecutive row ranges (start, stop) covering a CSR-style ``indptr``
    of row ends: each block ends at the last row end within ``budget``
    entries of its start, and a row over budget is a block of its own."""
    blocks, row = [], 0
    while row < len(indptr) - 1:
        end = int(indptr[row]) + budget
        stop = max(int(np.searchsorted(indptr, end, side="right")) - 1, row + 1)
        blocks.append((row, stop))
        row = stop
    return blocks


def row_kron(factors, rows):
    """Row-wise Kronecker product: the CSR whose row i is ⊗_j F_j[rows[j][i]],
    axis 0 most significant in the columns, for canonical CSR factors F_j.
    Each entry expands over the stored entries of its next factor row, whose
    columns it gathers from ``F.indices``; zero products are dropped.
    Values multiply axis 0 first and each row's columns ascend, so the CSR
    is canonical as built."""
    n_cols = int(np.prod([F.shape[1] for F in factors]))
    # 32-bit columns when they fit (scipy would downcast them anyway)
    itype = index_dtype(n_cols)
    head = factors[0][np.asarray(rows[0])]  # axis 0 alone is a row gather
    cols, vals = head.indices.astype(itype, copy=False), head.data
    sizes = np.diff(head.indptr).astype(np.int64)  # entries per row so far
    for F, r in zip(factors[1:], rows[1:]):
        # each entry expands over its factor row's entries, t_idx indexing
        # them; the large temporaries stay 32-bit and are freed once used
        width = np.diff(F.indptr)
        rj = np.repeat(r, sizes)
        k = width[rj]
        start = np.cumsum(k) - k
        t_idx = np.repeat((F.indptr[rj] - start).astype(itype), k)
        t_idx += np.arange(len(t_idx), dtype=itype)
        cols = np.repeat((cols * F.shape[1]).astype(itype, copy=False), k)
        cols += F.indices[t_idx]
        t_val = F.data[t_idx]
        del t_idx
        t_val *= np.repeat(vals, k)
        vals = t_val
        sizes *= width[r]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    keep = vals != 0.0
    if not keep.all():
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        cols, vals = cols[keep], vals[keep]
    return sparse.csr_matrix((vals, cols, indptr), shape=(len(sizes), n_cols))


def contract(mats, X):
    """(⊗_j M_j) X for an array X: one product with ``mats[j]`` along axis
    j, axis 0 first, sparse M_j kept sparse; the result is C-contiguous.

    Axis j is brought to the front and put back by ``transpose`` with
    fixed permutations, the views ``np.moveaxis`` makes without its checks,
    so each product sees the same operands."""
    d = X.ndim
    for j, M in enumerate(mats):
        X = X.transpose(j, *range(j), *range(j + 1, d))
        rest = X.shape[1:]
        X = (M @ X.reshape(len(X), -1)).reshape(M.shape[0], *rest)
        X = X.transpose(*range(1, j + 1), 0, *range(j + 1, d))
    return np.ascontiguousarray(X)


class KronRows:
    """Stacked rows ⊗_j F_j[w_j] of per-axis factors, kept factored: one row
    per flat index w into the box of the factors' row counts (a post-decision
    model's flat post points).

    ``apply`` contracts a vector with the factors over the whole factor box
    and gathers the rows, forming none; ``times`` composes the rows with
    per-axis matrices on the right.  ``matrix`` forms them once, as the
    RowStochasticMatrix of ``row_kron`` over the factors as CSR, which
    ``csr`` and ``nnz`` read; ``sizes`` counts its entries beforehand.
    Only the flat indices are kept; ``rows`` unravels them when read.
    """

    def __init__(self, factors, posts):
        self.factors, self.posts = list(factors), np.asarray(posts)
        self.shape = len(self.posts), int(np.prod([F.shape[1] for F in self.factors]))

    @property
    def rows(self):
        return np.unravel_index(self.posts, [F.shape[0] for F in self.factors])

    def apply(self, f):
        X = np.asarray(f, dtype=np.float64).reshape([F.shape[1] for F in self.factors])
        return contract(self.factors, X).ravel()[self.posts]

    def times(self, mats):
        """These rows times ⊗_j mats[j] for sparse M_j: the factors F_j M_j,
        sparse where F_j is, or F ⊗_j M_j for one factor F whose columns span
        every axis.  (Dense products of jrp_large's size run on OpenBLAS
        threads, which stalled 10-28 ms each on a busy 2-core VM.)"""
        if len(self.factors) == 1:
            mats = [reduce(partial(sparse.kron, format="csr"), mats)]
        return KronRows([F @ M for F, M in zip(self.factors, mats)], self.posts)

    @cached_property
    def _csr(self):
        return [sparse.csr_matrix(F) for F in self.factors]

    def sizes(self):
        """Entries ``row_kron`` forms per row: the product of its factor
        rows' stored entries."""
        return np.prod([np.diff(F.indptr)[r] for F, r in zip(self._csr, self.rows)], axis=0)

    @cached_property
    def matrix(self):
        return RowStochasticMatrix._adopt(row_kron(self._csr, self.rows))

    @property
    def csr(self):
        return self.matrix.csr

    @property
    def nnz(self):
        return self.matrix.nnz


@dataclass(frozen=True)
class MarkovRewardProcess:
    """Discounted Markov reward process ``<lattice, P, cost, discount>``."""

    lattice: StateLattice
    P: RowStochasticMatrix
    cost: np.ndarray
    discount: float

    def __post_init__(self):
        n = self.lattice.size
        if self.P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {self.P.shape}")
        cost = np.asarray(self.cost, dtype=np.float64).copy()
        if cost.shape != (n,):
            raise ValueError("cost must be a length-N vector")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost entries must be finite")
        if np.any(cost < 0):
            raise ValueError("cost entries must be nonnegative")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")


@dataclass(frozen=True)
class LocalMoments:
    """Per-state drift ``mu`` (N, d) and second moment ``sigma2`` (N, d, d)."""

    mu: np.ndarray
    sigma2: np.ndarray


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def _apply_of(P):
    """Matrix-vector product for the accepted operator forms."""
    if isinstance(P, RowStochasticMatrix):
        m = P.csr
        return (lambda v: m @ v), m.shape[0]
    if sparse.issparse(P):
        m = P.tocsr()
        return (lambda v: m @ v), m.shape[0]
    if callable(P):
        return P, None
    m = np.asarray(P, dtype=np.float64)
    return (lambda v: m @ v), m.shape[0]


#: Bi-CGSTAB's breakdown threshold on |rho| and |omega| (scipy's and the
#: original Fortran's: eps squared)
BREAKDOWN = np.finfo(np.float64).eps ** 2


def _product(apply_P, u, base, a, out):
    """``out = base + a P u`` in place; returns the array holding it."""
    Pu = apply_P(u)
    if np.shape(Pu) != out.shape:
        raise ValueError(f"operator returned shape {np.shape(Pu)} for length {len(out)}")
    out[:] = base
    return daxpy(Pu, out, a=a)  # f2py hands back a copy of a nonconforming out


def _krylov(apply_P, alpha, b, x, atol, work):
    """Unpreconditioned Bi-CGSTAB (van der Vorst 1992; Barrett et al. 1994,
    §2.3.8) for ``(I - alpha P) x = b``, from ``x`` and in place.

    ``work`` holds five n-vectors, used as r, r^, p, v and t (s shares r's).
    It stops as scipy's ``bicgstab`` does: once ``||r||_2 < atol``, on a
    breakdown (|rho| or |omega| under ``BREAKDOWN``, or r^ orthogonal to
    v), or after ``KRYLOV_MAXITER`` iterations, and returns the iterate.
    Returns None if the arithmetic or the operator raises an
    ArithmeticError or a ValueError; any other exception propagates.
    """
    r, rhat, p, v, t = work

    def norm(u):
        return math.sqrt(ddot(u, u))

    try:
        r = _product(apply_P, x, b, alpha, r)
        r = daxpy(x, r, a=-1.0)  # r = b - (x - alpha P x)
        rhat[:] = r
        for it in range(KRYLOV_MAXITER):
            if norm(r) < atol:
                return x
            rho = ddot(rhat, r)
            if abs(rho) < BREAKDOWN:
                return x
            if it == 0:
                p[:] = r
            else:
                if abs(omega) < BREAKDOWN:
                    return x
                p = daxpy(v, p, a=-omega)
                p = dscal((rho / rho_prev) * (step / omega), p)
                p = daxpy(r, p)
            v = _product(apply_P, p, p, -alpha, v)
            rv = ddot(rhat, v)
            if rv == 0.0:
                return x
            step = rho / rv
            r = daxpy(v, r, a=-step)  # r now holds s
            if norm(r) < atol:
                return daxpy(p, x, a=step)
            t = _product(apply_P, r, r, -alpha, t)
            omega = ddot(t, r) / ddot(t, t)  # t = 0 raises ZeroDivisionError
            x = daxpy(p, x, a=step)
            x = daxpy(r, x, a=omega)
            r = daxpy(t, r, a=-omega)
            rho_prev = rho
    except (ArithmeticError, ValueError):  # np.linalg.LinAlgError is a ValueError
        return None
    return x


def solve_discounted(P, c, alpha, *, tol=1e-10):
    """Solve ``(I - alpha P) V = c``: Bi-CGSTAB from ``c / (1 - alpha)``,
    then, if its iterate misses the target, Richardson iteration from
    whichever of the two has the smaller residual.

    Parameters
    ----------
    P : RowStochasticMatrix, scipy sparse matrix, dense array, or callable
        Nonnegative with row sums at most one.  In callable form, ``P(v)``
        must return the matrix-vector product, of the shape of ``v``.
    c : (n,) cost vector
    alpha : discount in (0, 1)
    tol : positive; V is returned only if ``||c + alpha P V - V||_inf <=
        tol (1 + ||c||_inf) = r`` and ``||V||_inf <= (||c||_inf + r) /
        (1 - alpha)``, a bound every such V meets when P is as above; it
        refuses a huge V whose residual cancels in rounding.

    Raises
    ------
    NumericalError
        If the residual or the bound is not met.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("discount must lie in (0, 1)")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c = np.ascontiguousarray(c, dtype=np.float64)
    apply_P, n = _apply_of(P)
    n = c.shape[0] if n is None else n
    if c.shape != (n,):
        raise ValueError("cost vector length mismatch")

    c_max = float(np.max(np.abs(c)))
    if not np.isfinite(c_max):
        raise ValueError("cost vector must be finite")
    target = tol * (1.0 + c_max)
    # the n-vectors of both stages and of the certificate, allocated once
    work = [np.empty(n) for _ in range(5)]

    def residual(V):
        d = _product(apply_P, V, c, alpha, work[1])
        d -= V
        return float(np.max(np.abs(d, out=d)))

    # scipy's bicgstab stop rule, at a quarter of the target
    atol = max(0.25 * target, 1e-14 * math.sqrt(ddot(c, c)))
    V = _krylov(apply_P, alpha, c, c / (1.0 - alpha), atol, work)
    r = np.inf if V is None else residual(V)
    if not r <= target:
        # the start is exact for constant cost, decent otherwise
        x0 = np.divide(c, 1.0 - alpha, out=work[0])
        r0 = residual(x0)
        if not r < r0:  # also when the iterate is NaN
            V, r = x0, r0
        # residuals shrink by alpha per step when P is as documented
        steps = min(np.ceil(np.log(target / r) / np.log(alpha)) + 50, 2_000_000)
        W, d = work[2], work[1]
        for _ in range(int(steps)):
            W = _product(apply_P, V, c, alpha, W)
            np.subtract(W, V, out=d)
            r = float(np.max(np.abs(d, out=d)))  # V's residual
            if r <= target:
                break
            V, W = W, V

    # the bound is taken at the target: at the residual, rounding could put
    # an exact V an ulp past it
    size, bound = float(np.max(np.abs(V))), (c_max + target) / (1.0 - alpha)
    if r <= target and size <= bound:
        return V
    raise NumericalError(
        f"discounted solve stalled at residual {r:.3e} (required {target:.3e}), "
        f"|V|_inf {size:.3e} (bound {bound:.3e})",
        residual=r,
    )


def exact_value(mrp, *, tol=1e-10):
    """Value function V = (I - alpha P)^-1 c of a Markov reward process."""
    return solve_discounted(mrp.P, mrp.cost, mrp.discount, tol=tol)


# ---------------------------------------------------------------------------
# moments and jumps
# ---------------------------------------------------------------------------

def local_moments(mrp):
    """First and second local transition moments of every state."""
    states = mrp.lattice.all_states().astype(np.float64)
    n, d = states.shape
    m1 = mrp.P.apply(states)                      # E_x[X_1]
    mu = m1 - states
    # E_x[X_1 X_1^T] via the d^2 pairwise coordinate products
    prods = (states[:, :, None] * states[:, None, :]).reshape(n, d * d)
    m2 = mrp.P.apply(prods).reshape(n, d, d)
    sigma2 = (
        m2
        - states[:, :, None] * m1[:, None, :]
        - m1[:, :, None] * states[:, None, :]
        + states[:, :, None] * states[:, None, :]
    )
    return LocalMoments(mu=mu, sigma2=sigma2)


def max_jump(mrp, x=None):
    """Maximal supported jump distance Delta_x = max_y ||y - x||_2.

    With ``x`` given (flat index or coordinate vector) returns a scalar;
    otherwise the full per-state vector, ``BLOCK_NNZ`` entries at a time.
    """
    lattice = mrp.lattice
    states = lattice.all_states().astype(np.float64)
    csr = mrp.P.csr
    if x is not None:
        ix = x if np.isscalar(x) or np.asarray(x).ndim == 0 else lattice.to_index(x)
        cols, _ = mrp.P.row(int(ix))
        return float(np.max(np.linalg.norm(states[cols] - states[int(ix)], axis=1)))
    out = np.zeros(lattice.size)
    indptr = csr.indptr
    for row, stop in row_blocks(indptr, BLOCK_NNZ):
        lo, hi = indptr[row], indptr[stop]
        owners = np.repeat(np.arange(row, stop), np.diff(indptr[row:stop + 1]))
        norms = np.linalg.norm(states[csr.indices[lo:hi]] - states[owners], axis=1)
        seg_starts = indptr[row:stop] - lo
        out[row:stop] = np.maximum.reduceat(norms, seg_starts)
    return out


def scaled_value(mrp, eps, *, tol=1e-10):
    """Value of the norm-scaled cost c(x) / (1 + ||x||)^eps."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    norms = np.linalg.norm(mrp.lattice.all_states().astype(np.float64), axis=1)
    c_eps = mrp.cost / (1.0 + norms) ** eps
    return solve_discounted(mrp.P, c_eps, mrp.discount, tol=tol)


# ---------------------------------------------------------------------------
# m-step utilities
# ---------------------------------------------------------------------------

def m_step_chain(mrp, m):
    """Process watched every m steps: transition P^m, discount alpha^m."""
    if m < 1 or m != int(m):
        raise ValueError("m must be an integer >= 1")
    m = int(m)
    if m == 1:
        return mrp
    Pm = mrp.P.power(m)
    return MarkovRewardProcess(mrp.lattice, Pm, mrp.cost, mrp.discount**m)


def verify_mstep_identity(mrp, m, *, tol=1e-11):
    """Max violation of the m-step subsampling identity.

    Computes V and V^m by independent solves and returns
    ``max_x |V^m(x) - [V(x) - sum_k alpha^k (P^k V^m - V^m)(x)] / (1 + sum_k alpha^k)|``
    with k running over 1..m-1.
    """
    if m < 1 or m != int(m):
        raise ValueError("m must be an integer >= 1")
    m = int(m)
    V = exact_value(mrp, tol=tol)
    if m == 1:
        return 0.0
    sub = m_step_chain(mrp, m)
    Vm = solve_discounted(sub.P, sub.cost, sub.discount, tol=tol)
    alpha = mrp.discount
    correction = np.zeros_like(Vm)
    denom = 1.0
    PkVm = Vm
    for k in range(1, m):
        PkVm = mrp.P.apply(PkVm)
        correction += alpha**k * (PkVm - Vm)
        denom += alpha**k
    rhs = (V - correction) / denom
    return float(np.max(np.abs(Vm - rhs)))


# ---------------------------------------------------------------------------
# one-step deviations
# ---------------------------------------------------------------------------

def _operand_apply(P):
    if hasattr(P, "apply"):
        return P.apply
    apply_P, _ = _apply_of(P)
    return apply_P


def delta_at(P, P_tilde, f):
    """Per-state deviation |P~f(x) - Pf(x)| for a scalar function f."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("delta is defined for scalar functions of the state")
    a = _operand_apply(P)(f)
    b = _operand_apply(P_tilde)(f)
    if a.shape != b.shape:
        raise ValueError("operand shapes disagree")
    return np.abs(b - a)

