"""First-moment-exact aggregation onto a coarse grid.

Every lattice state y is written as a convex combination of the corners
of its smallest enclosing grid box, with multilinear weights

    g_{y,l} = prod_i  w_i,   w_i = (y_i - s_i)/(S_i - s_i)  or its complement,

so that sum_l g_{y,l} x_l = y exactly.  Stacking the rows gives the N x L
aggregation matrix G; together with the binary selector U it defines the
sister chain P~ = P G U, which shares every local first moment with P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import chain
from .chain import MarkovRewardProcess, RowStochasticMatrix, max_jump
from .grid import CoarseGrid, build_U

__all__ = [
    "AggregationScheme",
    "SecondMomentReport",
    "weights",
    "build_G",
    "build_scheme",
    "mstep_scheme",
    "lifted_chain",
    "first_moment_gap",
    "second_moment_gap",
]


def _bracket(axis_values, y, *, clamp):
    """Per-axis bracketing: indices (lo, hi) with v[lo] <= y <= v[hi] and
    interpolation fraction t in [0, 1]; degenerate hits give lo == hi, t = 0.

    Without ``clamp``, a target within rounding of the hull is clipped onto
    it and one further out raises: an m-step target is a mean of lattice
    states, which can round just past the box edge but not further."""
    v = axis_values.astype(np.float64)
    y = np.array(y, dtype=np.float64)  # a copy, clipped in place
    slack = 1e-9 * max(1.0, abs(v[0]), abs(v[-1]))
    if not clamp and (np.any(y < v[0] - slack) or np.any(y > v[-1] + slack)):
        raise ValueError("target lies outside the grid hull")
    np.clip(y, v[0], v[-1], out=y)
    hi = np.searchsorted(v, y, side="left")
    v_hi = v[hi]
    exact = v_hi == y
    lo = np.where(exact, hi, hi - 1)
    v_lo = v[lo]
    t = (y - v_lo) / np.where(exact, 1.0, v_hi - v_lo)
    return lo, hi, t


def _interp_factor(axis, y, clamp):
    """CSR of the 1-D interpolation weights of the reals y on one grid axis:
    1.0 at an exact grid hit, else (1 - t, t) at (lo, lo + 1)."""
    lo, hi, t = _bracket(axis, y, clamp=clamp)
    two = lo != hi  # rows with a second entry, (hi, t)
    indptr = np.arange(len(y) + 1)
    indptr[1:] += np.cumsum(two)
    first, second = indptr[:-1], indptr[:-1][two] + 1
    cols, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    cols[first], data[first] = lo, 1.0 - t
    cols[second], data[second] = hi[two], t[two]
    return sparse.csr_matrix((data, cols, indptr), shape=(len(y), len(axis)))


def _interp_rows(grid, values, rows, *, clamp=False):
    """CSR of the multilinear weights of the points (values[j][rows[j][i]])_j:
    ``chain.row_kron`` of the ``_interp_factor`` of each axis, whose
    temporaries are freed, with its frame, before the product is built."""
    if len(values) != grid.lattice.dims:
        raise ValueError("point dimension does not match the grid")
    factors = [_interp_factor(axis, y, clamp) for axis, y in zip(grid.axes, values)]
    return chain.row_kron(factors, rows)


def weights(grid, point, *, clamp=False):
    """Multilinear corner weights of one point, as {meta_index: weight}.

    The keys are the corners of the smallest grid box enclosing the point;
    axes on which it hits a grid value collapse to one corner.  The point
    may be fractional (an m-step target E_y[X_{m-1}]); with ``clamp`` it is
    clipped into the grid hull instead of raising.
    """
    row = _interp_rows(grid, np.reshape(point, (-1, 1)), [[0]] * grid.lattice.dims, clamp=clamp)
    return {int(c): float(w) for c, w in zip(row.indices, row.data)}


def build_G(grid):
    """N x L aggregation matrix: row y holds the corner weights of y, from
    per-axis factors over the lattice values, picked by y's coordinates."""
    values = [np.arange(lo, up + 1) for lo, up in zip(grid.lattice.lower, grid.lattice.upper)]
    offsets = np.unravel_index(np.arange(grid.lattice.size), grid.lattice.shape)
    return RowStochasticMatrix(_interp_rows(grid, values, offsets))


@dataclass(frozen=True)
class AggregationScheme:
    """Grid plus the (U, G) pair: L x N selector and N x L weight matrix."""

    grid: CoarseGrid
    U: RowStochasticMatrix
    G: RowStochasticMatrix

    def __post_init__(self):
        N, L = self.grid.lattice.size, self.grid.size
        if self.U.shape != (L, N):
            raise ValueError(f"U must be {L}x{N}, got {self.U.shape}")
        if self.G.shape != (N, L):
            raise ValueError(f"G must be {N}x{L}, got {self.G.shape}")


def build_scheme(grid):
    """Bundle U and G for a coarse grid."""
    return AggregationScheme(grid=grid, U=build_U(grid), G=build_G(grid))


def mstep_scheme(mrp, grid, m, *, clamp=False):
    """Scheme whose G matches the first moment at time m-1.

    Row y interpolates at E_y[X_{m-1}], so the lifted chain's one step
    reproduces the first moment of m steps of P.
    """
    if m < 1 or m != int(m):
        raise ValueError("m must be an integer >= 1")
    targets = mrp.lattice.all_states().astype(np.float64)
    for _ in range(int(m) - 1):
        targets = mrp.P.apply(targets)
    rows = [np.arange(len(targets))] * grid.lattice.dims
    G = RowStochasticMatrix(_interp_rows(grid, targets.T, rows, clamp=clamp))
    return AggregationScheme(grid=grid, U=build_U(grid), G=G)


class SisterChain:
    """The lifted chain P~ = P G U, kept in operator form.

    ``apply`` chains the three sparse products; ``materialize`` builds the
    explicit matrix, refused before it is formed when it may hold more than
    ``chain.NNZ_BUDGET`` entries.
    """

    def __init__(self, base, scheme):
        if scheme.grid.lattice != base.lattice:
            raise ValueError("scheme and process live on different lattices")
        self.base = base
        self.scheme = scheme
        self._matrix = None

    @property
    def lattice(self):
        return self.base.lattice

    def apply(self, f):
        parts = self.scheme.U.apply(f)
        return self.base.P.apply(self.scheme.G.apply(parts))

    def materialize(self):
        """P G U as a sparse N x N row-stochastic matrix (built once)."""
        if self._matrix is None:
            P, G = self.base.P.csr, self.scheme.G.csr
            chain.check_product_budget(P, G, "the lifted chain")
            M = P @ G
            # right-multiplying by the binary U just routes meta column l to
            # the lattice column of representative l (rep indices increase
            # with l, so the CSR stays sorted)
            cols = np.asarray(self.scheme.grid.rep_indices)[M.indices]
            n = self.lattice.size
            self._matrix = RowStochasticMatrix(
                sparse.csr_matrix((M.data, cols, M.indptr), shape=(n, n))
            )
        return self._matrix

    def to_mrp(self):
        """The sister process <lattice, P~, c, alpha> with P~ materialized."""
        return MarkovRewardProcess(
            self.base.lattice, self.materialize(), self.base.cost, self.base.discount
        )

    def __repr__(self):
        return f"SisterChain(N={self.lattice.size}, L={self.scheme.grid.size})"


def lifted_chain(mrp, scheme, *, materialize=False):
    """Sister chain of a Markov reward process under an aggregation scheme."""
    sister = SisterChain(mrp, scheme)
    if materialize:
        sister.materialize()
    return sister


def first_moment_gap(sister):
    """sup_x || P~W1(x) - PW1(x) ||_2 where W1 is the coordinate map.

    Zero (to rounding) by construction; the companion of the exactness
    guarantee sum_l g_{y,l} x_l = y.
    """
    states = sister.lattice.all_states().astype(np.float64)
    diff = sister.apply(states) - sister.base.P.apply(states)
    return float(np.max(np.linalg.norm(diff, axis=1)))


@dataclass(frozen=True)
class SecondMomentReport:
    """Second-moment mismatch of the sister chain.

    ``per_state`` holds the Frobenius norms
    || sum_l (PG)_{x,l} x_l x_l^T - PW2(x) ||_F, ``normalized`` divides by
    (1 + ||x|| + Delta_x)^e.  The spacing exponent s (the bound statement's
    exponent) and the normalization exponent e (default 2s, the exponent
    the grid-gap calculation produces) are both recorded.
    """

    per_state: np.ndarray
    normalized: np.ndarray
    sup: float
    sup_normalized: float
    spacing_exponent: float
    normalization_exponent: float


def second_moment_gap(sister, *, exponent=None):
    """Per-state second-moment mismatch of the sister chain, raw and
    normalized by (1 + ||x|| + Delta_x)^exponent."""
    grid = sister.scheme.grid
    s = grid.spacing_exponent
    if exponent is None:
        if s is None:
            raise ValueError(
                "grid has no spacing exponent; pass exponent= explicitly"
            )
        exponent = 2.0 * s
    lattice = sister.lattice
    states = lattice.all_states().astype(np.float64)
    n, d = states.shape
    W2 = (states[:, :, None] * states[:, None, :]).reshape(n, d * d)
    # PG applied to the rep-state outer products, without forming PG
    rep_W2 = W2[grid.rep_indices]
    lifted = sister.base.P.apply(sister.scheme.G.apply(rep_W2))
    mismatch = np.linalg.norm(lifted - sister.base.P.apply(W2), axis=1)
    delta = max_jump(sister.base)
    norms = np.linalg.norm(states, axis=1)
    normalized = mismatch / (1.0 + norms + delta) ** exponent
    return SecondMomentReport(
        per_state=mismatch,
        normalized=normalized,
        sup=float(np.max(mismatch)),
        sup_normalized=float(np.max(normalized)),
        spacing_exponent=float(s) if s is not None else float("nan"),
        normalization_exponent=float(exponent),
    )
