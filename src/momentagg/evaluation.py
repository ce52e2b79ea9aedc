"""Fixed-policy evaluation through the aggregate system.

Instead of solving the N x N system (I - alpha P) V = c, solve the L x L
aggregate system

    (I - alpha Pbar G) R = U c,

where Pbar holds the L kernel rows at representative states, then lift:

    V~ = c + alpha P G R.

PbarG stays a sparse L x L matrix.  ``_solve`` factors I - alpha PbarG
with a sparse LU (SuperLU) and falls back to a dense LAPACK solve only
when PbarG itself is dense (see ``SPARSE_LU_DENSITY``); both paths certify
the same residual bound.

``evaluate`` packages the run with gap statistics against an exact value
(optional) and the interpolation residuals |V - GV| that drive the
computable error bound checked by ``interpolation_bound_check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import sparse
from scipy.sparse import linalg as spla

from .chain import NumericalError, exact_value

__all__ = [
    "EvaluationReport",
    "BoundCheck",
    "GapReport",
    "aggregate_value",
    "evaluate",
    "interpolation_residuals",
    "interpolation_bound_check",
    "optimality_gap_report",
]

#: relative gaps divide by max(V, this floor); costs may vanish at minima
VALUE_FLOOR = 1e-12

#: I - alpha PbarG is factored by sparse LU below this density (nnz / L^2)
#: and by dense LAPACK LU at or above it.  The crossover was measured with
#: both solvers on lattice-local aggregates (2 cores, OpenBLAS): splu took
#: 0.24x the dense time on jrp_large (L = 1,444, 1-2 % dense) and 0.01x on
#: a 10^6-state walk (L = 3,617, 0.08 %), but 0.88x at 3.1 % and 1.23x at
#: 5.0 % on a 2-D stencil with L = 1,444, 0.5x at 2.2 % and 2.1x at 8.5 % on
#: a 3-D one with L = 1,000, and 2.7-5.3x on the hospital instances at
#: 16-63 % (hospital4 with L = 4,096 at 16 %: 5.8 s against 1.1 s).
SPARSE_LU_DENSITY = 0.04


def _aggregate_system(mrp, scheme):
    reps = np.asarray(scheme.grid.rep_indices)
    Pbar = mrp.P.take_rows(reps)
    return Pbar.csr @ scheme.G.csr, mrp.cost[reps]


def _solve(PbarG, c_bar, alpha):
    """R solving (I - alpha PbarG) R = c_bar for a sparse L x L PbarG.

    Sparse LU below ``SPARSE_LU_DENSITY``, dense LU otherwise; either way
    the residual |R - alpha PbarG R - c_bar|_inf must be within
    1e-10 (1 + |c_bar|_inf), and a singular system raises NumericalError.
    """
    L = PbarG.shape[0]
    if PbarG.nnz < SPARSE_LU_DENSITY * L * L:
        A = (sparse.identity(L, format="csr") - alpha * PbarG).tocsc()
        # representatives are numbered in lattice order, so the system is
        # banded: keeping that column order skips COLAMD and factors the
        # JRP systems 5-11x faster (L = 1,444 to 7,744) and rw1m's 1.5x.
        # COLAMD would win on random nearest-neighbour stencils from L ~ 8,000
        # (2.5x on 3-D, L = 8,000), which no benchmark family solves here
        try:
            R = spla.splu(A, permc_spec="NATURAL").solve(c_bar)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NumericalError(f"aggregate system is singular: {exc}") from exc
    else:
        # one L x L array in LAPACK's column order, so it is factored in
        # place (a row-ordered one is copied, outside Python's allocator).
        # It is filled by blocks of L/16 rows, since toarray(order="F")
        # would first convert PbarG to CSC.  0 - alpha p keeps zeros +0.0,
        # so A equals, byte for byte, np.eye(L) - alpha * PbarG.toarray()
        A = np.empty((L, L), order="F")
        step = -(-L // 16)
        for s in range(0, L, step):
            rows = PbarG[s : s + step].toarray()
            rows *= alpha
            A[s : s + step] = np.subtract(0.0, rows, out=rows)
        A[np.diag_indices(L)] += 1.0
        try:
            R = sla.solve(A, c_bar, overwrite_a=True)
        except sla.LinAlgError as exc:
            raise NumericalError(f"aggregate system is singular: {exc}") from exc
    res = float(np.max(np.abs(R - alpha * (PbarG @ R) - c_bar)))
    if not res <= 1e-10 * (1.0 + float(np.max(np.abs(c_bar)))):
        raise NumericalError("aggregate solve residual too large", residual=res)
    return R


def aggregate_value(mrp, scheme):
    """Aggregate value R: the L-vector solving (I - alpha Pbar G) R = U c."""
    PbarG, c_bar = _aggregate_system(mrp, scheme)
    return _solve(PbarG, c_bar, mrp.discount)


def interpolation_residuals(V, scheme):
    """|V - GV| per state and its sup, where (GV)(y) interpolates V from
    the representative states through the aggregation weights."""
    V = np.asarray(V, dtype=np.float64)
    interpolated = scheme.G.apply(V[scheme.grid.rep_indices])
    residual = np.abs(V - interpolated)
    return residual, float(np.max(residual))


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate evaluation output.

    ``V_agg`` is the lifted approximation; exact-value fields are None
    unless an exact baseline was supplied or requested.  Interpolation
    residuals are the sups |V - GV| (exact) and |V~ - GV~| (aggregate).
    Runtimes are wall-clock milliseconds per phase.
    """

    R: np.ndarray
    V_agg: np.ndarray
    V_exact: np.ndarray | None
    abs_gap: np.ndarray | None
    rel_gap: np.ndarray | None
    mean_rel_gap: float | None
    max_rel_gap: float | None
    interp_residual_agg: float
    interp_residual_exact: float | None
    runtimes_ms: dict


def evaluate(mrp, scheme, *, compute_exact=False, V_exact=None, tol=1e-10):
    """Evaluate a Markov reward process through the aggregation scheme.

    Parameters
    ----------
    mrp : MarkovRewardProcess
    scheme : AggregationScheme
    compute_exact : bool
        Solve the full system too and fill the gap fields.
    V_exact : array, optional
        Precomputed exact value; takes precedence over ``compute_exact``.
    """
    t0 = time.perf_counter()
    PbarG, c_bar = _aggregate_system(mrp, scheme)
    t1 = time.perf_counter()
    R = _solve(PbarG, c_bar, mrp.discount)
    t2 = time.perf_counter()
    V_agg = mrp.cost + mrp.discount * mrp.P.apply(scheme.G.apply(R))
    t3 = time.perf_counter()
    runtimes = {
        "preprocess": (t1 - t0) * 1000.0,
        "solve": (t2 - t1) * 1000.0,
        "lift": (t3 - t2) * 1000.0,
    }
    if V_exact is None and compute_exact:
        te = time.perf_counter()
        V_exact = exact_value(mrp, tol=tol)
        runtimes["exact"] = (time.perf_counter() - te) * 1000.0
    _, res_agg = interpolation_residuals(V_agg, scheme)
    abs_gap = rel_gap = mean_rel = max_rel = res_exact = None
    if V_exact is not None:
        V_exact = np.asarray(V_exact, dtype=np.float64)
        gaps = optimality_gap_report(V_exact, V_agg)
        abs_gap, rel_gap = gaps.abs_gap, gaps.rel_gap
        mean_rel, max_rel = gaps.mean_rel, gaps.max_rel
        _, res_exact = interpolation_residuals(V_exact, scheme)
    return EvaluationReport(
        R=R,
        V_agg=V_agg,
        V_exact=V_exact,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        mean_rel_gap=mean_rel,
        max_rel_gap=max_rel,
        interp_residual_agg=res_agg,
        interp_residual_exact=res_exact,
        runtimes_ms=runtimes,
    )


@dataclass(frozen=True)
class GapReport:
    """Per-state |candidate - reference| / max(reference, floor)."""

    abs_gap: np.ndarray
    rel_gap: np.ndarray
    mean_rel: float
    max_rel: float


def optimality_gap_report(V_reference, V_candidate):
    """Gap statistics of a candidate value against a reference (optimal) one."""
    V_reference = np.asarray(V_reference, dtype=np.float64)
    V_candidate = np.asarray(V_candidate, dtype=np.float64)
    if V_reference.shape != V_candidate.shape:
        raise ValueError("value vectors must have equal length")
    abs_gap = np.abs(V_candidate - V_reference)
    rel_gap = abs_gap / np.maximum(V_reference, VALUE_FLOOR)
    return GapReport(
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        mean_rel=float(np.mean(rel_gap)),
        max_rel=float(np.max(rel_gap)),
    )


@dataclass(frozen=True)
class BoundCheck:
    """lhs <= rhs with slack = rhs - lhs; negative slack breaks the bound."""

    lhs: float
    rhs: float
    slack: float


def interpolation_bound_check(mrp, scheme, *, V=None, V_tilde=None, tol=1e-10):
    """Check |V - V~|_inf <= (|V - GV|_inf + |V~ - GV~|_inf) / (1 - alpha).

    Both sides are computed from independent solves (the exact value and
    the aggregate evaluation); returns a BoundCheck whose slack should be
    >= -1e-8 whenever the aggregation weights are the multilinear ones.
    """
    if V is None:
        V = exact_value(mrp, tol=tol)
    if V_tilde is None:
        V_tilde = evaluate(mrp, scheme, tol=tol).V_agg
    lhs = float(np.max(np.abs(V - V_tilde)))
    _, rv = interpolation_residuals(V, scheme)
    _, rt = interpolation_residuals(V_tilde, scheme)
    rhs = (rv + rt) / (1.0 - mrp.discount)
    return BoundCheck(lhs=lhs, rhs=rhs, slack=rhs - lhs)
