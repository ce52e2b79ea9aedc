"""Fixed-policy evaluation through the aggregate system.

Instead of solving the N x N system (I - alpha P) V = c, solve the L x L
aggregate system

    (I - alpha Pbar G) R = U c,

where Pbar holds the L kernel rows at representative states, then lift:

    V~ = c + alpha P G R.

PbarG stays a sparse L x L matrix (aggregated PI in ``control`` applies it
as an operator instead).  PbarG is row-stochastic, so the aggregate system
is an ordinary discounted one, and ``_solve`` hands it to
``chain.solve_discounted``, the solver of every full-size system, whose
certificate it takes at 1e-10.

``evaluate`` packages the run with gap statistics against an exact value
(optional) and the interpolation residuals |V - GV| that drive the
computable error bound checked by ``interpolation_bound_check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chain import exact_value, solve_discounted

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


def _aggregate_system(mrp, scheme):
    reps = np.asarray(scheme.grid.rep_indices)
    Pbar = mrp.P.take_rows(reps)
    return Pbar.csr @ scheme.G.csr, mrp.cost[reps]


def _solve(PbarG, c_bar, alpha):
    """R solving (I - alpha PbarG) R = c_bar, with ``solve_discounted``'s
    certificate at 1e-10 (1 + |c_bar|_inf).  PbarG is a sparse L x L matrix
    (``evaluate``) or a callable operator R -> PbarG R (aggregated PI).

    Kept a function of its own, bound to ``control._solve_aggregate``:
    ``perfbench/pipeline.py`` swaps ``control.solve_discounted`` for a
    ``chain.solve`` span (``perfbench/test_parity.py`` asserts the identity),
    and aggregate solves stay out of that span.
    """
    return solve_discounted(PbarG, c_bar, alpha, tol=1e-10)


def aggregate_value(mrp, scheme):
    """Aggregate value R: the L-vector solving (I - alpha Pbar G) R = U c."""
    PbarG, c_bar = _aggregate_system(mrp, scheme)
    return _solve(PbarG, c_bar, mrp.discount)


def interpolation_residuals(V, scheme):
    """|V - GV| per state and its sup, where (GV)(y) interpolates V from
    the representative states through the aggregation weights."""
    V = np.asarray(V, dtype=np.float64)
    residual = scheme.G.apply(V[scheme.grid.rep_indices])
    residual -= V
    np.abs(residual, out=residual)
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
    V_agg = mrp.P.apply(scheme.G.apply(R))  # c + alpha P G R in place: one N-vector, not three
    V_agg *= mrp.discount
    V_agg += mrp.cost
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
