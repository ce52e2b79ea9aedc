"""Controlled Markov decision processes and policy iteration.

Everything here minimizes discounted cost.  Two solvers are provided:

* ``exact_policy_iteration`` — classical PI on the full state space;
* ``aggregated_policy_iteration`` — PI restricted to the representative
  states of an aggregation scheme: each iteration solves the small L x L
  aggregate system (sparse, by ``evaluation._solve``: the same
  ``solve_discounted`` as exact PI, certified at 1e-10) and improves the
  policy only at representative states, then a single full sweep extends
  the final policy to every state.  The aggregate rows are assembled for
  all L representatives once; later iterations rebuild only the rows of
  representatives whose action changed.  Kernel rows are built in blocks
  of at most ``chain.BLOCK_NNZ`` entries, each freed once multiplied by G.

Greedy ties always break toward the lowest action id, so results are
reproducible across runs and thread counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import chain
from ._parallel import run_chunked
from .chain import MarkovRewardProcess, NumericalError, solve_discounted
from .evaluation import VALUE_FLOOR, GapReport, optimality_gap_report
from .evaluation import _solve as _solve_aggregate
from .lattice import StateLattice

__all__ = [
    "ControlledMdp",
    "PiReport",
    "BellmanResidualReport",
    "GapReport",
    "induced_mrp",
    "exact_policy_iteration",
    "aggregated_policy_iteration",
    "bellman_residual",
    "optimality_gap_report",
]

class ControlledMdp:
    """Base class of the controlled models the solvers accept.

    A model sets ``lattice`` and ``discount`` and supplies the bulk
    operations the solvers call, each over many states at once:

    * ``action_counts()`` — the number of actions of every state, computed once;
    * ``greedy_at(indices, W)`` — argmin_a c(x,a) + alpha sum_y p^a(x,y) W(y)
      at the given states, as (actions, q_values), ties to the lowest id;
    * ``kernel_rows_at(indices, actions)`` / ``costs_at(indices, actions)``
      — stacked transition rows (a RowStochasticMatrix) and costs of the
      chosen actions;
    * ``kernel_row_sizes(indices, actions)`` — an upper bound on the nnz of
      each of those rows, computed without building them;
    * ``induced(policy)`` / ``induced_apply(policy)`` — the chain of a full
      policy as (P, c), materialized or as (matvec, c).

    Both benchmark families derive from ``benchmarks.PostDecisionMdp``,
    which defines the kernel rows and the induced chain once from per-axis
    kernels and the model's post-decision points.

    Action ids are 0-based and contiguous per state; id 0 is always the
    "do nothing" action where the model has one.
    """

    lattice: StateLattice
    discount: float
    #: worker threads for greedy sweeps.  Results are identical at any
    #: count; no benchmark instance sweeps faster with more than one
    threads: int = 1

    def n_actions(self, i):
        """Number of actions of state i."""
        return int(self.action_counts()[i])

    def check_actions(self, indices, actions):
        """Raise ValueError naming the first state whose action is not one
        of its action ids."""
        indices = np.asarray(indices, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        bad = np.flatnonzero(
            (actions < 0) | (actions >= self.action_counts()[indices])
        )
        if bad.size:
            k = bad[0]
            raise ValueError(f"action {actions[k]} infeasible in state {indices[k]}")


def induced_mrp(mdp, policy):
    """Markov reward process obtained by fixing a full policy."""
    policy = _full_policy(mdp, policy)
    P, c = mdp.induced(policy)
    return MarkovRewardProcess(mdp.lattice, P, c, mdp.discount)


def _full_policy(mdp, policy):
    n = mdp.lattice.size
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (n,):
        raise ValueError(f"policy must assign an action to each of {n} states")
    mdp.check_actions(np.arange(n), policy)
    return policy


@dataclass
class PiReport:
    """Outcome of a policy-iteration run.

    ``timings_ms`` holds per-phase wall times: lists keyed
    ``compute_P`` / ``evaluation`` / ``update`` (one entry per iteration)
    plus scalar totals (``full_update``, ``lift``, ``total``) when the
    phase exists.  In aggregated PI, ``compute_P`` times the assembly of
    the rows rebuilt that iteration (all L rows only in the first).

    ``reps_changed`` holds, per iteration of aggregated PI, how many
    representatives changed action in the improvement step; it ends in 0
    when the run converged.  Exact PI leaves it empty.
    """

    iterations: int
    converged: bool
    policy: np.ndarray
    value: np.ndarray | None = None
    R: np.ndarray | None = None
    bellman_sup: float | None = None
    timings_ms: dict = field(default_factory=dict)
    reps_changed: list = field(default_factory=list)


def _now_ms():
    return time.perf_counter() * 1000.0


def _greedy(mdp, indices, W):
    """Greedy sweep, chunked over ``mdp.threads`` workers.

    Chunks are contiguous index ranges reassembled in order, so the result
    does not depend on the thread count.
    """
    indices = np.asarray(indices)
    threads = getattr(mdp, "threads", 1)
    if threads <= 1 or len(indices) < 64:
        return mdp.greedy_at(indices, W)
    parts = run_chunked(
        lambda s, t: mdp.greedy_at(indices[s:t], W), len(indices), threads
    )
    actions = np.concatenate([p[0] for p in parts])
    qvals = np.concatenate([p[1] for p in parts])
    return actions, qvals


def exact_policy_iteration(mdp, policy0=None, *, tol=1e-10, max_iter=200):
    """Classical policy iteration to the exact optimum.

    Starts from ``policy0`` (default: action 0 everywhere), alternates
    exact evaluation and greedy improvement, and stops when the policy is
    stable.  Raises NumericalError (carrying ``.report``) past ``max_iter``.
    """
    n = mdp.lattice.size
    policy = (
        np.zeros(n, dtype=np.int64) if policy0 is None else _full_policy(mdp, policy0)
    )
    idx = np.arange(n)
    times = {"compute_P": [], "evaluation": [], "update": []}
    t_start = _now_ms()
    V = None
    for it in range(1, max_iter + 1):
        t0 = _now_ms()
        apply_P, c = mdp.induced_apply(policy)
        t1 = _now_ms()
        V = solve_discounted(apply_P, c, mdp.discount, tol=tol)
        t2 = _now_ms()
        new_policy, q = _greedy(mdp, idx, V)
        t3 = _now_ms()
        times["compute_P"].append(t1 - t0)
        times["evaluation"].append(t2 - t1)
        times["update"].append(t3 - t2)
        if np.array_equal(new_policy, policy):
            times["total"] = _now_ms() - t_start
            return PiReport(
                iterations=it,
                converged=True,
                policy=policy,
                value=V,
                bellman_sup=float(np.max(np.abs(q - V))),
                timings_ms=times,
            )
        policy = new_policy
    times["total"] = _now_ms() - t_start
    err = NumericalError(f"policy iteration did not stabilize in {max_iter} iterations")
    err.report = PiReport(
        iterations=max_iter, converged=False, policy=policy, value=V, timings_ms=times
    )
    raise err


def _assemble_rows(mdp, G, reps, policy_bar, changed, PbarG, c_bar):
    """PbarG and c_bar with the rows of representatives ``changed`` rebuilt
    under ``policy_bar``.

    Each row of ``Pbar.csr @ G.csr`` depends only on the matching row of
    Pbar, so the rows are built in blocks of at most ``chain.BLOCK_NNZ``
    kernel-row entries (by ``kernel_row_sizes``; a larger row is a block of
    its own), each block's kernel rows freed once multiplied, and the
    rebuilt rows are spliced in place of the stale ones: the CSR arrays
    equal those of one product over all L rows.
    """
    L = len(reps)
    idx, act = reps[changed], policy_bar[changed]
    ends = np.concatenate(([0], np.cumsum(mdp.kernel_row_sizes(idx, act), dtype=np.int64)))
    rows = [
        mdp.kernel_rows_at(idx[s:t], act[s:t]).csr @ G.csr
        for s, t in chain.row_blocks(ends, chain.BLOCK_NNZ)
    ]
    costs = mdp.costs_at(idx, act)
    if len(changed) == L:
        return sparse.vstack(rows, format="csr"), costs
    src = np.arange(L)
    src[changed] = L + np.arange(len(changed))
    c_bar = c_bar.copy()
    c_bar[changed] = costs
    return sparse.vstack([PbarG, *rows], format="csr")[src], c_bar


def aggregated_policy_iteration(mdp, scheme, policy0=None, *, max_iter=100):
    """Policy iteration on representative states only, plus one full sweep.

    Per iteration: bring the sparse L x L matrix PbarG and the costs c_bar
    up to date with the current restricted policy, solve the aggregate
    system ``(I - alpha PbarG) R = c_bar`` with ``evaluation._solve``
    (``solve_discounted`` on the sparse PbarG, certified at 1e-10), and
    improve the policy at representatives against the interpolated values
    W = G R.  The first iteration assembles all L kernel rows; later ones
    call ``kernel_rows_at``/``costs_at`` only at the representatives whose
    action changed and splice those rows into PbarG, which stays equal,
    array for array, to a full re-assembly.  ``kernel_rows_at`` is called
    on consecutive blocks of those representatives, each within
    ``chain.BLOCK_NNZ`` entries by ``kernel_row_sizes``.  When the restricted policy is
    stable, a single greedy sweep over all states produces the full policy
    and its one-step value estimate, lifted through ``induced_apply``.

    Returns a PiReport whose ``value`` is V~ = c + alpha P (G R) under the
    returned policy, whose ``R`` is the final aggregate value and whose
    ``reps_changed`` counts the representatives changed per iteration.
    """
    reps = np.asarray(scheme.grid.rep_indices)
    L = len(reps)
    if policy0 is None:
        policy_bar = np.zeros(L, dtype=np.int64)
    else:
        policy_bar = np.asarray(policy0, dtype=np.int64)
        if policy_bar.shape != (L,):
            raise ValueError(f"restricted policy must have length {L}")
        mdp.check_actions(reps, policy_bar)
    alpha = mdp.discount
    G = scheme.G
    times = {"compute_P": [], "evaluation": [], "update": []}
    reps_changed = []
    t_start = _now_ms()
    seen = {policy_bar.tobytes()}
    PbarG = c_bar = R = W = None
    changed = np.arange(L)
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        t0 = _now_ms()
        PbarG, c_bar = _assemble_rows(mdp, G, reps, policy_bar, changed, PbarG, c_bar)
        t1 = _now_ms()
        R = _solve_aggregate(PbarG, c_bar, alpha)
        t2 = _now_ms()
        W = G.apply(R)
        new_bar, _ = _greedy(mdp, reps, W)
        t3 = _now_ms()
        times["compute_P"].append(t1 - t0)
        times["evaluation"].append(t2 - t1)
        times["update"].append(t3 - t2)
        changed = np.flatnonzero(new_bar != policy_bar)
        reps_changed.append(len(changed))
        if not changed.size:
            converged = True
            break
        key = new_bar.tobytes()
        if key in seen:
            err = NumericalError(
                "restricted policy cycled without stabilizing"
            )
            err.report = PiReport(
                iterations=it,
                converged=False,
                policy=new_bar,
                R=R,
                timings_ms=times,
                reps_changed=reps_changed,
            )
            raise err
        seen.add(key)
        policy_bar = new_bar
    if not converged:
        times["total"] = _now_ms() - t_start
        err = NumericalError(
            f"aggregate policy iteration did not stabilize in {max_iter} iterations"
        )
        err.report = PiReport(
            iterations=iterations,
            converged=False,
            policy=policy_bar,
            R=R,
            timings_ms=times,
            reps_changed=reps_changed,
        )
        raise err
    # full update: one greedy sweep over every state against W = G R
    t0 = _now_ms()
    policy_full, _ = _greedy(mdp, np.arange(mdp.lattice.size), W)
    times["full_update"] = _now_ms() - t0
    # one-step value of the full policy against the interpolated R
    t0 = _now_ms()
    apply_P, c = mdp.induced_apply(policy_full)
    V_tilde = c + alpha * apply_P(W)
    times["lift"] = _now_ms() - t0
    times["total"] = _now_ms() - t_start
    return PiReport(
        iterations=iterations,
        converged=True,
        policy=policy_full,
        value=V_tilde,
        R=R,
        timings_ms=times,
        reps_changed=reps_changed,
    )


@dataclass(frozen=True)
class BellmanResidualReport:
    """Per-state |T^pi W - W| and the same relative to max(W, floor)."""

    per_state: np.ndarray
    relative: np.ndarray
    mean_rel: float
    max_rel: float


def bellman_residual(mdp, policy, W):
    """One-step Bellman residual of W under a full policy."""
    policy = _full_policy(mdp, policy)
    W = np.asarray(W, dtype=np.float64)
    apply_P, c = mdp.induced_apply(policy)
    residual = np.abs(c + mdp.discount * apply_P(W) - W)
    relative = residual / np.maximum(W, VALUE_FLOOR)
    return BellmanResidualReport(
        per_state=residual,
        relative=relative,
        mean_rel=float(np.mean(relative)),
        max_rel=float(np.max(relative)),
    )
