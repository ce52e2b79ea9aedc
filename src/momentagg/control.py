"""Controlled Markov decision processes and policy iteration.

Everything here minimizes discounted cost.  Two solvers are provided:

* ``exact_policy_iteration`` — classical PI on the full state space;
* ``aggregated_policy_iteration`` — PI restricted to the representative
  states of an aggregation scheme: each iteration solves the small L x L
  aggregate system (sparse, see ``evaluation._solve``) and improves the
  policy only at representative states, then a single full sweep extends
  the final policy to every state.  The aggregate rows are assembled for
  all L representatives once; later iterations rebuild only the rows of
  representatives whose action changed.

Greedy ties always break toward the lowest action id, so results are
reproducible across runs and thread counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ._parallel import run_chunked
from .chain import MarkovRewardProcess, NumericalError, RowStochasticMatrix, solve_discounted
from .evaluation import VALUE_FLOOR, GapReport, optimality_gap_report
from .evaluation import _solve as _solve_aggregate
from .lattice import StateLattice

__all__ = [
    "ControlledMdp",
    "TabularMdp",
    "PiReport",
    "BellmanResidualReport",
    "GapReport",
    "induced_mrp",
    "exact_policy_iteration",
    "aggregated_policy_iteration",
    "bellman_residual",
    "optimality_gap_report",
    "lifted_mdp",
]

class ControlledMdp:
    """Base class: per-state action sets with sparse kernels and costs.

    There are two ways to subclass it:

    * per (state, action) pair: implement ``n_actions``, ``kernel_row`` and
      ``action_cost``.  The bulk operations below then run as generic
      Python loops over states and actions; override the ones that can be
      vectorized, as ``TabularMdp`` does for ``greedy_at`` and ``induced``.
    * post-decision: derive from ``benchmarks.PostDecisionMdp``, whose
      actions move a state to a post-decision point from which each axis
      moves on its own.  It defines the kernel rows, one-row views and
      the induced chain from per-axis kernels and the model's
      ``posts_at``, ``costs_at`` and ``greedy_at``, so none of the loops
      below is reached.

    Action ids are 0-based and contiguous per state; id 0 is always the
    "do nothing" action where the model has one.
    """

    lattice: StateLattice
    discount: float
    #: worker threads for greedy sweeps.  Results are identical at any
    #: count; no benchmark instance sweeps faster with more than one
    threads: int = 1

    # -- required per-(state, action) interface -----------------------------

    def n_actions(self, i):
        raise NotImplementedError

    def kernel_row(self, i, a):
        """(columns, probabilities) of the transition row for action a."""
        raise NotImplementedError

    def action_cost(self, i, a):
        raise NotImplementedError

    # -- bulk operations (override for speed) --------------------------------

    def action_counts(self):
        """Number of actions of every state, in flat-index order."""
        return np.array(
            [self.n_actions(i) for i in range(self.lattice.size)], dtype=np.int64
        )

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

    def greedy_at(self, indices, W):
        """argmin_a c(x,a) + alpha * sum_y p^a(x,y) W(y) at the given states.

        Returns (actions, q_values); ties break to the lowest action id.
        """
        W = np.asarray(W, dtype=np.float64)
        alpha = self.discount
        actions = np.zeros(len(indices), dtype=np.int64)
        qvals = np.empty(len(indices))
        for k, i in enumerate(np.asarray(indices)):
            i = int(i)
            best_a, best_q = 0, np.inf
            for a in range(self.n_actions(i)):
                cols, probs = self.kernel_row(i, a)
                q = self.action_cost(i, a) + alpha * float(probs @ W[cols])
                if q < best_q:  # strict, so the lowest action id wins ties
                    best_a, best_q = a, q
            actions[k], qvals[k] = best_a, best_q
        return actions, qvals

    def kernel_rows_at(self, indices, actions):
        """Stacked kernel rows (len(indices) x N) for chosen actions."""
        n = self.lattice.size
        entries = [
            self.kernel_row(int(i), int(a)) for i, a in zip(indices, actions)
        ]
        return RowStochasticMatrix.from_rows(entries, n)

    def costs_at(self, indices, actions):
        return np.array(
            [self.action_cost(int(i), int(a)) for i, a in zip(indices, actions)]
        )

    def induced(self, policy):
        """(P, c) of the chain obtained by following ``policy`` everywhere."""
        policy = _full_policy(self, policy)
        idx = np.arange(self.lattice.size)
        P = self.kernel_rows_at(idx, policy)
        c = self.costs_at(idx, policy)
        return P, c

    def induced_apply(self, policy):
        """(apply, c): matrix-free form of the induced chain.

        The default materializes; subclasses whose kernels have product
        structure override this to avoid forming the N-row kernel.
        """
        P, c = self.induced(policy)
        return P.apply, c


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


class TabularMdp(ControlledMdp):
    """Dense-action MDP: the same action ids everywhere, one kernel each.

    Parameters
    ----------
    lattice : StateLattice
    kernels : list of RowStochasticMatrix, one N x N matrix per action
    costs : (A, N) nonnegative array
    discount : float in (0, 1)
    """

    def __init__(self, lattice, kernels, costs, discount):
        costs = np.asarray(costs, dtype=np.float64)
        n = lattice.size
        if costs.ndim != 2 or costs.shape[1] != n or costs.shape[0] != len(kernels):
            raise ValueError("costs must be (n_actions, n_states)")
        if np.any(costs < 0) or not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite and nonnegative")
        for K in kernels:
            if K.shape != (n, n):
                raise ValueError("every kernel must be N x N")
        if not (0.0 < discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        self.lattice = lattice
        self.kernels = list(kernels)
        self.costs = costs
        self.discount = float(discount)

    def n_actions(self, i):
        return len(self.kernels)

    def kernel_row(self, i, a):
        return self.kernels[a].row(i)

    def action_cost(self, i, a):
        return float(self.costs[a, i])

    def greedy_at(self, indices, W):
        indices = np.asarray(indices)
        Q = np.stack(
            [
                self.costs[a, indices]
                + self.discount * (self.kernels[a].csr[indices] @ W)
                for a in range(len(self.kernels))
            ]
        )
        actions = np.argmin(Q, axis=0)  # first minimum = lowest action id
        return actions.astype(np.int64), Q[actions, np.arange(len(indices))]

    def induced(self, policy):
        policy = _full_policy(self, policy)
        rows = [self.kernels[a].row(i) for i, a in enumerate(policy)]
        P = RowStochasticMatrix.from_rows(rows, self.lattice.size)
        c = self.costs[policy, np.arange(self.lattice.size)]
        return P, c


def lifted_mdp(mdp, scheme, *, nnz_budget=80_000_000):
    """Tabular MDP whose kernels are the lifted P^a G U (costs unchanged)."""
    from .aggregation import lift_transition

    if not isinstance(mdp, TabularMdp):
        raise TypeError("lifting materialized kernels requires a TabularMdp")
    kernels = [
        lift_transition(K, scheme, nnz_budget=nnz_budget) for K in mdp.kernels
    ]
    return TabularMdp(mdp.lattice, kernels, mdp.costs, mdp.discount)


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
    Pbar, so the rebuilt rows are spliced in place of the stale ones and
    the CSR arrays equal those of a fresh product over all L rows.
    """
    L = len(reps)
    rows = mdp.kernel_rows_at(reps[changed], policy_bar[changed]).csr @ G.csr
    costs = mdp.costs_at(reps[changed], policy_bar[changed])
    if len(changed) == L:
        return rows, costs
    src = np.arange(L)
    src[changed] = L + np.arange(len(changed))
    c_bar = c_bar.copy()
    c_bar[changed] = costs
    return sparse.vstack([PbarG, rows], format="csr")[src], c_bar


def aggregated_policy_iteration(mdp, scheme, policy0=None, *, max_iter=100):
    """Policy iteration on representative states only, plus one full sweep.

    Per iteration: bring the sparse L x L matrix PbarG and the costs c_bar
    up to date with the current restricted policy, solve the aggregate
    system ``(I - alpha PbarG) R = c_bar`` by sparse LU (dense LU only when
    PbarG is dense; the same residual certificate either way), and improve
    the policy at representative states against the interpolated values
    W = G R.  The first iteration assembles all L kernel rows; later ones
    call ``kernel_rows_at``/``costs_at`` only at the representatives whose
    action changed and splice those rows into PbarG, which stays equal,
    array for array, to a full re-assembly.  When the restricted policy is
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
