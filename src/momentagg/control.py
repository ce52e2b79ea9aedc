"""Controlled Markov decision processes and policy iteration.

Everything here minimizes discounted cost.  Two solvers are provided:

* ``exact_policy_iteration`` — classical PI on the full state space;
* ``aggregated_policy_iteration`` — PI restricted to the representative
  states of an aggregation scheme: each iteration solves the small L x L
  aggregate system (by ``evaluation._solve``: the same
  ``solve_discounted`` as exact PI, certified at 1e-10) and improves the
  policy only at representative states, then a single full sweep extends
  the final policy to every state.  P̄G is never formed: the scheme states
  G = ⊗_j G_j and supplies the 1-D factors G_j, so with the model's kernel
  rows in factored form one aggregate product is one small contraction per
  axis with A_j = K_j G_j.

Both run one loop, ``_policy_iteration``, which keeps the same record of
every iteration and stops on a stable policy, a repeated policy or the
iteration cap.

Every greedy step goes through ``_greedy``, which splits the states into
``threads`` contiguous chunks, one ``greedy_at`` call each.  Greedy ties
always break toward the lowest action id, so results are reproducible
across runs and thread counts.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import chain
from .chain import MarkovRewardProcess, NumericalError, solve_discounted
from .evaluation import VALUE_FLOOR, GapReport, optimality_gap_report
from .evaluation import _solve as _solve_aggregate
from .lattice import StateLattice, integral

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
      — the transition rows and costs of the chosen actions; the rows come
      in factored form (``chain.KronRows``: ``apply``, ``times``, and
      ``csr``/``nnz`` formed on demand);
    * ``induced(policy)`` / ``induced_apply(policy)`` — the chain of a full
      policy as (P, c), materialized or as (matvec, c).

    Each of the four pair operations runs ``check_actions`` once, and reads
    the pairs it returns.  Both benchmark families derive from
    ``benchmarks.PostDecisionMdp``, which defines all four once from
    per-axis kernels and one gather of each pair's post-decision point and
    cost.

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
        """The (state, action) pairs as int64 arrays if every state lies in
        [0, N) and every action is one of its state's integer ids; else
        ValueError naming the first bad state."""
        indices, actions = np.asarray(indices), np.asarray(actions)
        n = self.lattice.size
        state_ok = integral(indices) & (indices >= 0) & (indices < n)
        action_ok = integral(actions)
        i = indices if state_ok.all() else np.where(state_ok, indices, 0)
        a = actions if action_ok.all() else np.where(action_ok, actions, 0)
        i, a = i.astype(np.int64, copy=False), a.astype(np.int64, copy=False)
        bad = np.flatnonzero(
            ~(state_ok & action_ok) | (a < 0) | (a >= self.action_counts()[i])
        )
        if bad.size:
            k = bad[0]
            if not state_ok[k]:
                raise ValueError(f"state {indices[k]} is not in [0, {n})")
            if not action_ok[k]:
                raise ValueError(f"action {actions[k]} in state {i[k]} is not an integer")
            raise ValueError(f"action {a[k]} infeasible in state {i[k]}")
        return i, a


def induced_mrp(mdp, policy):
    """Markov reward process obtained by fixing a full policy."""
    P, c = mdp.induced(policy)
    return MarkovRewardProcess(mdp.lattice, P, c, mdp.discount)


def _full_policy(mdp, policy):
    """The pairs (every state, its action) of a full policy, unchecked: the
    caller passes them to ``check_actions`` or to a gather that runs it."""
    n = mdp.lattice.size
    policy = np.asarray(policy)
    if policy.shape != (n,):
        raise ValueError(f"policy must assign an action to each of {n} states")
    return np.arange(n), policy


@dataclass
class PiReport:
    """Outcome of a policy-iteration run.

    ``timings_ms`` holds per-phase wall times: lists keyed
    ``compute_P`` / ``evaluation`` / ``update`` (one entry per iteration)
    plus scalar totals (``full_update``, ``lift``, ``total``) when the
    phase exists.  In aggregated PI, ``compute_P`` times the post-point and
    cost gathers at the representatives.

    ``reps_changed`` holds, per iteration, how many improved states (all
    states in exact PI, the representatives in aggregated PI) changed
    action; it ends in 0 when the run converged.  ``products`` holds, per
    iteration, the operator products its solve made.  ``bellman_sup`` is
    max |q - V| over the improved states of the stable policy (V is R in
    aggregated PI).
    """

    iterations: int
    converged: bool
    policy: np.ndarray
    value: np.ndarray | None = None
    R: np.ndarray | None = None
    bellman_sup: float | None = None
    timings_ms: dict = field(default_factory=dict)
    reps_changed: list = field(default_factory=list)
    products: list = field(default_factory=list)


def _now_ms():
    return time.perf_counter() * 1000.0


def _greedy(mdp, indices, W):
    """``mdp.greedy_at(indices, W)`` split into ``mdp.threads`` contiguous
    chunks, one call each on its own worker, joined in order, so the result
    does not depend on the thread count.  Under 64 states it is one call."""
    indices = np.asarray(indices)
    threads = getattr(mdp, "threads", 1)
    if threads <= 1 or len(indices) < 64:
        return mdp.greedy_at(indices, W)
    chunks = np.array_split(indices, min(threads, len(indices)))
    with ThreadPoolExecutor(len(chunks)) as pool:
        parts = list(pool.map(lambda chunk: mdp.greedy_at(chunk, W), chunks))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _digest(policy):
    """Fixed-size fingerprint of a policy, for the repeat check."""
    return hashlib.blake2b(np.ascontiguousarray(policy)).digest()


def _policy_iteration(mdp, indices, policy0, system, solve, lift, *, max_iter, name, solution):
    """The policy-iteration loop both solvers run.

    Starts from ``policy0`` (None: action 0 everywhere).  Per iteration:
    ``system(policy)`` gives (operator, c), ``solve(operator, c, alpha)``
    gives V, which the report keeps in its field named ``solution``, and
    the policy is improved greedily at ``indices`` against W = ``lift(V)``.
    When no action changes, sets ``bellman_sup`` = max |q - V| and returns
    the report and W.  A repeated policy, recognized by a digest of each, or
    ``max_iter`` iterations raise NumericalError carrying ``.report``.
    """
    policy = np.zeros(len(indices), dtype=np.int64) if policy0 is None else policy0
    times = {"compute_P": [], "evaluation": [], "update": []}
    report = PiReport(iterations=0, converged=False, policy=policy, timings_ms=times)
    seen = {_digest(policy)}
    message = f"{name} did not stabilize in {max_iter} iterations"
    t_start = _now_ms()
    for it in range(1, max_iter + 1):
        report.iterations = it
        t0 = _now_ms()
        operator, c = system(policy)
        t1 = _now_ms()
        report.products.append(0)

        def counted(v):
            report.products[-1] += 1
            return operator(v)

        V = solve(counted, c, mdp.discount)
        setattr(report, solution, V)
        t2 = _now_ms()
        W = lift(V)
        policy, q = _greedy(mdp, indices, W)
        t3 = _now_ms()
        times["compute_P"].append(t1 - t0)
        times["evaluation"].append(t2 - t1)
        times["update"].append(t3 - t2)
        report.reps_changed.append(int(np.count_nonzero(policy != report.policy)))
        if report.reps_changed[-1] == 0:
            report.converged = True
            report.bellman_sup = float(np.max(np.abs(q - V)))
            break
        report.policy = policy
        digest = _digest(policy)
        if digest in seen:
            message = f"{name} cycled without stabilizing"
            break
        seen.add(digest)
    times["total"] = _now_ms() - t_start
    if not report.converged:
        err = NumericalError(message)
        err.report = report
        raise err
    return report, W


def exact_policy_iteration(mdp, policy0=None, *, tol=1e-10, max_iter=200):
    """Classical policy iteration to the exact optimum.

    Starts from ``policy0`` (default: action 0 everywhere), alternates
    exact evaluation and greedy improvement, and stops when the policy is
    stable.  Raises NumericalError (carrying ``.report``) when a policy
    repeats or past ``max_iter``.
    """
    n = mdp.lattice.size
    if policy0 is not None:
        policy0 = mdp.check_actions(*_full_policy(mdp, policy0))[1]
    solve = partial(solve_discounted, tol=tol)
    return _policy_iteration(
        mdp, np.arange(n), policy0, mdp.induced_apply, solve, lambda V: V,
        max_iter=max_iter, name="policy iteration", solution="value",
    )[0]


def aggregated_policy_iteration(mdp, scheme, policy0=None, *, max_iter=100):
    """Policy iteration on representative states only, plus one full sweep.

    Per iteration: take the kernel rows (factored) and costs c_bar of the
    representatives under the restricted policy, solve ``(I - alpha PbarG)
    R = c_bar`` with ``evaluation._solve`` (``solve_discounted``, certified
    at 1e-10) and improve the policy at representatives against W = G R.
    PbarG is an operator: with A_j = K_j G_j (the rows' factors times G's
    1-D factors, formed once per call), a product contracts R with the A_j
    one axis at a time and gathers at the rows.  When the
    restricted policy is stable, one greedy sweep over all states gives the
    full policy, and its one-step value is lifted through ``induced_apply``.

    Returns a PiReport whose ``value`` is V~ = c + alpha P (G R) under the
    returned policy and whose ``R`` is the final aggregate value.  Raises
    NumericalError (carrying ``.report``) when a restricted policy repeats
    or past ``max_iter``, and ValueError for a scheme that does not state
    G = ⊗_j G_j (``build_scheme``'s does; an m-step scheme's does not).
    """
    reps = np.asarray(scheme.grid.rep_indices)
    L = len(reps)
    if policy0 is not None:
        policy0 = np.asarray(policy0)
        if policy0.shape != (L,):
            raise ValueError(f"restricted policy must have length {L}")
        policy0 = mdp.check_actions(reps, policy0)[1]
    G_axes = scheme.axis_factors()
    if G_axes is None:
        raise ValueError("aggregated PI needs G = ⊗_j G_j, a product of 1-D factors")
    A = None

    def system(policy_bar):
        nonlocal A
        Pbar = mdp.kernel_rows_at(reps, policy_bar)
        if A is None:  # a model's row factors are the same at every call
            A = Pbar.times(G_axes).factors
        return chain.KronRows(A, Pbar.rows).apply, mdp.costs_at(reps, policy_bar)

    t_start = _now_ms()
    report, W = _policy_iteration(
        mdp, reps, policy0, system, _solve_aggregate, scheme.G.apply,
        max_iter=max_iter, name="aggregate policy iteration", solution="R",
    )
    times = report.timings_ms
    # full update: one greedy sweep over every state against W = G R
    t0 = _now_ms()
    report.policy, _ = _greedy(mdp, np.arange(mdp.lattice.size), W)
    times["full_update"] = _now_ms() - t0
    # one-step value of the full policy against the interpolated R
    t0 = _now_ms()
    apply_P, c = mdp.induced_apply(report.policy)
    report.value = c + mdp.discount * apply_P(W)
    times["lift"] = _now_ms() - t0
    times["total"] = _now_ms() - t_start
    return report


@dataclass(frozen=True)
class BellmanResidualReport:
    """Per-state |T^pi W - W| and the same relative to max(W, floor)."""

    per_state: np.ndarray
    relative: np.ndarray
    mean_rel: float
    max_rel: float


def bellman_residual(mdp, policy, W):
    """One-step Bellman residual of W under a full policy."""
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
