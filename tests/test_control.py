"""Policy-iteration tests: exact PI against a dense oracle, the aggregated
variant (against a full-rebuild oracle of its loop), greedy tie-breaking,
and the residual / gap reports."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _oracles as orc
import _post_oracles as po
from _tabular import TabularMdp
from momentagg import chain, control
from momentagg.benchmarks import (
    JointReplenishmentMdp,
    build_hospital,
    build_jrp,
    hospital_2ward,
    hospital_3ward,
    jrp_small,
)
from momentagg import (
    MarkovRewardProcess,
    NumericalError,
    RowStochasticMatrix,
    StateLattice,
    aggregated_policy_iteration,
    bellman_residual,
    build_grid,
    build_scheme,
    exact_policy_iteration,
    exact_value,
    induced_mrp,
    optimality_gap_report,
)


def _tabular(seed, lower, upper, **kw):
    states, P_list, C, alpha = orc.random_mdp(seed, lower, upper, **kw)
    lat = StateLattice(lower, upper)
    kernels = [RowStochasticMatrix(P) for P in P_list]
    return TabularMdp(lat, kernels, C, alpha), P_list, C, alpha


# ---------------------------------------------------------------------------
# TabularMdp basics
# ---------------------------------------------------------------------------

def test_tabular_validation():
    lat = StateLattice([0], [1])
    K = [RowStochasticMatrix.identity(2)]
    with pytest.raises(ValueError, match="n_actions"):
        TabularMdp(lat, K, np.zeros((2, 2)), 0.9)
    with pytest.raises(ValueError, match="nonnegative"):
        TabularMdp(lat, K, -np.ones((1, 2)), 0.9)
    with pytest.raises(ValueError, match="N x N"):
        TabularMdp(lat, [RowStochasticMatrix.identity(3)], np.zeros((1, 2)), 0.9)
    with pytest.raises(ValueError, match="discount"):
        TabularMdp(lat, K, np.zeros((1, 2)), 1.0)


def test_induced_chain_single_action():
    mdp, P_list, C, alpha = _tabular(1, (0,), (9,), n_actions=1)
    policy = np.zeros(10, dtype=np.int64)
    P, c = mdp.induced(policy)
    assert_allclose(P.toarray(), P_list[0], atol=1e-15)
    assert_allclose(c, C[0])
    mrp = induced_mrp(mdp, policy)
    assert isinstance(mrp, MarkovRewardProcess)
    assert mrp.discount == alpha


def test_induced_apply_matches_induced():
    mdp, *_ = _tabular(2, (0, 0), (4, 4), n_actions=3)
    rng = np.random.default_rng(0)
    policy = rng.integers(0, 3, mdp.lattice.size)
    apply_P, c = mdp.induced_apply(policy)
    P, c2 = mdp.induced(policy)
    f = rng.random(mdp.lattice.size)
    assert_allclose(apply_P(f), P.apply(f), atol=1e-12)
    assert_allclose(c, c2)


def test_policy_validation():
    mdp, *_ = _tabular(3, (0,), (5,), n_actions=2)
    with pytest.raises(ValueError, match="each of"):
        mdp.induced(np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="infeasible"):
        bad = np.zeros(6, dtype=np.int64)
        bad[2] = 7
        mdp.induced(bad)


def test_greedy_breaks_ties_toward_lowest_action():
    # two identical actions: the sweep must always pick action 0
    lat = StateLattice([0], [4])
    K = RowStochasticMatrix.identity(5)
    costs = np.ones((2, 5))
    mdp = TabularMdp(lat, [K, K], costs, 0.9)
    for greedy in (mdp.greedy_at, lambda idx, W: po.greedy_at(mdp, idx, W)):
        actions, qvals = greedy(np.arange(5), np.zeros(5))
        assert np.all(actions == 0)
        assert_allclose(qvals, 1.0)


# ---------------------------------------------------------------------------
# exact policy iteration
# ---------------------------------------------------------------------------

def test_single_action_converges_in_one_iteration():
    mdp, P_list, C, alpha = _tabular(4, (0,), (14,), n_actions=1)
    report = exact_policy_iteration(mdp)
    assert report.iterations == 1
    assert report.converged
    V = exact_value(induced_mrp(mdp, report.policy))
    assert_allclose(report.value, V, atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_exact_pi_matches_dense_oracle(seed):
    mdp, P_list, C, alpha = _tabular(20 + seed, (-2, 0), (2, 4), n_actions=3)
    V_ref, pol_ref = orc.dense_policy_iteration(P_list, C, alpha)
    report = exact_policy_iteration(mdp)
    assert np.array_equal(report.policy, pol_ref)
    assert_allclose(report.value, V_ref, atol=1e-7)


def test_exact_pi_runs_from_given_start():
    mdp, *_ = _tabular(5, (0,), (10,), n_actions=2)
    start = np.ones(11, dtype=np.int64)
    report = exact_policy_iteration(mdp, policy0=start)
    base = exact_policy_iteration(mdp)
    assert np.array_equal(report.policy, base.policy)


def test_exact_pi_iteration_cap():
    mdp, *_ = _tabular(6, (0,), (12,), n_actions=3)
    with pytest.raises(NumericalError) as err:
        exact_policy_iteration(mdp, max_iter=0)
    assert err.value.report.converged is False


class _ProductBudgetSpent(Exception):
    """Raised by a counted operator past its product budget."""


def test_exact_pi_near_unit_discount_stays_within_a_product_budget(monkeypatch):
    # at alpha = 0.99999 Bi-CGSTAB can meet its own 2-norm stop yet miss the
    # infinity-norm target; Richardson finishes such a solve in few products
    mdp = build_jrp(dataclasses.replace(jrp_small(), discount=0.99999))
    induced_apply = mdp.induced_apply
    products = []

    def counted_induced_apply(policy):
        apply_P, c = induced_apply(policy)

        def counted(v):
            products.append(1)
            if len(products) > 100_000:
                raise _ProductBudgetSpent
            return apply_P(v)

        return counted, c

    monkeypatch.setattr(mdp, "induced_apply", counted_induced_apply)
    report = exact_policy_iteration(mdp)
    assert report.converged


def test_pi_timings_recorded():
    mdp, *_ = _tabular(7, (0,), (8,), n_actions=2)
    report = exact_policy_iteration(mdp)
    assert {"evaluation", "update", "total"} <= set(report.timings_ms)
    assert len(report.timings_ms["update"]) == report.iterations


# ---------------------------------------------------------------------------
# aggregated policy iteration
# ---------------------------------------------------------------------------

def test_aggregated_pi_identity_scheme_recovers_exact():
    mdp, *_ = _tabular(8, (0, 0), (2, 2), n_actions=3)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))  # L = N
    assert scheme.grid.size == mdp.lattice.size
    agg = aggregated_policy_iteration(mdp, scheme)
    ref = exact_policy_iteration(mdp)
    assert np.array_equal(agg.policy, ref.policy)
    assert_allclose(agg.value, ref.value, atol=1e-7)


def test_aggregated_pi_near_optimal_on_random_mdp():
    mdp, P_list, C, alpha = _tabular(9, (0,), (40,), n_actions=3)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    agg = aggregated_policy_iteration(mdp, scheme)
    assert agg.converged
    assert agg.R.shape == (scheme.grid.size,)
    V_pi = exact_value(induced_mrp(mdp, agg.policy))
    V_ref, _ = orc.dense_policy_iteration(P_list, C, alpha)
    gaps = optimality_gap_report(V_ref, V_pi)
    assert gaps.max_rel <= 0.10


def test_aggregated_pi_restricted_start_validation():
    mdp, *_ = _tabular(10, (0,), (30,), n_actions=2)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    with pytest.raises(ValueError, match="restricted policy"):
        aggregated_policy_iteration(mdp, scheme, policy0=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="infeasible"):
        bad = np.full(scheme.grid.size, 9, dtype=np.int64)
        aggregated_policy_iteration(mdp, scheme, policy0=bad)


def test_aggregated_pi_value_is_one_step_lift():
    mdp, *_ = _tabular(11, (0,), (35,), n_actions=2)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    agg = aggregated_policy_iteration(mdp, scheme)
    W = scheme.G.apply(agg.R)
    apply_P, c = mdp.induced_apply(agg.policy)
    assert_allclose(agg.value, c + mdp.discount * apply_P(W), atol=1e-12)
    assert {"compute_P", "evaluation", "update", "full_update", "lift"} <= set(
        agg.timings_ms
    )


def test_aggregated_pi_threads_do_not_change_result():
    mdp, *_ = _tabular(12, (0,), (70,), n_actions=3)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    serial = aggregated_policy_iteration(mdp, scheme)
    mdp.threads = 4
    threaded = aggregated_policy_iteration(mdp, scheme)
    assert np.array_equal(serial.policy, threaded.policy)
    assert_allclose(serial.value, threaded.value, atol=0.0)


def test_jrp_solvers_same_with_per_state_greedy_loop(monkeypatch):
    # both solvers reach the same policies, and exact PI the same value,
    # when the JRP greedy runs as the per-state loop it replaced
    mdp = build_jrp(jrp_small())
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    api = aggregated_policy_iteration(mdp, scheme)
    exact = exact_policy_iteration(mdp)
    monkeypatch.setattr(JointReplenishmentMdp, "greedy_at", po.jrp_greedy_loop)
    api_loop = aggregated_policy_iteration(mdp, scheme)
    exact_loop = exact_policy_iteration(mdp)
    assert np.array_equal(api.policy, api_loop.policy)
    assert_allclose(api.R, api_loop.R, rtol=1e-13, atol=0)
    assert_allclose(api.value, api_loop.value, rtol=1e-13, atol=0)
    assert np.array_equal(exact.policy, exact_loop.policy)
    assert np.array_equal(exact.value, exact_loop.value)


# ---------------------------------------------------------------------------
# incremental aggregate assembly against the full-rebuild loop
# ---------------------------------------------------------------------------

def _full_rebuild_api(mdp, scheme, policy0=None, max_iter=100):
    """Aggregated PI with every iteration re-assembling all L kernel rows
    and the whole PbarG product: the loop the incremental splice replaces.

    Returns the run's restricted policies and assembled (PbarG, c_bar) per
    iteration, its last R, how it ended (``converged``, ``cycled`` or
    ``capped``), the policy a report would carry, and on convergence the
    full policy and lifted value.
    """
    reps = np.asarray(scheme.grid.rep_indices)
    G = scheme.G
    policy_bar = (
        np.zeros(len(reps), dtype=np.int64)
        if policy0 is None
        else np.asarray(policy0, dtype=np.int64)
    )
    seen = {policy_bar.tobytes()}
    run = SimpleNamespace(policies=[], systems=[], R=None, iterations=0)
    for it in range(1, max_iter + 1):
        run.iterations = it
        run.policies.append(policy_bar)
        PbarG = mdp.kernel_rows_at(reps, policy_bar).csr @ G.csr
        c_bar = mdp.costs_at(reps, policy_bar)
        run.systems.append((PbarG, c_bar))
        run.R = control._solve_aggregate(PbarG, c_bar, mdp.discount)
        W = G.apply(run.R)
        new_bar, _ = control._greedy(mdp, reps, W)
        if np.array_equal(new_bar, policy_bar):
            run.outcome = "converged"
            run.policy, _ = control._greedy(mdp, np.arange(mdp.lattice.size), W)
            apply_P, c = mdp.induced_apply(run.policy)
            run.value = c + mdp.discount * apply_P(W)
            return run
        if new_bar.tobytes() in seen:
            run.outcome, run.policy = "cycled", new_bar
            return run
        seen.add(new_bar.tobytes())
        policy_bar = new_bar
    run.outcome, run.policy = "capped", policy_bar
    return run


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_csr(A, B):
    return all(_same_bytes(getattr(A, k), getattr(B, k)) for k in ("indptr", "indices", "data"))


def _spied_api(monkeypatch, mdp, scheme, **kwargs):
    """Run aggregated PI, recording every ``kernel_rows_at`` call and every
    (PbarG, c_bar) handed to the aggregate solve.

    Returns (report or raised NumericalError, row calls, systems).  Each
    call is (indices, actions, iteration), the iteration counted from 0 by
    the systems solved before it.
    """
    calls, systems = [], []
    rows_at, solve = mdp.kernel_rows_at, control._solve_aggregate

    def spy_rows(indices, actions):
        calls.append((np.array(indices), np.array(actions), len(systems)))
        return rows_at(indices, actions)

    def spy_solve(PbarG, c_bar, alpha):
        systems.append((PbarG, c_bar.copy()))
        return solve(PbarG, c_bar, alpha)

    monkeypatch.setattr(mdp, "kernel_rows_at", spy_rows, raising=False)
    monkeypatch.setattr(control, "_solve_aggregate", spy_solve)
    try:
        outcome = aggregated_policy_iteration(mdp, scheme, **kwargs)
    except NumericalError as err:
        outcome = err
    finally:
        monkeypatch.undo()
    return outcome, calls, systems


def _check_against_oracle(monkeypatch, mdp, scheme, oracle_mdp=None, **kwargs):
    """The incremental run matches the full-rebuild oracle bit for bit:
    result, every assembled system, and the rows it asked the model for.
    The oracle runs on ``oracle_mdp`` when the model keeps state."""
    oracle = _full_rebuild_api(oracle_mdp or mdp, scheme, **kwargs)
    outcome, calls, systems = _spied_api(monkeypatch, mdp, scheme, **kwargs)
    reps = np.asarray(scheme.grid.rep_indices)
    if oracle.outcome == "converged":
        report = outcome
        assert _same_bytes(report.policy, oracle.policy)
        assert _same_bytes(report.value, oracle.value)
    else:
        assert isinstance(outcome, NumericalError)
        report = outcome.report
        assert ("cycled" in str(outcome)) == (oracle.outcome == "cycled")
        assert _same_bytes(report.policy, oracle.policy)
    assert _same_bytes(report.R, oracle.R)
    assert report.iterations == oracle.iterations
    assert len(systems) == oracle.iterations
    # the first iteration assembles all L rows, later ones only the changed
    # reps, each in consecutive blocks of at most chain.BLOCK_NNZ kernel-row
    # entries unless the block is one row
    for k in range(oracle.iterations):
        blocks = [(i, a) for i, a, it in calls if it == k]
        assert blocks, k
        for i, a in blocks:
            assert len(i) == 1 or mdp.kernel_row_sizes(i, a).sum() <= chain.BLOCK_NNZ
        which = np.arange(len(reps))
        if k:
            which = np.flatnonzero(oracle.policies[k] != oracle.policies[k - 1])
        assert np.array_equal(np.concatenate([i for i, _ in blocks]), reps[which])
        assert np.array_equal(np.concatenate([a for _, a in blocks]), oracle.policies[k][which])
    # each spliced system is, array for array, a fresh full assembly
    for (PbarG, c_bar), (PbarG_ref, c_bar_ref) in zip(systems, oracle.systems):
        assert _same_csr(PbarG, PbarG_ref)
        assert _same_bytes(c_bar, c_bar_ref)
    return report, oracle


def _set_block(monkeypatch, mdp, scheme, block):
    """Set chain.BLOCK_NNZ for one run: unchanged, 1 (every row is a block
    of its own), or a fifth of the first assembly's entries."""
    if block == "one_row":
        monkeypatch.setattr(chain, "BLOCK_NNZ", 1)
    elif block == "mid":
        reps = np.asarray(scheme.grid.rep_indices)
        total = mdp.kernel_row_sizes(reps, np.zeros(len(reps), dtype=np.int64)).sum()
        monkeypatch.setattr(chain, "BLOCK_NNZ", int(total) // 5)


BUILDS = pytest.mark.parametrize(
    "build",
    [lambda: build_jrp(jrp_small()), lambda: build_hospital(hospital_2ward())],
    ids=["jrp_small", "hospital2"],
)


@BUILDS
def test_incremental_assembly_matches_full_rebuild(monkeypatch, build):
    mdp = build()
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    _, oracle = _check_against_oracle(monkeypatch, mdp, scheme)
    assert oracle.outcome == "converged" and oracle.iterations >= 3


@BUILDS
@pytest.mark.parametrize("block", ["one_row", "mid"])
def test_blocked_assembly_matches_full_rebuild(monkeypatch, build, block):
    mdp = build()
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    _set_block(monkeypatch, mdp, scheme, block)
    _, oracle = _check_against_oracle(monkeypatch, mdp, scheme)
    assert oracle.outcome == "converged" and oracle.iterations >= 3


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 40),
    n_actions=st.integers(2, 4),
    max_jump=st.integers(1, 3),
    block=st.sampled_from(["default", "one_row", "mid"]),
)
def test_incremental_assembly_matches_full_rebuild_on_tabular(seed, n, n_actions, max_jump, block):
    mdp, *_ = _tabular(seed, (0,), (n - 1,), n_actions=n_actions, max_jump=max_jump)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _set_block(monkeypatch, mdp, scheme, block)
        _check_against_oracle(monkeypatch, mdp, scheme)


def test_reps_changed_counts_rebuilt_rows_on_hospital2(monkeypatch):
    mdp = build_hospital(hospital_2ward())
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    report, calls, _ = _spied_api(monkeypatch, mdp, scheme)
    L = scheme.grid.size
    assert len(report.reps_changed) == report.iterations
    assert report.reps_changed[-1] == 0 and min(report.reps_changed[:-1]) > 0
    assert sum(len(idx) for idx, *_ in calls) == L + sum(report.reps_changed)
    assert exact_policy_iteration(mdp).reps_changed == []


def test_first_assembly_memory_is_bounded_on_hospital3():
    # the 1,000 representative kernel rows hold 10.4M entries; built at once
    # they took 249 MiB, in blocks the transient is one block's rows
    mdp = build_hospital(hospital_3ward())
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    reps = np.asarray(scheme.grid.rep_indices)
    L = len(reps)
    policy_bar = np.zeros(L, dtype=np.int64)
    mdp.action_counts()  # the action table is built before tracing
    tracemalloc.start()
    try:
        PbarG, _ = control._assemble_rows(mdp, scheme.G, reps, policy_bar, np.arange(L), None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mdp.kernel_row_sizes(reps, policy_bar).sum() > 20 * chain.BLOCK_NNZ
    size = PbarG.data.nbytes + PbarG.indices.nbytes + PbarG.indptr.nbytes
    # the block products and their stack, plus one block in flight
    bound = 2 * size + 32 * chain.BLOCK_NNZ
    assert peak <= bound, f"peak {peak} bytes against {bound}"


def test_aggregated_pi_iteration_cap_reports_last_iterate(monkeypatch):
    mdp, *_ = _tabular(17, (0,), (40,), n_actions=3)
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    full = _full_rebuild_api(mdp, scheme)
    assert full.outcome == "converged" and full.iterations >= 3
    cap = full.iterations - 1  # stops after at least one splice
    report, oracle = _check_against_oracle(monkeypatch, mdp, scheme, max_iter=cap)
    assert oracle.outcome == "capped"
    assert report.converged is False and report.iterations == cap
    assert _same_bytes(report.policy, full.policies[cap])
    assert len(report.reps_changed) == cap and min(report.reps_changed) > 0


class _AlternatingMdp(TabularMdp):
    """A model whose greedy step at the representatives alternates between
    two fixed restricted policies, so aggregated PI cycles."""

    def __init__(self, *args, alternate):
        super().__init__(*args)
        self.alternate = alternate
        self.sweeps = 0

    def greedy_at(self, indices, W):
        actions = self.alternate[self.sweeps % 2]
        self.sweeps += 1
        return actions.copy(), np.zeros(len(actions))


def test_aggregated_pi_cycle_reports_last_iterate(monkeypatch):
    base, *_ = _tabular(18, (0,), (40,), n_actions=2)
    scheme = build_scheme(build_grid(base.lattice, 0.45))
    L = scheme.grid.size
    A = (np.arange(L) % 2 == 0).astype(np.int64)  # 0 -> A changes the even reps
    B = 1 - A  # A -> B sends the even reps back to their start action

    def model():
        return _AlternatingMdp(
            base.lattice, base.kernels, base.costs, base.discount, alternate=(A, B)
        )

    report, oracle = _check_against_oracle(monkeypatch, model(), scheme, oracle_mdp=model())
    assert oracle.outcome == "cycled" and oracle.iterations == 3
    assert report.converged is False
    assert _same_bytes(report.policy, A)
    # the last R evaluates B, whose system was spliced from A's
    assert _same_bytes(report.R, oracle.R)
    assert report.reps_changed == [(L + 1) // 2, L, L]


# ---------------------------------------------------------------------------
# residual and gap reports
# ---------------------------------------------------------------------------

def test_bellman_residual_zero_candidate():
    mdp, P_list, C, alpha = _tabular(15, (0,), (10,), n_actions=2)
    policy = np.zeros(11, dtype=np.int64)
    report = bellman_residual(mdp, policy, np.zeros(11))
    # with W = 0 the residual is exactly the one-step cost
    assert_allclose(report.per_state, C[0], atol=1e-15)


def test_bellman_residual_vanishes_at_fixed_point():
    mdp, *_ = _tabular(16, (0,), (15,), n_actions=2)
    policy = np.ones(16, dtype=np.int64)
    V = exact_value(induced_mrp(mdp, policy))
    report = bellman_residual(mdp, policy, V)
    assert report.max_rel <= 1e-8
    assert report.mean_rel <= report.max_rel


def test_gap_report_zero_and_order():
    V = np.linspace(1.0, 9.0, 12)
    zero = optimality_gap_report(V, V)
    assert zero.mean_rel == 0.0 and zero.max_rel == 0.0
    above = optimality_gap_report(V, V * 1.02)
    assert np.all(above.rel_gap >= 0.0)
    assert above.max_rel == pytest.approx(0.02)
    with pytest.raises(ValueError):
        optimality_gap_report(V, V[:-1])
