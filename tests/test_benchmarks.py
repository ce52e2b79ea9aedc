"""Benchmark-instance tests: kernel rows and expected costs against
brute-force enumeration oracles, action decoding, and the walk builders."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _oracles as orc
import _post_oracles as po
from momentagg import (
    ResourceLimitError,
    aggregated_policy_iteration,
    benchmarks,
    build_grid,
    build_scheme,
    chain,
    exact_policy_iteration,
    exact_value,
    induced_mrp,
    local_moments,
    max_jump,
)
from momentagg.benchmarks import (
    HospitalOverflowMdp,
    JointReplenishmentMdp,
    JrpParams,
    build_hospital,
    build_jrp,
    build_reflecting_rw,
    build_simple_rw,
    build_two_point_chain,
    hospital_2ward,
    hospital_3ward,
    hospital_4ward,
    jrp_large,
    jrp_small,
    load_mrp,
    save_mrp,
)
from momentagg.chain import MarkovRewardProcess, RowStochasticMatrix
from momentagg.lattice import StateLattice


def _jrp_tiny(widen=False):
    # 14 x 14 box: small enough to exercise everything exhaustively
    return JointReplenishmentMdp(
        JrpParams(
            demand_low=(0, 1),
            demand_high=(2, 3),
            holding=(1.0, 2.0),
            backorder=(9.0, 7.0),
            minor_cost=(4.0, 3.0),
            major_cost=11.0,
            truck_capacity=3,
            lower=(-5, -5),
            upper=(8, 8),
            discount=0.95,
            widen_orders=widen,
        )
    )


def _row_as_dict(mdp, i, a):
    cols, probs = po.one_row(mdp, i, a)
    out = {}
    for c, p in zip(cols, probs):
        key = tuple(mdp.lattice.to_coords(int(c)))
        out[key] = out.get(key, 0.0) + p
    return out


# ---------------------------------------------------------------------------
# instance sizes
# ---------------------------------------------------------------------------

def test_benchmark_state_counts():
    assert build_jrp(jrp_small()).lattice.size == orc.N_JRP_SMALL
    assert build_jrp(jrp_large()).lattice.size == orc.N_JRP_LARGE
    assert build_hospital(hospital_2ward()).lattice.size == orc.N_HOSPITAL_2
    assert build_hospital(hospital_3ward()).lattice.size == orc.N_HOSPITAL_3
    assert build_hospital(hospital_4ward()).lattice.size == orc.N_HOSPITAL_4


def test_jrp_params_validation():
    good = jrp_small()
    with pytest.raises(ValueError, match="two items"):
        JrpParams(
            demand_low=(0,), demand_high=(1,), holding=(1,), backorder=(1,),
            minor_cost=(1,), major_cost=1, truck_capacity=1,
            lower=(0,), upper=(3,),
        )
    with pytest.raises(ValueError, match="demand bounds"):
        JrpParams(
            demand_low=(0, 2), demand_high=(1, 1), holding=good.holding,
            backorder=good.backorder, minor_cost=good.minor_cost,
            major_cost=good.major_cost, truck_capacity=good.truck_capacity,
            lower=good.lower, upper=good.upper,
        )


NAN = float("nan")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"minor_cost": (40.0,)}, "two items"),
        ({"holding": (1.0, 1.0, 1.0)}, "two items"),
        ({"upper": (40,)}, "two items"),
        ({"major_cost": NAN}, "finite and nonnegative"),
        ({"backorder": (19.0, float("inf"))}, "finite and nonnegative"),
        ({"holding": (-1.0, 1.0)}, "finite and nonnegative"),
        ({"discount": 1.0}, "discount"),
        ({"discount": 0.0}, "discount"),
    ],
)
def test_jrp_params_rejected_at_construction(change, message):
    # costs_at would index past a short tuple, and NaN costs would reach
    # the solver; both are refused before any model is built
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(jrp_small(), **change)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"overflow": ((0.0, 5.0, 1.0), (1.0, 0.0, 1.0))}, "overflow is J x J"),
        ({"overflow": ((0.0, 5.0),)}, "overflow is J x J"),
        ({"holding": (5.0, NAN)}, "finite and nonnegative"),
        ({"overflow": ((0.0, -5.0), (1.0, 0.0))}, "finite and nonnegative"),
        ({"beds": (-1, 12)}, "0 <= bed count"),
        ({"beds": (50, 12)}, "occupancy cap"),
        ({"arrival_rates": (NAN, 2.8)}, "arrival rate"),
        ({"arrival_rates": (float("inf"), 2.8)}, "finite arrival rate"),
        ({"discount": 1.0}, "discount"),
        ({"discount": -0.5}, "discount"),
        ({"beds": (2.5, 12)}, "integers"),
        ({"caps": (42.5, 42)}, "integers"),
        ({"beds": (12, NAN)}, "integers"),
    ],
)
def test_hospital_params_rejected_at_construction(change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(hospital_2ward(), **change)


def test_integral_bed_counts_and_caps_are_stored_as_ints():
    params = dataclasses.replace(hospital_2ward(), beds=(12.0, np.int64(12)), caps=(42.0, 42))
    assert params == hospital_2ward() and all(type(v) is int for v in params.beds + params.caps)
    table = build_hospital(params).table  # float caps made the build raise TypeError
    assert table.costs.tobytes() == build_hospital(hospital_2ward()).table.costs.tobytes()


# ---------------------------------------------------------------------------
# joint replenishment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("widen", [False, True])
def test_jrp_kernel_rows_match_enumeration(widen):
    mdp = _jrp_tiny(widen)
    ranges = ((0, 2), (1, 3))
    rng = np.random.default_rng(7)
    for i in rng.integers(0, mdp.lattice.size, 25):
        i = int(i)
        I = tuple(mdp.lattice.to_coords(i))
        for a in rng.integers(0, mdp.n_actions(i), 4):
            q = mdp.action_quantities(i, int(a))
            expect = orc.jrp_kernel_row(I, q, ranges, mdp.lattice.lower)
            got = _row_as_dict(mdp, i, int(a))
            assert set(got) == set(expect)
            for nxt in expect:
                assert got[nxt] == pytest.approx(expect[nxt], abs=1e-12)


@pytest.mark.parametrize("widen", [False, True])
def test_jrp_costs_match_enumeration(widen):
    mdp = _jrp_tiny(widen)
    p = mdp.params
    ranges = ((0, 2), (1, 3))
    rng = np.random.default_rng(8)
    for i in rng.integers(0, mdp.lattice.size, 25):
        i = int(i)
        I = tuple(mdp.lattice.to_coords(i))
        for a in rng.integers(0, mdp.n_actions(i), 4):
            q = mdp.action_quantities(i, int(a))
            expect = orc.jrp_expected_cost(
                I, q, ranges, mdp.lattice.lower,
                p.holding, p.backorder, p.minor_cost, p.major_cost,
                p.truck_capacity,
            )
            assert po.one_cost(mdp, i, int(a)) == pytest.approx(expect, rel=1e-12)


def test_jrp_action_space():
    mdp = _jrp_tiny()
    up = mdp.lattice.upper
    for i in (0, 57, mdp.lattice.size - 1):
        I = mdp.lattice.to_coords(i)
        assert mdp.n_actions(i) == (up[0] - I[0] + 1) * (up[1] - I[1] + 1)
        assert mdp.action_quantities(i, 0) == (0, 0)
        top = mdp.n_actions(i) - 1
        q1, q2 = mdp.action_quantities(i, top)
        assert (I[0] + q1, I[1] + q2) == tuple(up)


def test_jrp_widened_action_space():
    mdp = _jrp_tiny(widen=True)
    up, i = mdp.lattice.upper, 0
    I = mdp.lattice.to_coords(i)
    # ordering up to u_i - I_i + min demand is allowed when widened
    assert mdp.n_actions(i) == (up[0] - I[0] + 1) * (up[1] - I[1] + 1 + 1)


def test_jrp_zero_demand_no_order_is_absorbing():
    mdp = JointReplenishmentMdp(
        JrpParams(
            demand_low=(0, 0),
            demand_high=(0, 0),
            holding=(2.0, 3.0),
            backorder=(11.0, 13.0),
            minor_cost=(4.0, 3.0),
            major_cost=10.0,
            truck_capacity=2,
            lower=(-3, -3),
            upper=(3, 3),
        )
    )
    for I in [(-2, 1), (0, 0), (3, -3)]:
        i = mdp.lattice.to_index(I)
        row = _row_as_dict(mdp, i, 0)
        assert row == {I: pytest.approx(1.0)}
        expect = (
            2.0 * max(I[0], 0) + 11.0 * max(-I[0], 0)
            + 3.0 * max(I[1], 0) + 13.0 * max(-I[1], 0)
        )
        assert po.one_cost(mdp, i, 0) == pytest.approx(expect)


def _converged_W(mdp):
    """G R of aggregated PI run to convergence on ``mdp``."""
    scheme = build_scheme(build_grid(mdp.lattice, 0.45))
    return scheme.G.apply(aggregated_policy_iteration(mdp, scheme).R)


_GREEDY_W = {
    "random": lambda mdp, rng: rng.random(mdp.lattice.size) * 500.0,
    "zeros": lambda mdp, rng: np.zeros(mdp.lattice.size),
    # a coarse W of whole hundreds; "zeros" has the most tied minima
    # (134 states of jrp_small)
    "hundreds": lambda mdp, rng: 100.0 * rng.integers(0, 4, mdp.lattice.size),
    "api": lambda mdp, rng: _converged_W(mdp),
}


def _assert_same_greedy(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("w_kind", list(_GREEDY_W))
@pytest.mark.parametrize(
    "make", [lambda: build_jrp(jrp_small()), lambda: _jrp_tiny(widen=True)],
    ids=["jrp_small", "widened"],
)
def test_jrp_greedy_matches_generic_sweep(make, w_kind):
    # every state bit for bit against the whole-block scan the truck bound
    # replaced, against the per-state loop the post-order table replaced
    # (the table adds the order costs in one rounding where the loop takes
    # three), and states with few actions against the generic sweep
    mdp = make()
    rng = np.random.default_rng(9)
    W = _GREEDY_W[w_kind](mdp, rng)
    idx = np.arange(mdp.lattice.size)
    actions, qvals = mdp.greedy_at(idx, W)
    _assert_same_greedy((actions, qvals), po.jrp_greedy_corners(mdp, idx, W))
    ref_actions, ref_qvals = po.jrp_greedy_loop(mdp, idx, W)
    assert np.array_equal(actions, ref_actions)
    assert np.all(np.abs(qvals - ref_qvals) <= 2 * np.spacing(np.abs(ref_qvals)))
    few = rng.choice(np.flatnonzero(mdp.action_counts() <= 200), 20, replace=False)
    gen_actions, gen_qvals = po.greedy_at(mdp, few, W)
    assert np.array_equal(actions[few], gen_actions)
    assert_allclose(qvals[few], gen_qvals, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("w_kind", ["zeros", "api"])
def test_jrp_large_greedy_equals_whole_block_scan(w_kind):
    # states that scan nothing: about a third at the converged W, where the
    # rest scan corners of up to nine trucks, and more than half at W = 0
    mdp = build_jrp(jrp_large())
    W = _GREEDY_W[w_kind](mdp, np.random.default_rng(9))
    idx = np.arange(mdp.lattice.size)
    _assert_same_greedy(mdp.greedy_at(idx, W), po.jrp_greedy_corners(mdp, idx, W))


def test_jrp_greedy_on_any_index_set_equals_whole_block_scan():
    mdp = build_jrp(jrp_small())
    rng = np.random.default_rng(14)
    n = mdp.lattice.size
    for W in (_converged_W(mdp), rng.random(n) * 500.0):
        for idx in (
            rng.permutation(n),
            rng.integers(0, n, 3 * n),  # repeated states, across sweep blocks
            np.array([n - 1, 0, n - 1, 7]),
            np.zeros(0, dtype=np.int64),
        ):
            got = mdp.greedy_at(idx, W)
            assert got[0].shape == got[1].shape == idx.shape
            _assert_same_greedy(got, po.jrp_greedy_corners(mdp, idx, W))


@pytest.mark.parametrize(
    "costs",
    [
        dict(minor_cost=(0.0, 10.0)),
        dict(major_cost=0.0),
        # no floor below the most trucks is above zero: every state scans
        # its whole block
        dict(minor_cost=(0.0, 0.0), major_cost=0.0),
    ],
    ids=["minor0", "major0", "both0"],
)
def test_jrp_greedy_with_zero_order_costs_equals_whole_block_scan(costs):
    # the floors come from the order-cost table, so they stay lower bounds
    # when a minor or the major cost is zero
    mdp = build_jrp(dataclasses.replace(jrp_small(), **costs))
    rng = np.random.default_rng(15)
    idx = np.arange(mdp.lattice.size)
    for W in (_converged_W(mdp), 100.0 * rng.integers(0, 4, len(idx))):
        _assert_same_greedy(mdp.greedy_at(idx, W), po.jrp_greedy_corners(mdp, idx, W))


@pytest.mark.parametrize(
    "make",
    [jrp_small, jrp_large, lambda: dataclasses.replace(jrp_small(), major_cost=0.0)],
    ids=["jrp_small", "jrp_large", "major0"],
)
def test_jrp_truck_floors_are_least_costs_beyond_each_truck_count(make):
    mdp = build_jrp(make())
    C = mdp.params.truck_capacity
    q1, q2 = np.indices(mdp._order_costs.shape)
    trucks = -((q1 + q2) // -C)
    T = trucks.max()
    assert len(mdp._floors) == T + 1 and mdp._floors[T] == np.inf
    for t in range(T):
        assert mdp._floors[t] == mdp._order_costs[trucks > t].min()


@pytest.mark.parametrize("widen", [False, True])
def test_jrp_kernel_rows_at_matches_generic_rows(widen):
    # the parent's COO rows sum a clamped demand's probabilities pair by
    # pair, the shared rows take products of per-item sums: same entries,
    # values within a rounding
    mdp = _jrp_tiny(widen)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, mdp.lattice.size, 60)
    actions = np.array([rng.integers(0, mdp.n_actions(i)) for i in idx])
    P = mdp.kernel_rows_at(idx, actions).csr
    P_ref = po.jrp_kernel_rows(mdp, idx, actions).csr
    assert np.array_equal(P.indptr, P_ref.indptr)
    assert np.array_equal(P.indices, P_ref.indices)
    assert_allclose(P.data, P_ref.data, rtol=1e-15, atol=0)
    assert np.array_equal(mdp.action_counts(), po.action_counts(mdp))
    actions[7] = mdp.n_actions(int(idx[7]))
    with pytest.raises(ValueError, match=f"infeasible in state {idx[7]}"):
        mdp.kernel_rows_at(idx, actions)


def test_jrp_induced_matches_generic():
    mdp = _jrp_tiny()
    rng = np.random.default_rng(10)
    policy = np.array(
        [rng.integers(0, mdp.n_actions(i)) for i in range(mdp.lattice.size)],
        dtype=np.int64,
    )
    P, c = mdp.induced(policy)
    idx = np.arange(mdp.lattice.size)
    P_ref = po.jrp_kernel_rows(mdp, idx, policy).csr
    assert np.array_equal(P.csr.indptr, P_ref.indptr)
    assert np.array_equal(P.csr.indices, P_ref.indices)
    assert_allclose(P.csr.data, P_ref.data, rtol=1e-15, atol=0)
    assert np.array_equal(c, po.jrp_costs(mdp, idx, policy))
    P_gen, c_gen = po.induced(mdp, policy)
    assert all(
        np.array_equal(getattr(P.csr, k), getattr(P_gen.csr, k))
        for k in ("indptr", "indices", "data")
    )
    assert np.array_equal(c, c_gen)


def _random_policy(mdp, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, mdp.action_counts()).astype(np.int64)


@pytest.mark.parametrize("params", [jrp_small, jrp_large])
def test_jrp_induced_apply_matches_materialized_chain(params, monkeypatch):
    mdp = build_jrp(params())
    n = mdp.lattice.size
    rng = np.random.default_rng(21)
    for seed in (0, 1):
        policy = _random_policy(mdp, seed)
        P, c_ref = mdp.induced(policy)
        # matrix-free: neither the N-row kernel nor any stochastic matrix
        with monkeypatch.context() as m:
            m.setattr(mdp, "induced", None)
            m.setattr(benchmarks, "RowStochasticMatrix", None)
            apply_P, c = mdp.induced_apply(policy)
            f = rng.random(n) * 100.0
            got = apply_P(f)
        assert np.array_equal(c, c_ref)
        assert_allclose(got, P.apply(f), rtol=1e-14, atol=0)
    assert_allclose(apply_P(np.ones(n)), 1.0, rtol=1e-14, atol=0)


def test_jrp_induced_apply_rejects_infeasible_action():
    mdp = build_jrp(jrp_small())
    policy = np.zeros(mdp.lattice.size, dtype=np.int64)
    policy[123] = mdp.n_actions(123)
    with pytest.raises(ValueError, match="infeasible in state 123"):
        mdp.induced_apply(policy)
    with pytest.raises(ValueError, match="each of"):
        mdp.induced_apply(policy[:-1])


def test_jrp_exact_pi_same_with_materialized_chain(monkeypatch):
    mdp = build_jrp(jrp_small())
    got = exact_policy_iteration(mdp)
    monkeypatch.setattr(JointReplenishmentMdp, "induced_apply", po.induced_apply)
    expect = exact_policy_iteration(mdp)
    assert got.iterations == expect.iterations
    assert np.array_equal(got.policy, expect.policy)
    assert_allclose(got.value, expect.value, rtol=1e-12)


# ---------------------------------------------------------------------------
# hospital overflow
# ---------------------------------------------------------------------------

def test_ward_matrix_matches_enumeration():
    mdp = build_hospital(hospital_2ward())
    p = mdp.params
    T = mdp.kernels[0]
    assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)
    for w in (0, 5, 12, 30, 42):
        expect = orc.hospital_ward_row(
            w, p.beds[0], p.service_probs[0], p.arrival_rates[0], p.caps[0]
        )
        assert_allclose(T[w], expect, atol=1e-13)


@pytest.mark.parametrize("make", [hospital_2ward, hospital_3ward, hospital_4ward])
def test_ward_matrices_equal_the_stats_oracle(make):
    p = make()
    for j, K in enumerate(build_hospital(p).kernels):
        want = po.ward_matrix(p.caps[j], p.beds[j], p.service_probs[j], p.arrival_rates[j])
        assert K.dtype == want.dtype and K.tobytes() == want.tobytes(), j


@settings(max_examples=60, deadline=None)
@given(
    cap=st.integers(1, 40),
    beds=st.integers(1, 40),
    p_serve=st.floats(1e-3, 1.0),
    lam=st.floats(1e-3, 50.0),
)
def test_ward_matrix_equals_the_stats_oracle(cap, beds, p_serve, lam):
    beds = min(beds, cap)
    got = benchmarks._ward_matrix(cap, beds, p_serve, lam)
    assert got.tobytes() == po.ward_matrix(cap, beds, p_serve, lam).tobytes()


def test_import_leaves_scipy_stats_out():
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    code = "import sys, momentagg; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_hospital_actions_match_bruteforce():
    mdp = build_hospital(hospital_2ward())
    beds = np.asarray(mdp.params.beds)
    cap = np.asarray(mdp.params.caps)
    for x in [(0, 0), (14, 9), (20, 3), (13, 13), (42, 0)]:
        i = mdp.lattice.to_index(x)
        moves, posts, costs = mdp._actions(i)
        expect = orc.hospital_actions_bruteforce(np.asarray(x), beds, cap)
        assert len(moves) == len(expect)
        for u, u_ref in zip(moves, expect):
            assert np.array_equal(u, u_ref)
        # posts transcribe the routing arithmetic
        for a, u in enumerate(moves):
            post = orc.hospital_post_action(x, u)
            assert posts[a] == mdp.lattice.to_index(post)


def test_hospital_3ward_action_order():
    mdp = build_hospital(hospital_3ward())
    x = (14, 8, 12)
    i = mdp.lattice.to_index(x)
    moves, _, _ = mdp._actions(i)
    expect = orc.hospital_actions_bruteforce(
        np.asarray(x), np.asarray(mdp.params.beds), np.asarray(mdp.params.caps)
    )
    assert len(moves) == len(expect)
    assert all(np.array_equal(u, v) for u, v in zip(moves, expect))


def test_hospital_nothing_waiting_single_action():
    mdp = build_hospital(hospital_2ward())
    i = mdp.lattice.to_index((4, 11))  # under the bed counts everywhere
    assert mdp.n_actions(i) == 1
    assert po.one_cost(mdp, i, 0) == 0.0
    assert np.all(mdp.routing_matrix(i, 0) == 0)


def test_hospital_boarding_cost():
    mdp = build_hospital(hospital_2ward())
    i = mdp.lattice.to_index((15, 12))  # 3 waiting at ward 0, no free beds
    assert mdp.n_actions(i) == 1
    assert po.one_cost(mdp, i, 0) == pytest.approx(3 * mdp.params.holding[0])


def test_hospital_kernel_row_factorizes():
    mdp = build_hospital(hospital_2ward())
    x = (16, 4)
    i = mdp.lattice.to_index(x)
    a = 2
    post = orc.hospital_post_action(x, mdp.routing_matrix(i, a))
    dense = np.zeros(mdp.lattice.size)
    cols, probs = po.one_row(mdp, i, a)
    dense[cols] = probs
    expect = np.outer(mdp.kernels[0][post[0]], mdp.kernels[1][post[1]]).ravel()
    assert_allclose(dense, expect, atol=1e-14)


def test_hospital_greedy_matches_generic_sweep():
    mdp = build_hospital(hospital_2ward())
    rng = np.random.default_rng(11)
    W = rng.random(mdp.lattice.size) * 100.0
    idx = rng.integers(0, mdp.lattice.size, 30)
    actions, qvals = mdp.greedy_at(idx, W)
    ref_actions, ref_qvals = po.greedy_at(mdp, idx, W)
    assert np.array_equal(actions, ref_actions)
    assert_allclose(qvals, ref_qvals, atol=1e-9)


def test_hospital_induced_consistent_with_apply():
    mdp = build_hospital(hospital_2ward())
    policy = np.zeros(mdp.lattice.size, dtype=np.int64)
    P, c = mdp.induced(policy)
    apply_P, c2 = mdp.induced_apply(policy)
    f = np.random.default_rng(12).random(mdp.lattice.size)
    assert_allclose(P.apply(f), apply_P(f), atol=1e-10)
    assert_allclose(c, c2)
    assert_allclose(np.asarray(P.csr.sum(axis=1)).ravel(), 1.0, atol=1e-9)


def test_hospital_large_induced_guard():
    mdp = build_hospital(hospital_3ward())
    with pytest.raises(ResourceLimitError, match="induced_apply"):
        mdp.induced(np.zeros(mdp.lattice.size, dtype=np.int64))


# ---------------------------------------------------------------------------
# random walks
# ---------------------------------------------------------------------------

def test_simple_rw_structure_and_value():
    n = 20
    mrp = build_simple_rw(n)
    P = mrp.P.toarray()
    assert P[0, 0] == 1.0 and P[n, n] == 1.0
    assert P[5, 4] == 0.5 and P[5, 6] == 0.5
    assert_allclose(mrp.cost, np.arange(n + 1))
    x = np.arange(n + 1)
    assert_allclose(exact_value(mrp), x / (1.0 - 0.9), atol=1e-8)
    mom = local_moments(mrp)
    assert_allclose(mom.mu[1:-1], 0.0, atol=1e-12)  # martingale interior


def test_simple_rw_reflecting_variant():
    mrp = build_simple_rw(6, absorbing=False)
    P = mrp.P.toarray()
    assert P[0, 1] == 1.0 and P[6, 5] == 1.0


def test_two_point_chain_moments():
    n = 10
    two = build_two_point_chain(n)
    P = two.P.toarray()
    x = 3
    assert P[x, n] == pytest.approx(x / n)
    assert P[x, 0] == pytest.approx(1 - x / n)
    mom = local_moments(two)
    assert_allclose(mom.mu.ravel(), 0.0, atol=1e-12)
    states = np.arange(n + 1.0)
    assert_allclose(
        mom.sigma2.reshape(-1), n * states - states**2, atol=1e-10
    )


def test_two_point_value_equals_walk_value():
    walk = build_simple_rw(30)
    two = build_two_point_chain(30)
    assert_allclose(exact_value(two), exact_value(walk), atol=1e-7)


def test_reflecting_rw_seeded():
    mrp = build_reflecting_rw(50, seed=3)
    assert mrp.lattice.lower[0] == 1 and mrp.lattice.upper[0] == 50
    P = mrp.P.toarray()
    assert P[0, 1] == 1.0 and P[-1, -2] == 1.0
    up = 0.5 - 0.1 * np.random.default_rng(3).random(48)
    assert_allclose(np.diag(P, 1)[1:], up, atol=1e-15)
    assert_allclose(mrp.cost, np.arange(1, 51.0) ** 2)
    again = build_reflecting_rw(50, seed=3)
    assert_allclose(P, again.P.toarray())
    other = build_reflecting_rw(50, seed=4)
    assert not np.allclose(P, other.P.toarray())


def test_walk_builders_validate_size():
    with pytest.raises(ValueError):
        build_simple_rw(1)
    with pytest.raises(ValueError):
        build_two_point_chain(1)
    with pytest.raises(ValueError):
        build_reflecting_rw(2, seed=0)


# the walk builders as they were before P was built from whole arrays:
# Python lists filled state by state, then summed into CSR by from_coo


def _loop_simple_rw(n, absorbing=True, *, alpha=0.9):
    lattice = StateLattice([0], [n])
    rows, cols, data = [0, n], [0 if absorbing else 1, n if absorbing else n - 1], [1.0, 1.0]
    for i in range(1, n):
        rows += [i, i]
        cols += [i - 1, i + 1]
        data += [0.5, 0.5]
    P = RowStochasticMatrix.from_coo(rows, cols, data, (n + 1, n + 1))
    return MarkovRewardProcess(lattice, P, np.arange(n + 1, dtype=np.float64), alpha)


def _loop_two_point_chain(n, *, alpha=0.9):
    lattice = StateLattice([0], [n])
    rows, cols, data = [], [], []
    for x in range(n + 1):
        if x > 0:
            rows.append(x)
            cols.append(n)
            data.append(x / n)
        if x < n:
            rows.append(x)
            cols.append(0)
            data.append(1.0 - x / n)
    P = RowStochasticMatrix.from_coo(rows, cols, data, (n + 1, n + 1))
    return MarkovRewardProcess(lattice, P, np.arange(n + 1, dtype=np.float64), alpha)


def _loop_reflecting_rw(n, seed, *, alpha=0.95):
    lattice = StateLattice([1], [n])
    up = 0.5 - 0.1 * np.random.default_rng(seed).random(max(n - 2, 0))
    rows, cols, data = [0, n - 1], [1, n - 2], [1.0, 1.0]
    for k, i in enumerate(range(2, n)):
        rows += [i - 1, i - 1]
        cols += [i, i - 2]
        data += [float(up[k]), float(1.0 - up[k])]
    P = RowStochasticMatrix.from_coo(rows, cols, data, (n, n))
    cost = np.arange(1, n + 1, dtype=np.float64) ** 2
    return MarkovRewardProcess(lattice, P, cost, alpha)


def _assert_same_process(got, want):
    """Bit-identical CSR arrays (dtypes included), cost, lattice, discount."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.P.csr, name), getattr(want.P.csr, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.P.shape == want.P.shape
    assert got.cost.dtype == want.cost.dtype
    assert got.cost.tobytes() == want.cost.tobytes()
    assert got.lattice == want.lattice
    assert got.discount == want.discount


@pytest.mark.parametrize("n", [3, 4, 50, 2000])
@pytest.mark.parametrize("seed", [0, 3, 7, 2**31 + 5])
def test_reflecting_rw_matches_loop_builder(n, seed):
    _assert_same_process(build_reflecting_rw(n, seed), _loop_reflecting_rw(n, seed))


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("absorbing", [True, False])
def test_simple_rw_matches_loop_builder(n, absorbing):
    _assert_same_process(
        build_simple_rw(n, absorbing=absorbing), _loop_simple_rw(n, absorbing=absorbing)
    )


@pytest.mark.parametrize("n", [2, 30])
def test_two_point_chain_matches_loop_builder(n):
    _assert_same_process(build_two_point_chain(n), _loop_two_point_chain(n))


def test_walk_index_dtype_follows_the_entry_count(monkeypatch):
    # a walk's indptr runs to its 2 size - 2 entries, past size: int32
    # would wrap for 2^30 < size < 2^31 (a walk too large to build here)
    assert chain.index_dtype(2**31 - 1) is np.int32
    assert chain.index_dtype(2**31) is np.int64
    bounds = []
    monkeypatch.setattr(chain, "index_dtype", lambda bound: bounds.append(bound) or np.int64)
    build_reflecting_rw(50, seed=0)
    assert bounds == [98]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 500), seed=st.integers(0, 2**32 - 1))
def test_walk_builders_match_loop_builders_sweep(n, seed):
    _assert_same_process(build_reflecting_rw(n, seed), _loop_reflecting_rw(n, seed))
    _assert_same_process(build_simple_rw(n, absorbing=seed % 2 == 0),
                         _loop_simple_rw(n, absorbing=seed % 2 == 0))
    _assert_same_process(build_two_point_chain(n), _loop_two_point_chain(n))


# ---------------------------------------------------------------------------
# maximal jumps on the benchmark chains
# ---------------------------------------------------------------------------

def _max_jump_per_row(mrp):
    states = mrp.lattice.all_states().astype(np.float64)
    out = np.empty(mrp.lattice.size)
    for i in range(mrp.lattice.size):
        cols, _ = mrp.P.row(i)
        out[i] = np.max(np.linalg.norm(states[cols] - states[i], axis=1))
    return out


@pytest.fixture(scope="module")
def jump_chains():
    jrp = build_jrp(jrp_small())
    return {
        "reflecting_rw": build_reflecting_rw(2000, seed=11),
        "jrp_small": induced_mrp(jrp, np.zeros(jrp.lattice.size, dtype=np.int64)),
    }


@pytest.mark.parametrize("name", ["reflecting_rw", "jrp_small"])
def test_max_jump_matches_per_row_oracle(jump_chains, name, monkeypatch):
    mrp = jump_chains[name]
    want = _max_jump_per_row(mrp)
    assert max_jump(mrp).tobytes() == want.tobytes()
    # budgets that force many blocks; at 1 and 3 every row of two or more
    # entries is over budget and forms a block of its own
    for budget in (1, 3, 37, 1000):
        monkeypatch.setattr(chain, "BLOCK_NNZ", budget)
        assert max_jump(mrp).tobytes() == want.tobytes(), budget


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def test_mrp_round_trip(tmp_path):
    mrp = build_reflecting_rw(40, seed=9)
    path = tmp_path / "walk.npz"
    save_mrp(path, mrp)
    back = load_mrp(path)
    assert back.lattice == mrp.lattice
    assert back.discount == mrp.discount
    assert_allclose(back.cost, mrp.cost)
    assert_allclose(back.P.toarray(), mrp.P.toarray())
    assert_allclose(exact_value(back), exact_value(mrp), atol=1e-9)
