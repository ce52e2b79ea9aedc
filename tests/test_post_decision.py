"""The shared post-decision layer against the per-family code it replaced.

``PostDecisionMdp`` defines ``expect``, kernel rows and the induced chain
once for joint replenishment and hospital overflow.  The
oracles in ``_post_oracles`` are the parent per-class implementations and
the dense-span row expansion that ``chain.row_kron`` replaced.
The hospital keeps its contraction order (axis 0 first), so everything
there is bit-equal; its random small instances are checked in
``test_hospital_table``.  Joint replenishment now contracts axis 0 first where
it used to contract axis 1 first, and its rows take products of per-item
sums where the old rows summed demand pairs, so values there agree to a
few roundings of a nonnegative sum.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _post_oracles as po
from test_hospital_table import random_actions
from test_chain import _assert_same_csr
from momentagg import ControlledMdp, ResourceLimitError, RowStochasticMatrix, build_grid, chain
from momentagg.benchmarks import (
    JrpParams,
    PostDecisionMdp,
    build_hospital,
    build_jrp,
    hospital_2ward,
    hospital_3ward,
    hospital_4ward,
    jrp_large,
    jrp_small,
)

# expect: a nonnegative sum of at most 25 terms, summed in another order,
# moves by at most a few dozen roundings relative
SUM_RTOL = 1e-14
# rows: products of per-item sums of at most 5 equal probabilities against
# sums of their products (at most 3.5e-16 apart in 400 random instances)
ROW_RTOL = 1e-15


def _assert_same_structure(got, want, rtol):
    got, want = got.csr, want.csr
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if rtol == 0:
        assert np.array_equal(got.data, want.data)
    else:
        assert_allclose(got.data, want.data, rtol=rtol, atol=0)


# ---------------------------------------------------------------------------
# random small instances
# ---------------------------------------------------------------------------

@st.composite
def jrp_params(draw):
    lower, upper, low, high = [], [], [], []
    for _ in range(2):
        lo = draw(st.integers(-8, 0))
        lower.append(lo)
        upper.append(draw(st.integers(lo + 1, lo + 14)))  # at most 15 levels
        d = draw(st.integers(0, 3))
        low.append(d)
        high.append(draw(st.integers(d, d + 4)))
    cost = st.integers(0, 20).map(float) | st.floats(0.0, 20.0)
    return JrpParams(
        demand_low=tuple(low),
        demand_high=tuple(high),
        holding=(draw(cost), draw(cost)),
        backorder=(draw(cost), draw(cost)),
        minor_cost=(draw(cost), draw(cost)),
        major_cost=draw(cost),
        truck_capacity=draw(st.integers(1, 6)),
        lower=tuple(lower),
        upper=tuple(upper),
        discount=0.95,
        widen_orders=draw(st.booleans()),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=jrp_params(), seed=st.integers(0, 2**16))
def test_jrp_matches_parent_code(params, seed):
    mdp = build_jrp(params)
    n = mdp.lattice.size
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    policy = random_actions(rng, mdp, idx)
    W = rng.random(n) * 100.0
    assert_allclose(mdp.expect(W), po.jrp_expected_next(mdp, W), rtol=SUM_RTOL, atol=0)
    assert np.array_equal(mdp.posts_at(idx, policy), po.jrp_posts(mdp, idx, policy))
    _assert_same_structure(
        mdp.kernel_rows_at(idx, policy), po.jrp_kernel_rows(mdp, idx, policy), ROW_RTOL
    )
    costs = po.jrp_costs(mdp, idx, policy)
    assert np.array_equal(mdp.costs_at(idx, policy), costs)
    few = rng.integers(0, n, 5)
    assert np.array_equal(mdp.costs_at(few, policy[few]), po.costs_at(mdp, few, policy[few]))
    # stacking the one-pair rows renormalizes them once more
    _assert_same_structure(
        mdp.kernel_rows_at(few, policy[few]), po.kernel_rows_at(mdp, few, policy[few]), ROW_RTOL
    )
    apply_P, c = mdp.induced_apply(policy)
    ref_apply, c_ref = po.jrp_induced_apply(mdp, policy)
    assert np.array_equal(c, c_ref)
    assert_allclose(apply_P(W), ref_apply(W), rtol=SUM_RTOL, atol=0)


# ---------------------------------------------------------------------------
# benchmark instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [hospital_2ward, hospital_3ward, hospital_4ward])
def test_hospital_expect_bit_equal_to_contraction(make):
    mdp = build_hospital(make())
    rng = np.random.default_rng(31)
    W = rng.random(mdp.lattice.size) * 500.0
    assert np.array_equal(mdp.expect(W), po.hospital_contract(mdp, W))


@pytest.mark.parametrize("make", [jrp_small, jrp_large])
def test_jrp_benchmark_rows_and_expect_match_parent(make):
    mdp = build_jrp(make())
    rng = np.random.default_rng(32)
    W = rng.random(mdp.lattice.size) * 500.0
    EW = mdp.expect(W)
    assert EW.flags.c_contiguous and EW.shape == mdp.post_shape
    assert_allclose(EW, po.jrp_expected_next(mdp, W), rtol=SUM_RTOL, atol=0)
    idx = rng.integers(0, mdp.lattice.size, 500)
    actions = random_actions(rng, mdp, idx)
    _assert_same_structure(
        mdp.kernel_rows_at(idx, actions), po.jrp_kernel_rows(mdp, idx, actions), ROW_RTOL
    )


MODELS = {
    "hospital2": lambda: build_hospital(hospital_2ward()),
    "hospital3": lambda: build_hospital(hospital_3ward()),
    "jrp_small": lambda: build_jrp(jrp_small()),
    "jrp_large": lambda: build_jrp(jrp_large()),
}


@pytest.mark.parametrize(
    "name, states",
    [
        ("hospital2", "reps"), ("hospital2", "all"),
        ("jrp_small", "reps"), ("jrp_small", "all"),
        ("jrp_large", "reps"), ("jrp_large", "all"),
        ("hospital3", "reps"),
    ],
)
def test_kernel_rows_match_span_expansion(name, states):
    mdp = MODELS[name]()
    if states == "reps":
        idx = np.asarray(build_grid(mdp.lattice, 0.45).rep_indices)
    else:
        idx = np.arange(mdp.lattice.size)
    rng = np.random.default_rng(41)
    for actions in (np.zeros(len(idx), dtype=np.int64), random_actions(rng, mdp, idx)):
        want = RowStochasticMatrix(po.kernel_csr(mdp, mdp.posts_at(idx, actions)))
        _assert_same_csr(mdp.kernel_rows_at(idx, actions).csr, want.csr)


@pytest.mark.parametrize(
    "name, states",
    [
        ("hospital2", "reps"), ("hospital2", "all"),
        ("jrp_small", "reps"), ("jrp_small", "all"),
        ("jrp_large", "reps"), ("hospital3", "reps"),
    ],
)
def test_kernel_row_sizes_bound_every_row(name, states):
    # induced refuses by these sizes before building any row, so each must
    # be at least its row's nnz; it is the row's span
    mdp = MODELS[name]()
    if states == "reps":
        # a quarter of hospital3's representatives keeps the rows at 2.6M entries
        step = 4 if name == "hospital3" else 1
        idx = np.asarray(build_grid(mdp.lattice, 0.45).rep_indices)[::step]
    else:
        idx = np.arange(mdp.lattice.size)
    rng = np.random.default_rng(47)
    for actions in (np.zeros(len(idx), dtype=np.int64), random_actions(rng, mdp, idx)):
        rows = mdp.kernel_rows_at(idx, actions)
        sizes = rows.sizes()
        assert np.array_equal(sizes, _span_sizes(mdp, idx, actions))
        assert np.all(sizes >= np.diff(rows.csr.indptr))


@pytest.mark.parametrize("name", ["hospital2", "jrp_small", "jrp_large"])
def test_induced_matches_span_expansion(name):
    mdp = MODELS[name]()
    idx = np.arange(mdp.lattice.size)
    policy = random_actions(np.random.default_rng(43), mdp, idx)
    P, c = mdp.induced(policy)
    want = RowStochasticMatrix(po.kernel_csr(mdp, mdp.posts_at(idx, policy)))
    _assert_same_csr(P.csr, want.csr)
    assert np.array_equal(c, mdp.costs_at(idx, policy))


def _span_sizes(mdp, indices, actions):
    """Entries each kernel row's span holds: the product of the per-axis
    widths from first to last nonzero."""
    w = np.unravel_index(mdp.posts_at(indices, actions), mdp.post_shape)
    total = np.ones(len(w[0]), dtype=np.int64)
    for w_j, K in zip(w, mdp.kernels):
        K = K.toarray() if hasattr(K, "toarray") else K
        nz = K[w_j] != 0
        first = np.argmax(nz, axis=1)
        last = K.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
        total *= last - first + 1
    return total


def _span_entries(mdp, policy):
    """Entries the induced rows' spans hold, summed over states."""
    return int(_span_sizes(mdp, np.arange(mdp.lattice.size), policy).sum())


@pytest.mark.parametrize(
    "build, fits",
    [
        (lambda: build_hospital(hospital_2ward()), True),
        (lambda: build_jrp(jrp_large()), True),
        (lambda: build_hospital(hospital_3ward()), False),
        (lambda: build_hospital(hospital_4ward()), False),
    ],
    ids=["hospital2", "jrp_large", "hospital3", "hospital4"],
)
def test_induced_nnz_budget(build, fits, monkeypatch):
    mdp = build()
    n = mdp.lattice.size
    policy = np.zeros(n, dtype=np.int64)
    entries = _span_entries(mdp, policy)
    assert (entries <= chain.NNZ_BUDGET) == fits
    assert int(mdp.kernel_rows_at(np.arange(n), policy).sizes().sum()) == entries
    if fits:
        P, c = mdp.induced(policy)
        assert P.shape == (n, n) and 0 < P.nnz <= entries
        assert np.array_equal(c, mdp.costs_at(np.arange(n), policy))
        monkeypatch.setattr(chain, "NNZ_BUDGET", entries - 1)
        with pytest.raises(ResourceLimitError, match="induced_apply"):
            mdp.induced(policy)
        monkeypatch.setattr(chain, "NNZ_BUDGET", entries)
        assert mdp.induced(policy)[0].nnz == P.nnz
    else:
        # refused from the widths alone, before any kernel row is built
        def no_rows(factors, rows):
            raise AssertionError("rows built past the budget")

        monkeypatch.setattr(chain, "row_kron", no_rows)
        with pytest.raises(ResourceLimitError, match=f"{entries} entries.*induced_apply"):
            mdp.induced(policy)


@pytest.mark.parametrize("name", ["jrp_small", "hospital2"])
def test_n_actions_is_defined_once(name):
    # one definition on ControlledMdp reads one entry of the model's counts,
    # which the model computes once, so a per-state loop stays linear
    mdp = MODELS[name]()
    assert "n_actions" not in vars(type(mdp)) and "n_actions" not in vars(PostDecisionMdp)
    counts = mdp.action_counts()
    assert mdp.action_counts() is counts and not counts.flags.writeable
    assert [mdp.n_actions(i) for i in range(0, mdp.lattice.size, 97)] == list(counts[::97])


@pytest.mark.parametrize(
    "build",
    [lambda: build_jrp(jrp_small()), lambda: build_hospital(hospital_2ward())],
    ids=["jrp_small", "hospital2"],
)
def test_solvers_reach_no_loop_fallback(build):
    # ControlledMdp holds no per-(state, action) loop to fall back on, so
    # every bulk operation the solvers call is the model's own, and the
    # model keeps no one-pair view for such a loop to use
    mdp = build()
    assert isinstance(mdp, PostDecisionMdp)
    for name in (
        "action_counts", "greedy_at", "kernel_rows_at", "costs_at",
        "induced", "induced_apply",
    ):
        assert not hasattr(ControlledMdp, name)
        assert callable(getattr(mdp, name))
    for name in ("kernel_row", "action_cost"):
        assert not hasattr(mdp, name)
