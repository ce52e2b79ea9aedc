"""The hospital action table against the per-state code it replaced.

The recursive depth-first enumeration, the per-state greedy loop and the
dense outer-product kernel rows below are the slow paths the table-based
``HospitalOverflowMdp`` replaced; they are kept here as oracles, and the
fast paths must match them exactly (actions, posts, costs, q-values and
the CSR arrays of stacked kernel rows).  The table itself must equal, byte
for byte, the all-pairs build it replaced (``_post_oracles.hospital_table``),
and the routings ``_actions`` expands again must equal that build's routes.
"""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _post_oracles as po
from momentagg import benchmarks
from momentagg.benchmarks import (
    HospitalOverflowMdp,
    HospitalParams,
    build_hospital,
    hospital_2ward,
    hospital_3ward,
    hospital_4ward,
)
from momentagg.chain import RowStochasticMatrix
from momentagg.control import _greedy


# ---------------------------------------------------------------------------
# oracles: the per-state paths
# ---------------------------------------------------------------------------

def recursive_actions(mdp, i):
    """(routing matrices, post-action flat indices, costs) of state i by
    depth-first recursion over the off-diagonal entries, values ascending."""
    pairs = mdp._pairs
    x = mdp.lattice.to_coords(int(i))
    beds = np.asarray(mdp.params.beds)
    supply = np.maximum(x - beds, 0)
    space = np.maximum(beds - x, 0)
    moves = []
    current = np.zeros((mdp.J, mdp.J), dtype=np.int64)

    def rec(t, sup, spa):
        if t == len(pairs):
            moves.append(current.copy())
            return
        a, b = pairs[t]
        top = min(sup[a], spa[b])
        for v in range(top + 1):
            current[a, b] = v
            sup[a] -= v
            spa[b] -= v
            rec(t + 1, sup, spa)
            sup[a] += v
            spa[b] += v
        current[a, b] = 0

    rec(0, supply.copy(), space.copy())
    B = np.asarray(mdp.params.overflow)
    H = np.asarray(mdp.params.holding)
    moves = np.stack(moves)
    out = moves.sum(axis=2)
    posts = mdp.lattice.to_index(x[None, :] - out + moves.sum(axis=1))
    costs = np.sum(B[None] * moves, axis=(1, 2)) + np.maximum(
        x[None, :] - out - beds[None, :], 0
    ) @ H
    return moves, np.asarray(posts, dtype=np.int64), costs.astype(np.float64)


def oracle_table(mdp, states):
    return {int(i): recursive_actions(mdp, i) for i in states}


def loop_greedy(mdp, table, indices, W):
    """Per-state greedy: one argmin over each state's actions."""
    EW = mdp.expect(W).ravel()
    actions = np.zeros(len(indices), dtype=np.int64)
    qvals = np.empty(len(indices))
    for k, i in enumerate(indices):
        _, posts, costs = table[int(i)]
        q = costs + mdp.discount * EW[posts]
        a = int(np.argmin(q))
        actions[k] = a
        qvals[k] = q[a]
    return actions, qvals


def dense_kernel_row(mdp, post):
    """Nonzeros of the raveled outer product of the ward rows at ``post``."""
    w = mdp.lattice.to_coords(int(post))
    row = mdp.kernels[0][w[0]]
    for j in range(1, mdp.J):
        row = np.multiply.outer(row, mdp.kernels[j][w[j]])
    row = row.ravel()
    nz = np.flatnonzero(row)
    return nz, row[nz]


def stacked_rows(mdp, table, indices, actions):
    entries = [
        dense_kernel_row(mdp, table[int(i)][1][int(a)])
        for i, a in zip(indices, actions)
    ]
    return po.from_rows(entries, mdp.lattice.size)


def assert_same_csr(got, expect):
    a, b = got.csr, expect.csr
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def assert_same_table(got, want):
    for name in ("indptr", "counts", "posts", "costs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_routes_match(mdp, want, states):
    """``_actions(i)`` routings equal the rows of the all-pairs build's
    routes at every state i of ``states``."""
    a, b = np.array(mdp._pairs).T
    for i in states:
        moves = mdp._actions(i)[0]
        rows = want.routes[want.indptr[i] : want.indptr[i + 1]]
        assert moves.dtype == np.int64
        assert np.array_equal(moves[:, a, b], rows), i


def assert_table_matches(mdp, table):
    for i, (moves, posts, costs) in table.items():
        got_moves, got_posts, got_costs = mdp._actions(i)
        assert mdp.n_actions(i) == len(moves)
        assert np.array_equal(got_moves, moves), i
        assert np.array_equal(got_posts, posts), i
        assert np.array_equal(got_costs, costs), i


def random_actions(rng, mdp, indices):
    counts = mdp.action_counts()[indices]
    return (rng.random(len(indices)) * counts).astype(np.int64)


# ---------------------------------------------------------------------------
# benchmark instances
# ---------------------------------------------------------------------------

INSTANCES = {
    "hospital2": (hospital_2ward, 1),
    "hospital3": (hospital_3ward, 1),
    "hospital4": (hospital_4ward, 13),  # every 13th state
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    make, stride = INSTANCES[request.param]
    mdp = build_hospital(make())
    states = np.arange(0, mdp.lattice.size, stride)
    return mdp, states, oracle_table(mdp, states)


def test_table_matches_recursive_enumeration(instance):
    mdp, states, table = instance
    assert_table_matches(mdp, table)
    if len(states) == mdp.lattice.size:
        assert mdp.table.indptr[-1] == sum(len(t[0]) for t in table.values())


def test_table_equals_the_all_pairs_build(instance):
    # the build expands each state over its live ward pairs only; the old
    # build expanded every state over every pair
    mdp = instance[0]
    assert_same_table(mdp.table, po.hospital_table(mdp))


@pytest.mark.parametrize("make", [hospital_2ward, hospital_3ward, hospital_4ward])
def test_decoded_routes_equal_the_all_pairs_routes_everywhere(make):
    # the table keeps no routes; _actions expands each state's routings
    # over its live pairs again, in the build's order
    mdp = build_hospital(make())
    assert set(vars(mdp.table)) == {"indptr", "counts", "posts", "costs"}
    assert_routes_match(mdp, po.hospital_table(mdp), range(mdp.lattice.size))


def fractional_costs(params, seed):
    """``params`` with seeded non-integer costs, whose sums round
    differently in each order of their terms."""
    rng = np.random.default_rng(seed)
    J = len(params.beds)
    B = rng.random((J, J)) * 10.0
    np.fill_diagonal(B, 0.0)
    return dataclasses.replace(
        params, overflow=tuple(map(tuple, B)), holding=tuple(rng.random(J) * 10.0)
    )


@pytest.mark.parametrize(
    "make, seed", [(hospital_3ward, 0), (hospital_4ward, 1), (hospital_4ward, 2)]
)
def test_table_equals_the_all_pairs_build_with_fractional_costs(make, seed):
    # hospital4's 12 pairs sum in numpy's pairwise order, hospital3's 6 in turn
    mdp = build_hospital(fractional_costs(make(), seed))
    assert_same_table(mdp.table, po.hospital_table(mdp))


def test_greedy_matches_per_state_loop(instance):
    mdp, states, table = instance
    rng = np.random.default_rng(21)
    n = mdp.lattice.size
    for W in (
        rng.random(n) * 500.0,
        np.zeros(n),
        rng.integers(0, 4, n).astype(np.float64),  # many exact ties
    ):
        actions, qvals = mdp.greedy_at(states, W)
        ref_actions, ref_qvals = loop_greedy(mdp, table, states, W)
        assert np.array_equal(actions, ref_actions)
        assert np.array_equal(qvals, ref_qvals)


def test_kernel_rows_and_costs_match_per_state_rows(instance):
    mdp, states, table = instance
    rng = np.random.default_rng(22)
    idx = rng.choice(states, size=min(300, len(states)), replace=False)
    idx = np.sort(idx)[::-1]  # any order, not just ascending
    actions = random_actions(rng, mdp, idx)
    assert_same_csr(mdp.kernel_rows_at(idx, actions), stacked_rows(mdp, table, idx, actions))
    expect = np.array([table[int(i)][2][int(a)] for i, a in zip(idx, actions)])
    assert np.array_equal(mdp.costs_at(idx, actions), expect)


def test_induced_matches_dense_rows():
    mdp = build_hospital(hospital_2ward())
    n = mdp.lattice.size
    table = oracle_table(mdp, range(n))
    policy = random_actions(np.random.default_rng(23), mdp, np.arange(n))
    P, c = mdp.induced(policy)
    dense = np.stack([
        np.multiply.outer(mdp.kernels[0][w[0]], mdp.kernels[1][w[1]]).ravel()
        for w in mdp.lattice.to_coords(np.array([table[i][1][a] for i, a in enumerate(policy)]))
    ])
    assert_same_csr(P, RowStochasticMatrix(dense))
    assert np.array_equal(c, np.array([table[i][2][a] for i, a in enumerate(policy)]))


def test_greedy_threads_agree_and_table_built_once():
    ref = build_hospital(hospital_3ward())
    W = np.random.default_rng(24).integers(0, 3, ref.lattice.size).astype(np.float64)
    idx = np.arange(ref.lattice.size)
    expect = _greedy(ref, idx, W)

    mdp = build_hospital(hospital_3ward())
    mdp.threads = 4
    builds = []
    build = mdp._build_table
    started = threading.Barrier(2, timeout=10)

    def counted_build():
        builds.append(1)
        return build()

    def racing_greedy(indices, W):
        try:  # make two workers ask for the table at the same moment
            started.wait()
        except threading.BrokenBarrierError:
            pass
        return HospitalOverflowMdp.greedy_at(mdp, indices, W)

    mdp._build_table = counted_build
    mdp.greedy_at = racing_greedy
    actions, qvals = _greedy(mdp, idx, W)
    assert len(builds) == 1
    assert np.array_equal(actions, expect[0])
    assert np.array_equal(qvals, expect[1])


def test_table_build_peak_is_bounded():
    # hospital3's table holds 3.9 MiB (15 MiB with the int64 routes column
    # it once kept); its build once peaked at 4.7 times the latter (int64
    # expansion temporaries kept to the end), now under 1.5 times the former
    mdp = build_hospital(hospital_3ward())
    tracemalloc.start()
    try:
        table = mdp._build_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(arr.nbytes for arr in vars(table).values())
    assert peak <= 2.5 * size, f"peak {peak} bytes for a {size}-byte table"


@pytest.mark.parametrize("make", [hospital_3ward, hospital_4ward])
def test_table_build_peak_is_below_the_all_pairs_build(make):
    # 7.69 and 12.89 MiB for the all-pairs build, against 5.49 and 6.93 MiB
    mdp = build_hospital(make())
    peaks = []
    for build in (lambda: po.hospital_table(mdp), mdp._build_table):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], f"peak {peaks[1]} bytes, all-pairs build {peaks[0]}"


@pytest.mark.parametrize("k", [*range(1, 18), 127, 128, 129, 136, 300])
def test_row_sum_rounds_as_numpy_row_sums(k):
    # the table's costs add their terms column by column in the order
    # np.sum(axis=1) adds a row; scalar columns stand for unrouted pairs
    rng = np.random.default_rng(k)
    cols = [rng.integers(0, 9, 500).astype(np.int8) for _ in range(k)]
    for t in rng.choice(k, size=k // 3, replace=False):
        cols[t] = 0
    coefs = rng.random(k) * 10.0 ** rng.integers(-6, 6, k)
    coefs[rng.random(k) < 0.2] *= -1.0
    dense = np.column_stack([np.broadcast_to(c, 500) for c in cols])
    want = np.sum(dense * coefs, axis=1)
    assert np.sum(want) != 0.0
    assert benchmarks._row_sum(cols, coefs).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [hospital_2ward, hospital_3ward])
def test_narrow_build_decodes_as_an_int64_build(make, monkeypatch):
    # supply, space and routes hold at most a cap of patients; the narrow
    # build gives the same table, and decodes to the same routing matrices,
    # posts and costs, as an int64 one
    assert benchmarks._route_dtype(make().caps) == np.int8
    ref = build_hospital(make())
    states = range(ref.lattice.size)
    narrow = [ref._actions(i) for i in states]
    monkeypatch.setattr(benchmarks, "_route_dtype", lambda caps: np.dtype(np.int64))
    mdp = build_hospital(make())
    for name in ("indptr", "counts", "posts", "costs"):
        a, b = getattr(ref.table, name), getattr(mdp.table, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for i in states:
        for got, want in zip(narrow[i], mdp._actions(i)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_table_blocks_do_not_change_the_table_or_greedy(monkeypatch):
    # costs and greedy sweeps work on blocks of table rows; blocks smaller
    # than one state's actions give the same bytes as one block
    one = build_hospital(hospital_2ward())
    n = one.lattice.size
    W = np.random.default_rng(25).integers(0, 4, n).astype(np.float64)  # ties
    idx = np.arange(n)[::-1]
    monkeypatch.setattr(benchmarks, "_TABLE_BLOCK", 1 << 30)
    want_table, want = one.table, one.greedy_at(idx, W)
    monkeypatch.setattr(benchmarks, "_TABLE_BLOCK", 3)
    small = build_hospital(hospital_2ward())
    for name, arr in vars(small.table).items():
        assert arr.tobytes() == getattr(want_table, name).tobytes(), name
    for got, ref in zip(small.greedy_at(idx, W), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_table_is_built_on_first_use():
    mdp = build_hospital(hospital_2ward())
    assert mdp._table is None
    mdp.n_actions(0)
    assert mdp._table is not None


@pytest.mark.parametrize("bad", [-1, "count"])
def test_infeasible_action_raises(bad):
    mdp = build_hospital(hospital_2ward())
    i = mdp.lattice.to_index((20, 3))
    a = mdp.n_actions(i) if bad == "count" else bad
    idx, actions = np.array([0, i]), np.array([0, a])
    for call in (mdp.kernel_rows_at, mdp.costs_at):
        with pytest.raises(ValueError, match=f"infeasible in state {i}"):
            call(idx, actions)
    policy = np.zeros(mdp.lattice.size, dtype=np.int64)
    policy[i] = a
    for call in (mdp.induced_apply, mdp.induced):
        with pytest.raises(ValueError, match=f"infeasible in state {i}"):
            call(policy)


# ---------------------------------------------------------------------------
# random small instances
# ---------------------------------------------------------------------------

@st.composite
def small_params(draw):
    J = draw(st.integers(2, 4))
    # four wards make 12-term cost sums; small caps keep the oracles quick
    caps = draw(st.lists(st.integers(1, 8 if J < 4 else 3), min_size=J, max_size=J))
    beds = [draw(st.integers(0, c)) for c in caps]
    cost = st.integers(0, 9).map(float) | st.floats(0.0, 10.0)
    overflow = [
        [0.0 if i == j else draw(cost) for j in range(J)] for i in range(J)
    ]
    return HospitalParams(
        arrival_rates=tuple(draw(st.floats(0.05, 4.0)) for _ in range(J)),
        service_probs=tuple(draw(st.sampled_from([0.1, 0.35, 0.8, 1.0])) for _ in range(J)),
        beds=tuple(beds),
        holding=tuple(draw(cost) for _ in range(J)),
        overflow=tuple(tuple(r) for r in overflow),
        caps=tuple(caps),
        discount=0.95,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=small_params(), seed=st.integers(0, 2**16))
def test_random_instances_match_oracles(params, seed):
    mdp = build_hospital(params)
    want = po.hospital_table(mdp)
    assert_same_table(mdp.table, want)
    n = mdp.lattice.size
    states = np.arange(n)
    assert_routes_match(mdp, want, states)
    table = oracle_table(mdp, states)
    costs = np.concatenate([params.holding, np.ravel(params.overflow)])
    if np.all(costs == np.round(costs)):
        # integer costs sum exactly in any order, so the tables agree bit for bit
        assert_table_matches(mdp, table)
    else:
        # the table sums each cost in another order than the per-state code
        # (whose holding-cost matmul also rounds differently depending on how
        # many actions share the call); allow a few roundings per term
        for i, (moves, posts, ref_costs) in table.items():
            got_moves, got_posts, got_costs = mdp._actions(i)
            assert np.array_equal(got_moves, moves)
            assert np.array_equal(got_posts, posts)
            np.testing.assert_allclose(got_costs, ref_costs, rtol=1e-14)
        table = {i: mdp._actions(i) for i in states}
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 3, n) * rng.choice([1.0, 0.37])
    actions, qvals = mdp.greedy_at(states, W)
    ref_actions, ref_qvals = loop_greedy(mdp, table, states, W)
    assert np.array_equal(actions, ref_actions)
    assert np.array_equal(qvals, ref_qvals)
    assert np.array_equal(mdp.expect(W), po.hospital_contract(mdp, W))
    policy = random_actions(rng, mdp, states)
    assert_same_csr(mdp.kernel_rows_at(states, policy), stacked_rows(mdp, table, states, policy))
    apply_P, c = mdp.induced_apply(policy)
    ref_apply, ref_c = po.hospital_induced_apply(mdp, policy)
    assert np.array_equal(c, ref_c)
    assert np.array_equal(apply_P(W), ref_apply(W))
