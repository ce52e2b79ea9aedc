"""Aggregation-operator tests: enclosing boxes and multilinear weights of
lattice states and m-step targets, G and the m-step G against the corner
loop they replaced, the lifted sister chain, and the moment-matching
diagnostics."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _oracles as orc
import _post_oracles as po
from test_chain import _assert_same_csr
from momentagg import (
    MarkovRewardProcess,
    RowStochasticMatrix,
    StateLattice,
    build_G,
    build_grid,
    build_scheme,
    first_moment_gap,
    grid_from_axes,
    induced_mrp,
    lifted_chain,
    local_moments,
    mstep_scheme,
    second_moment_gap,
    weights,
)
from momentagg.aggregation import _bracket, _interp_rows
from momentagg.benchmarks import (
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
)


def _grid_0136_squared():
    lat = StateLattice((0, 0), (6, 6))
    ax = np.array([0, 1, 3, 6])
    return grid_from_axes(lat, [ax, ax])


def _random_mrp(seed, lower, upper, **kw):
    states, P, c, alpha = orc.random_lattice_chain(seed, lower, upper, **kw)
    lat = StateLattice(lower, upper)
    return MarkovRewardProcess(lat, RowStochasticMatrix(P), c, alpha)


# ---------------------------------------------------------------------------
# weights: the enclosing box's corners and their multilinear weights
# ---------------------------------------------------------------------------

def _corners(grid, point):
    return sorted(tuple(grid.rep_states[l]) for l in weights(grid, point))


def test_enclosing_box_representative_state():
    grid = _grid_0136_squared()
    w = weights(grid, (3, 6))
    assert len(w) == 1
    (meta, wl), = w.items()
    assert np.array_equal(grid.rep_states[meta], (3, 6)) and wl == 1.0


def test_enclosing_box_interior_point():
    grid = _grid_0136_squared()
    assert _corners(grid, (2, 4)) == [(1, 3), (1, 6), (3, 3), (3, 6)]


def test_enclosing_box_on_grid_plane_collapses():
    grid = _grid_0136_squared()
    assert _corners(grid, (3, 4)) == [(3, 3), (3, 6)]


def test_enclosing_box_outside_lattice():
    grid = _grid_0136_squared()
    with pytest.raises(ValueError):
        weights(grid, (7, 0))


def test_weights_midpoint_1d():
    lat = StateLattice([1], [3])
    grid = grid_from_axes(lat, [np.array([1, 3])])
    w = weights(grid, [2])
    assert_allclose(sorted(w.values()), [0.5, 0.5])


def test_weights_2d_hand_example():
    # box [1,3] x [0,3] around y=(2,1)
    lat = StateLattice((1, 0), (3, 3))
    grid = grid_from_axes(lat, [np.array([1, 3]), np.array([0, 3])])
    w = weights(grid, (2, 1))
    got = {tuple(grid.rep_states[l]): wl for l, wl in w.items()}
    assert set(got) == set(orc.WEIGHTS_BOX_EXAMPLE)
    for corner, expect in orc.WEIGHTS_BOX_EXAMPLE.items():
        assert got[corner] == pytest.approx(expect)


def test_weights_at_corner():
    grid = _grid_0136_squared()
    w = weights(grid, (6, 0))
    assert len(w) == 1
    (l, wl), = w.items()
    assert np.array_equal(grid.rep_states[l], (6, 0))
    assert wl == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_weights_reproduce_point_and_match_reference(y0, y1):
    grid = _grid_0136_squared()
    w = weights(grid, (y0, y1))
    total = sum(w.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    mean = sum(wl * grid.rep_states[l].astype(float) for l, wl in w.items())
    assert_allclose(mean, [y0, y1], atol=1e-10)
    ref = orc.multilinear_weights_reference([g for g in grid.axes], (y0, y1))
    got = {tuple(grid.rep_states[l]): wl for l, wl in w.items()}
    assert set(got) == set(ref)
    for corner in ref:
        assert got[corner] == pytest.approx(ref[corner], abs=1e-12)


# ---------------------------------------------------------------------------
# build_G
# ---------------------------------------------------------------------------

def test_G_identity_when_all_representative():
    lat = StateLattice((0, 0), (1, 1))
    G = build_G(build_grid(lat, 0.45))
    assert_allclose(G.toarray(), np.eye(4))


def test_G_1d_interpolation_row():
    lat = StateLattice([0], [3])
    grid = grid_from_axes(lat, [np.array([0, 1, 3])])
    G = build_G(grid)
    cols, vals = G.row(2)  # state y=2 sits between grid values 1 and 3
    assert np.array_equal(cols, [1, 2])
    assert_allclose(vals, [0.5, 0.5])


def test_G_rows_reproduce_states():
    lat = StateLattice((-6, 0), (6, 20))
    grid = build_grid(lat, 0.45)
    G = build_G(grid)
    recon = G.apply(grid.rep_states.astype(np.float64))
    assert_allclose(recon, lat.all_states(), atol=1e-10)
    sums = np.asarray(G.csr.sum(axis=1)).ravel()
    assert_allclose(sums, 1.0, atol=1e-12)


def test_G_row_support_within_box():
    lat = StateLattice((-6, -6), (6, 6))
    grid = build_grid(lat, 0.5)
    G = build_G(grid)
    per_row = np.diff(G.csr.indptr)
    assert per_row.max() <= 4 and per_row.min() >= 1
    # representative rows are unit point masses on themselves
    for l, idx in enumerate(grid.rep_indices):
        cols, vals = G.row(idx)
        assert np.array_equal(cols, [l])
        assert vals[0] == 1.0


def test_G_affine_reproduction():
    rng = np.random.default_rng(5)
    lat = StateLattice((-4, 2), (9, 13))
    grid = build_grid(lat, 1.0 / 3.0)
    G = build_G(grid)
    a, b = rng.standard_normal(2), rng.standard_normal()
    f_rep = grid.rep_states @ a + b
    f_all = lat.all_states() @ a + b
    assert_allclose(G.apply(f_rep), f_all, atol=1e-10)


# ---------------------------------------------------------------------------
# G and the m-step G from per-axis factors, against the corner loop
# ---------------------------------------------------------------------------

@st.composite
def grid_and_points(draw):
    """A grid on a 1-4 axis box and points on it: exact grid values,
    lattice integers and fractional points, some outside the hull."""
    d = draw(st.integers(1, 4))
    lower, upper, axes = [], [], []
    for _ in range(d):
        lo = draw(st.integers(-5, 0))
        up = draw(st.integers(lo, lo + 12))
        inner = draw(st.lists(st.integers(lo, up), max_size=4))
        axes.append(np.array(sorted({lo, up, *inner} | ({0} if lo <= 0 <= up else set()))))
        lower.append(lo)
        upper.append(up)
    grid = grid_from_axes(StateLattice(lower, upper), axes)
    coord = [
        st.sampled_from(list(a)).map(float)
        | st.integers(lo, up).map(float)
        | st.floats(lo - 2.0, up + 2.0)
        for a, lo, up in zip(axes, lower, upper)
    ]
    points = draw(st.lists(st.tuples(*coord), min_size=1, max_size=8))
    return grid, np.array(points, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(grid_and_points())
def test_interp_rows_match_corner_loop_and_dense_kron(case):
    grid, points = case
    n, d = points.shape
    got = _interp_rows(grid, points.T, [np.arange(n)] * d, clamp=True)
    want = po.interp_csr(grid, points, clamp=True)
    want.eliminate_zeros()  # the corner loop keeps a weight that rounds to 0
    _assert_same_csr(got, want)
    # the dense 1-D weight rows of each axis, multiplied axis 0 first
    dense = []
    for axis, y in zip(grid.axes, points.T):
        lo, hi, t = _bracket(axis, y, clamp=True)
        D = np.zeros((n, len(axis)))
        D[np.arange(n), lo] = 1.0 - t
        D[np.arange(n)[lo != hi], hi[lo != hi]] = t[lo != hi]
        dense.append(D)
    kron = np.stack([functools.reduce(np.kron, [D[i] for D in dense]) for i in range(n)])
    assert np.array_equal(got.toarray(), kron)


LATTICES = {
    "jrp_small": lambda: build_jrp(jrp_small()).lattice,
    "jrp_large": lambda: build_jrp(jrp_large()).lattice,
    "hospital2": lambda: build_hospital(hospital_2ward()).lattice,
    "hospital3": lambda: build_hospital(hospital_3ward()).lattice,
    "hospital4": lambda: build_hospital(hospital_4ward()).lattice,
    "reflecting_rw": lambda: build_reflecting_rw(5000, seed=3).lattice,
}


@pytest.mark.parametrize("name", list(LATTICES))
def test_G_matches_corner_loop(name):
    lattice = LATTICES[name]()
    grid = build_grid(lattice, 0.45)
    want = RowStochasticMatrix(po.interp_csr(grid, lattice.all_states()))
    _assert_same_csr(build_G(grid).csr, want.csr)


def _hospital2_chain():
    mdp = build_hospital(hospital_2ward())
    return induced_mrp(mdp, np.zeros(mdp.lattice.size, dtype=np.int64))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize(
    "make", [lambda: build_reflecting_rw(500, seed=9), _hospital2_chain],
    ids=["reflecting_rw", "hospital2"],
)
def test_mstep_G_matches_corner_loop(make, m, clamp):
    mrp = make()
    grid = build_grid(mrp.lattice, 0.45)
    targets = mrp.lattice.all_states().astype(np.float64)
    for _ in range(m - 1):
        targets = mrp.P.apply(targets)
    want = RowStochasticMatrix(po.interp_csr(grid, targets, clamp=clamp))
    _assert_same_csr(mstep_scheme(mrp, grid, m, clamp=clamp).G.csr, want.csr)


@pytest.mark.parametrize("m", [2, 3])
def test_mstep_unclamped_takes_targets_rounded_past_the_hull(m):
    # on jrp_small's policy-0 chain, E_y[X_1] on axis 1 rounds to just below
    # the box's lower edge at some states; those targets belong on the edge
    mdp = build_jrp(jrp_small())
    mrp = induced_mrp(mdp, np.zeros(mdp.lattice.size, dtype=np.int64))
    grid = build_grid(mrp.lattice, 0.45)
    targets = mrp.P.apply(mrp.lattice.all_states().astype(np.float64))
    assert np.any(targets < mrp.lattice.lower)
    G = mstep_scheme(mrp, grid, m).G.csr
    _assert_same_csr(G, mstep_scheme(mrp, grid, m, clamp=True).G.csr)


def test_weights_clip_only_within_rounding_of_the_hull():
    grid = _grid_0136_squared()
    assert weights(grid, (6 + 1e-13, -1e-13)) == weights(grid, (6, 0))
    with pytest.raises(ValueError, match="outside the grid hull"):
        weights(grid, (6.5, 0))
    with pytest.raises(ValueError, match="outside the grid hull"):
        weights(grid, (3, -0.5))


def test_weights_match_corner_loop():
    grid = build_grid(StateLattice((0, 0, 0), (24, 24, 24)), 0.45)
    rng = np.random.default_rng(0)
    points = rng.random((50, 3)) * 26.0 - 1.0
    points[:10] = np.round(points[:10])
    points[10:15, 0] = grid.axes[0][3]
    for p in points:
        row = po.interp_csr(grid, [p], clamp=True)
        want = {int(c): float(w) for c, w in zip(row.indices, row.data) if w > 0.0}
        assert weights(grid, p, clamp=True) == want


# ---------------------------------------------------------------------------
# lifted chain
# ---------------------------------------------------------------------------

def test_lifted_identity_scheme_is_same_chain():
    mrp = _random_mrp(61, (0, 0), (1, 1))
    scheme = build_scheme(build_grid(mrp.lattice, 0.45))  # L = N here
    sister = lifted_chain(mrp, scheme)
    f = np.random.default_rng(0).random(mrp.lattice.size)
    assert_allclose(sister.apply(f), mrp.P.apply(f), atol=1e-12)


def test_sister_matches_dense_triple_product():
    mrp = _random_mrp(62, (-3, 0), (3, 5), max_jump=2)
    scheme = build_scheme(build_grid(mrp.lattice, 0.45))
    sister = lifted_chain(mrp, scheme, materialize=True)
    dense = orc.dense_sister(
        mrp.P.toarray(), scheme.G.toarray(), scheme.U.toarray()
    )
    assert_allclose(sister.materialize().toarray(), dense, atol=1e-12)
    rows = sister.materialize().toarray().sum(axis=1)
    assert_allclose(rows, 1.0, atol=1e-12)
    # operator form agrees with the materialized matrix
    f = np.random.default_rng(1).random(mrp.lattice.size)
    assert_allclose(sister.apply(f), dense @ f, atol=1e-12)


def test_sister_first_moments_match_base():
    mrp = _random_mrp(63, (-5, -5), (5, 5), max_jump=3)
    scheme = build_scheme(build_grid(mrp.lattice, 0.45))
    sister = lifted_chain(mrp, scheme, materialize=True)
    tilde = local_moments(sister.to_mrp())
    base = local_moments(mrp)
    assert_allclose(tilde.mu, base.mu, atol=1e-9)


def test_example_pair_reduction():
    # absorbing walk with the endpoint grid collapses to the 2-point chain
    n = 20
    mrp = build_simple_rw(n, alpha=0.9)
    grid = grid_from_axes(mrp.lattice, [np.array([0, n])])
    sister = lifted_chain(mrp, build_scheme(grid), materialize=True)
    two = build_two_point_chain(n, alpha=0.9)
    assert_allclose(sister.materialize().toarray(), two.P.toarray(), atol=1e-12)


# ---------------------------------------------------------------------------
# first-moment gap
# ---------------------------------------------------------------------------

def test_first_moment_gap_zero_for_built_scheme():
    mrp = _random_mrp(65, (-8, 0), (8, 12), max_jump=4)
    sister = lifted_chain(mrp, build_scheme(build_grid(mrp.lattice, 0.45)))
    assert first_moment_gap(sister) <= 1e-9


def test_first_moment_gap_identity_base():
    lat = StateLattice([0], [15])
    ident = MarkovRewardProcess(
        lat, RowStochasticMatrix.identity(16), np.zeros(16), 0.9
    )
    sister = lifted_chain(ident, build_scheme(build_grid(lat, 0.45)))
    assert first_moment_gap(sister) <= 1e-12


def test_first_moment_gap_detects_broken_G():
    """Negative control: noise in G must show up as a positive gap."""
    mrp = _random_mrp(66, (0,), (20,), max_jump=3)
    grid = build_grid(mrp.lattice, 0.45)
    scheme = build_scheme(grid)
    rng = np.random.default_rng(0)
    noisy = scheme.G.toarray() + 0.05 * rng.random((mrp.lattice.size, grid.size))
    noisy /= noisy.sum(axis=1, keepdims=True)
    broken = type(scheme)(grid=grid, U=scheme.U, G=RowStochasticMatrix(noisy))
    assert first_moment_gap(lifted_chain(mrp, broken)) > 1e-3


# ---------------------------------------------------------------------------
# second-moment gap
# ---------------------------------------------------------------------------

def test_second_moment_zero_when_identity():
    mrp = _random_mrp(67, (0, 0), (2, 2), max_jump=2)
    scheme = build_scheme(build_grid(mrp.lattice, 0.45))  # identity scheme
    report = second_moment_gap(lifted_chain(mrp, scheme), exponent=0.9)
    assert_allclose(report.per_state, 0.0, atol=1e-10)


def test_second_moment_two_point_closed_form():
    n = 20
    mrp = build_simple_rw(n, alpha=0.9)
    grid = grid_from_axes(mrp.lattice, [np.array([0, n])])
    report = second_moment_gap(lifted_chain(mrp, build_scheme(grid)), exponent=0.9)
    x = np.arange(1.0, n)
    expect = np.abs(n * x - (x**2 + 1.0))
    assert_allclose(report.per_state[1:-1], expect, atol=1e-9)
    assert report.per_state[0] == pytest.approx(0.0, abs=1e-12)
    assert report.normalization_exponent == 0.9


def test_second_moment_requires_exponent_for_explicit_axes():
    mrp = build_simple_rw(6, alpha=0.9)
    grid = grid_from_axes(mrp.lattice, [np.array([0, 3, 6])])
    sister = lifted_chain(mrp, build_scheme(grid))
    with pytest.raises(ValueError):
        second_moment_gap(sister)
    assert second_moment_gap(sister, exponent=0.7).normalization_exponent == 0.7


@pytest.mark.parametrize("dims", [1, 2])
def test_second_moment_profile_bounded_across_spans(dims):
    """The normalized mismatch admits a span-independent constant."""
    sups = []
    for span in (20, 40, 80):
        lower, upper = (0,) * dims, (span,) * dims
        mrp = _random_mrp(70 + span + dims, lower, upper, max_jump=2)
        grid = build_grid(mrp.lattice, 0.45)
        report = second_moment_gap(lifted_chain(mrp, build_scheme(grid)))
        sups.append(report.sup_normalized)
        assert np.isfinite(report.sup_normalized)
    assert max(sups) <= 3.0 * min(sups) + 1e-9


# ---------------------------------------------------------------------------
# weights at m-step targets (fractional points) and m-step schemes
# ---------------------------------------------------------------------------

def test_mstep_weights_at_representative():
    grid = _grid_0136_squared()
    w = weights(grid, (3.0, 6.0))
    assert len(w) == 1 and next(iter(w.values())) == 1.0


def test_mstep_weights_centroid():
    lat = StateLattice([0], [4])
    grid = grid_from_axes(lat, [np.array([0, 4])])
    w = weights(grid, [2.0])
    assert_allclose(sorted(w.values()), [0.5, 0.5])


def test_mstep_weights_fractional_target():
    grid = _grid_0136_squared()
    target = (2.25, 4.5)
    w = weights(grid, target)
    mean = sum(wl * grid.rep_states[l].astype(float) for l, wl in w.items())
    assert_allclose(mean, target, atol=1e-10)


def test_mstep_weights_hull_check_and_clamp():
    lat = StateLattice([0], [6])
    grid = grid_from_axes(lat, [np.array([0, 1, 3, 6])])
    with pytest.raises(ValueError):
        weights(grid, [6.5])
    w = weights(grid, [6.5], clamp=True)
    (l, wl), = w.items()
    assert grid.rep_states[l][0] == 6 and wl == 1.0


def test_mstep_scheme_matches_two_step_first_moment():
    # reflecting walk: couple at m=2, so P~ W1 must equal P^2 W1
    mrp = build_reflecting_rw(60, seed=5)
    grid = build_grid(mrp.lattice, 0.45)
    scheme = mstep_scheme(mrp, grid, 2)
    sister = lifted_chain(mrp, scheme)
    states = mrp.lattice.all_states().astype(np.float64)
    lhs = sister.apply(states)
    rhs = mrp.P.power(2).apply(states)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_mstep_scheme_m1_equals_standard():
    mrp = build_reflecting_rw(30, seed=6)
    grid = build_grid(mrp.lattice, 0.45)
    standard = build_scheme(grid)
    m1 = mstep_scheme(mrp, grid, 1)
    assert_allclose(m1.G.toarray(), standard.G.toarray(), atol=1e-12)
