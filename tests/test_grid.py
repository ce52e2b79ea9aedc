"""Coarse-grid construction tests.

The axis sequences below were frozen by hand-evaluating the gap
recursion next = value + max(1, ceil(offset**s)) on offsets from the box
edge nearest zero (see _oracles).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from momentagg import (
    StateLattice,
    axis_grid,
    build_U,
    build_grid,
    grid_from_axes,
    meta_count_bound,
)


# ---------------------------------------------------------------------------
# axis_grid
# ---------------------------------------------------------------------------

def test_axis_frozen_sequences():
    assert axis_grid(0, 24, 0.45).tolist() == orc.GRID_0_24_S045
    assert axis_grid(0, 42, 0.45).tolist() == orc.GRID_0_42_S045
    assert axis_grid(0, 20, 0.5).tolist() == orc.GRID_0_20_S05
    assert axis_grid(-6, 6, 0.5).tolist() == orc.GRID_M6_6_S05
    assert axis_grid(0, 3, 0.45).tolist() == orc.GRID_0_3_S045
    assert axis_grid(-30, 40, 0.45).tolist() == orc.GRID_M30_40_S045
    assert axis_grid(-50, 120, 0.45).tolist() == orc.GRID_M50_120_S045


def test_axis_tiny_spans_keep_every_point():
    assert axis_grid(6, 8, 0.45).tolist() == [6, 7, 8]
    assert axis_grid(-8, -6, 0.45).tolist() == [-8, -7, -6]
    assert axis_grid(0, 0, 0.45).tolist() == [0]
    assert axis_grid(0, 2, 0.45).tolist() == [0, 1, 2]


def test_axis_negative_mirror():
    # negative-only box: magnitudes grow away from the edge nearest zero
    pos = axis_grid(6, 30, 0.45)
    neg = axis_grid(-30, -6, 0.45)
    assert neg.tolist() == sorted((-pos).tolist())


def test_axis_contains_bounds_and_zero():
    g = axis_grid(-13, 27, 0.45)
    assert g[0] == -13 and g[-1] == 27
    assert 0 in g
    assert np.all(np.diff(g) >= 1)


def test_axis_validation():
    with pytest.raises(ValueError):
        axis_grid(0, 10, 0.0)
    with pytest.raises(ValueError):
        axis_grid(0, 10, 1.0)
    with pytest.raises(ValueError):
        axis_grid(5, 1, 0.45)
    with pytest.raises(ValueError):
        axis_grid(0.5, 10, 0.45)
    with pytest.raises(ValueError):
        axis_grid(0, 10, 0.45, spacing_scale=0.0)


def test_axis_spacing_scale_refines():
    coarse = axis_grid(0, 40, 0.45)
    fine = axis_grid(0, 40, 0.45, spacing_scale=0.5)
    assert len(fine) >= len(coarse)
    assert set(fine) >= {0, 40}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-60, 60),
    st.integers(0, 120),
    st.sampled_from([1.0 / 3.0, 0.35, 0.45, 0.5]),
)
def test_axis_gap_property(lower, span, s):
    """Gaps are >= 1 and no larger than the recursion step at their
    left point's offset from the anchor edge (final clamp may shrink)."""
    upper = lower + span
    g = axis_grid(lower, upper, s)
    assert g[0] == lower and g[-1] == upper
    assert np.all(np.diff(g) >= 1) or len(g) == 1
    if lower <= 0 <= upper:
        assert 0 in g
        anchor_pos, anchor_neg = 0, 0
    elif lower > 0:
        anchor_pos = anchor_neg = lower
    else:
        anchor_pos = anchor_neg = upper
    for a, b in zip(g[:-1], g[1:]):
        if a >= 0:
            offset = abs(a - anchor_pos)
        else:
            # mirrored run: the step is set at the point nearer zero
            offset = abs(b - anchor_neg)
        step_bound = max(1, int(np.ceil(offset**s - 1e-9)))
        assert b - a <= step_bound


# ---------------------------------------------------------------------------
# build_grid / grid_from_axes
# ---------------------------------------------------------------------------

def test_build_grid_product_structure():
    lat = StateLattice((0, 0), (3, 3))
    grid = build_grid(lat, 0.45)
    assert grid.shape == (4, 4)
    assert grid.size == 16
    # row-major rep enumeration, axis 0 slowest
    assert np.array_equal(grid.rep_states[:4, 1], [0, 1, 2, 3])
    assert np.array_equal(grid.rep_states[:4, 0], [0, 0, 0, 0])
    assert grid.spacing_exponent == 0.45


def test_small_span_grid_is_identity():
    lat = StateLattice((-1, 0), (1, 2))
    grid = build_grid(lat, 0.45)
    assert grid.size == lat.size
    assert np.array_equal(grid.rep_indices, np.arange(lat.size))


def test_rep_indices_sorted_and_consistent():
    lat = StateLattice((-6, -6), (6, 6))
    grid = build_grid(lat, 0.5)
    assert np.array_equal(grid.rep_indices, lat.to_index(grid.rep_states))
    assert np.all(np.diff(grid.rep_indices) > 0)


def test_meta_index_bijection():
    lat = StateLattice((-6, 0), (6, 20))
    grid = build_grid(lat, 0.5)
    for l in range(grid.size):
        multi = np.unravel_index(l, grid.shape)
        assert grid.meta_index(multi) == l


def test_every_state_enclosed():
    lat = StateLattice((-13, 4), (9, 30))
    grid = build_grid(lat, 0.45)
    for axis, lo, up in zip(grid.axes, lat.lower, lat.upper):
        for y in range(lo, up + 1):
            j = np.searchsorted(axis, y)
            assert axis[j] == y or (axis[j - 1] <= y <= axis[j])


def test_grid_from_axes_validation():
    lat = StateLattice((0, -2), (3, 2))
    good = [np.array([0, 1, 3]), np.array([-2, 0, 2])]
    grid = grid_from_axes(lat, good)
    assert grid.size == 9
    assert grid.spacing_exponent is None
    with pytest.raises(ValueError):
        grid_from_axes(lat, good[:1])
    with pytest.raises(ValueError):
        grid_from_axes(lat, [np.array([0, 3, 1]), good[1]])
    with pytest.raises(ValueError):
        grid_from_axes(lat, [np.array([0, 1, 2]), good[1]])  # misses upper
    with pytest.raises(ValueError):
        grid_from_axes(lat, [good[0], np.array([-2, 2])])  # spans 0, omits it


# ---------------------------------------------------------------------------
# build_U
# ---------------------------------------------------------------------------

def test_U_selects_representatives():
    lat = StateLattice([0], [3])
    grid = grid_from_axes(lat, [np.array([0, 1, 3])])
    U = build_U(grid)
    assert U.shape == (3, 4)
    dense = U.toarray()
    assert np.array_equal(np.argmax(dense, axis=1), [0, 1, 3])
    assert np.all(dense.sum(axis=1) == 1.0)


def test_U_identity_when_all_representative():
    lat = StateLattice((0, 0), (1, 1))
    grid = build_grid(lat, 0.45)
    assert np.array_equal(build_U(grid).toarray(), np.eye(4))


# ---------------------------------------------------------------------------
# meta_count_bound
# ---------------------------------------------------------------------------

def test_bound_examples():
    lat1 = StateLattice([0], [20])
    bound = meta_count_bound(lat1, 0.5)
    assert bound == pytest.approx(2 * np.sqrt(2) * np.sqrt(21))
    assert build_grid(lat1, 0.5).size <= bound
    lat2 = StateLattice((0, 0), (20, 20))
    bound2 = meta_count_bound(lat2, 0.5)
    assert bound2 == pytest.approx(8 * 21.0)
    assert build_grid(lat2, 0.5).size <= bound2


def test_bound_validation():
    with pytest.raises(ValueError):
        meta_count_bound(StateLattice([0], [5]), 1.2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("span", [20, 40, 80])
@pytest.mark.parametrize("s", [1.0 / 3.0, 0.45])
def test_growth_bound_grid(d, span, s):
    lat = StateLattice([0] * d, [span] * d)
    grid = build_grid(lat, s)
    assert grid.size <= meta_count_bound(lat, s)
    assert grid.size <= lat.size


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-40, 10), min_size=d, max_size=d),
            st.lists(st.integers(0, 50), min_size=d, max_size=d),
        )
    ),
    st.sampled_from([1.0 / 3.0, 0.45]),
)
def test_growth_bound_property(bounds, s):
    lower, spans = bounds
    upper = [l + sp for l, sp in zip(lower, spans)]
    lat = StateLattice(lower, upper)
    grid = build_grid(lat, s)
    assert grid.size <= meta_count_bound(lat, s)
    for axis, lo, up in zip(grid.axes, lat.lower, lat.upper):
        assert axis[0] == lo and axis[-1] == up
