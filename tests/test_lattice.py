"""Lattice indexing tests: round trips, enumeration order, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentagg import StateLattice, euclidean_norm


def test_1d_origin_index():
    lat = StateLattice([0], [20])
    assert lat.to_index([0]) == 0
    assert lat.size == 21


def test_2d_row_major_example():
    # [0,2]^2 enumerated row-major, axis 0 slowest: (1,2) is the 6th state
    lat = StateLattice((0, 0), (2, 2))
    assert lat.to_index((1, 2)) == 5
    assert tuple(lat.to_coords(5)) == (1, 2)


def test_2d_last_state():
    lat = StateLattice((-1, -1), (1, 1))
    assert lat.to_index((1, 1)) == 8
    assert tuple(lat.to_coords(0)) == (-1, -1)


def test_to_coords_endpoints():
    lat = StateLattice((-3, 2), (1, 4))
    assert np.array_equal(lat.to_coords(0), lat.lower)
    assert np.array_equal(lat.to_coords(lat.size - 1), lat.upper)


def test_round_trip_exhaustive():
    lat = StateLattice((-2, 0, 5), (2, 3, 7))
    idx = np.arange(lat.size)
    assert np.array_equal(lat.to_index(lat.to_coords(idx)), idx)


def test_all_states_order_and_cache():
    lat = StateLattice((0, 0), (1, 2))
    expect = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert np.array_equal(lat.all_states(), expect)
    assert lat.all_states() is lat.all_states()


def test_out_of_box_coordinates_rejected():
    lat = StateLattice((0, 0), (3, 3))
    with pytest.raises(ValueError):
        lat.to_index((4, 0))
    with pytest.raises(ValueError):
        lat.to_index((0, -1))


def test_fractional_coordinates_rejected():
    # to_index truncated 1.5 to 1; whole floats are still coordinates
    lat = StateLattice([0, 0], [4, 4])
    for bad in ([1.5, 0], [np.nan, 0], [np.inf, 0], [[0, 0], [2, 0.25]]):
        with pytest.raises(ValueError, match="integers"):
            lat.to_index(bad)
    assert lat.to_index([2.0, 3.0]) == lat.to_index([2, 3]) == 13


def test_index_out_of_range_rejected():
    lat = StateLattice([0], [4])
    with pytest.raises(ValueError):
        lat.to_coords(5)
    with pytest.raises(ValueError):
        lat.to_coords(-1)


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        StateLattice([0, 0], [1])
    with pytest.raises(ValueError):
        StateLattice([2], [0])
    with pytest.raises(ValueError):
        StateLattice([0.5], [2.5])


def test_contains_and_clamp():
    lat = StateLattice((0, 0), (2, 2))
    assert lat.contains((1, 1))
    assert not lat.contains((3, 0))
    assert np.array_equal(lat.clamp((5, -1)), (2, 0))


def test_euclidean_norm_values():
    assert euclidean_norm((0, 0)) == 0.0
    assert euclidean_norm((3, 4)) == pytest.approx(5.0)
    assert euclidean_norm((1, 1, 1)) == pytest.approx(np.sqrt(3.0))


def test_euclidean_norm_batch():
    out = euclidean_norm([[3, 4], [0, 0]])
    assert np.allclose(out, [5.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-8, 8), min_size=d, max_size=d),
            st.lists(st.integers(0, 6), min_size=d, max_size=d),
        )
    ),
    st.data(),
)
def test_round_trip_property(bounds, data):
    lower, spans = bounds
    upper = [l + s for l, s in zip(lower, spans)]
    lat = StateLattice(lower, upper)
    i = data.draw(st.integers(0, lat.size - 1))
    assert lat.to_index(lat.to_coords(i)) == i
    coords = lat.to_coords(i)
    assert lat.contains(coords)
