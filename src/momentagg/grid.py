"""Coarse grids of representative states.

Along each axis, grid points start dense near zero and spread out with a
power-law gap: from the box edge nearest the origin, offsets follow

    f(0) = 0,   f(k+1) = f(k) + max(1, ceil(scale * f(k)**s)),

with ``s`` the spacing exponent, clamped so the axis endpoints are always
grid points.  Negative coordinates mirror the same magnitudes about zero.
The cartesian product of the axis grids gives the representative states;
their count L grows like N^(1-s) (see ``meta_count_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import RowStochasticMatrix
from .lattice import StateLattice

__all__ = [
    "AxisGrid",
    "CoarseGrid",
    "axis_grid",
    "build_grid",
    "grid_from_axes",
    "build_U",
    "meta_count_bound",
]

#: an axis grid is a sorted 1-D integer array (first=lower, last=upper)
AxisGrid = np.ndarray


def _offsets(limit, smoothness, scale):
    """Magnitude sequence 0, 1, ... grown by f + max(1, ceil(scale*f**s)),
    with the first overshoot clamped to ``limit``."""
    vals = [0]
    f = 0
    while f < limit:
        # the tiny slack keeps ceil() exact when f**s lands on an integer
        step = max(1, math.ceil(scale * f**smoothness - 1e-9))
        f += step
        vals.append(min(f, limit))
    return vals


def axis_grid(lower, upper, smoothness, *, spacing_scale=1.0):
    """Power-spaced integer grid on [lower, upper].

    Parameters
    ----------
    lower, upper : int
    smoothness : float in (0, 1)
        Spacing exponent; gaps near coordinate v scale like v**smoothness.
    spacing_scale : float, optional
        Multiplier on the spacing function (default 1: off).

    Returns
    -------
    ndarray of int64, sorted; contains lower, upper, and 0 when inside.
    """
    if not (0.0 < smoothness < 1.0):
        raise ValueError("smoothness must lie in (0, 1)")
    if spacing_scale <= 0.0:
        raise ValueError("spacing_scale must be positive")
    lo, up = int(lower), int(upper)
    if lo != lower or up != upper:
        raise ValueError("bounds must be integers")
    if lo > up:
        raise ValueError("lower must not exceed upper")
    vals = set()
    if up >= 0:
        base = max(0, lo)  # nonnegative run starts at the edge nearest 0
        vals.update(base + f for f in _offsets(up - base, smoothness, spacing_scale))
    if lo <= 0:
        base = max(0, -up)  # mirrored magnitudes, clamped at |lower|
        vals.update(
            -(base + f) for f in _offsets(-lo - base, smoothness, spacing_scale)
        )
    return np.array(sorted(vals), dtype=np.int64)


@dataclass(frozen=True)
class CoarseGrid:
    """Cartesian product of per-axis grids over a lattice.

    Attributes
    ----------
    lattice : StateLattice
    axes : tuple of ndarray
        Sorted grid values per axis.
    shape : tuple of int
        Points per axis.
    size : int
        Number of representative states L.
    rep_states : (L, d) int ndarray
        Representative states in row-major multi-index order.
    rep_indices : (L,) int ndarray
        Flat lattice indices of the representative states.
    spacing_exponent : float or None
        The exponent the grid was built with (None for explicit axes).
    """

    lattice: StateLattice
    axes: tuple
    shape: tuple
    size: int
    rep_states: np.ndarray
    rep_indices: np.ndarray
    spacing_exponent: float | None = None

    def meta_index(self, multi):
        """Flat meta index of a per-axis grid multi-index."""
        return int(np.ravel_multi_index(tuple(np.asarray(multi).T), self.shape))

    def __repr__(self):
        return (
            f"CoarseGrid(shape={self.shape}, L={self.size}, "
            f"s={self.spacing_exponent})"
        )


def _assemble(lattice, axes, smoothness):
    axes = tuple(np.asarray(a, dtype=np.int64) for a in axes)
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    rep_states = np.stack([m.ravel() for m in mesh], axis=1)
    rep_indices = lattice.to_index(rep_states)
    rep_states.setflags(write=False)
    rep_indices.setflags(write=False)
    return CoarseGrid(
        lattice=lattice,
        axes=axes,
        shape=shape,
        size=int(np.prod(shape)),
        rep_states=rep_states,
        rep_indices=rep_indices,
        spacing_exponent=smoothness,
    )


def build_grid(lattice, smoothness, *, spacing_scale=1.0):
    """Coarse grid over the lattice box with the power-spacing recursion."""
    axes = [
        axis_grid(lo, up, smoothness, spacing_scale=spacing_scale)
        for lo, up in zip(lattice.lower, lattice.upper)
    ]
    return _assemble(lattice, axes, float(smoothness))


def grid_from_axes(lattice, axes):
    """Coarse grid from explicit per-axis values (validated).

    Each axis must be strictly increasing integers running from the
    lattice lower bound to the upper bound, and must contain 0 whenever
    the axis range spans it.
    """
    if len(axes) != lattice.dims:
        raise ValueError(f"expected {lattice.dims} axes, got {len(axes)}")
    cleaned = []
    for i, axis in enumerate(axes):
        a = np.asarray(axis)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("each axis must be a nonempty 1-D sequence")
        if not np.all(a == np.asarray(a, dtype=np.int64)):
            raise ValueError("axis values must be integers")
        a = np.asarray(a, dtype=np.int64)
        if np.any(np.diff(a) <= 0):
            raise ValueError("axis values must be strictly increasing")
        if a[0] != lattice.lower[i] or a[-1] != lattice.upper[i]:
            raise ValueError(
                f"axis {i} must run from {lattice.lower[i]} to {lattice.upper[i]}"
            )
        if lattice.lower[i] <= 0 <= lattice.upper[i] and 0 not in a:
            raise ValueError(f"axis {i} spans 0 and must include it")
        cleaned.append(a)
    return _assemble(lattice, cleaned, None)


def build_U(grid):
    """Binary L x N selector: row l puts mass 1 on representative state l."""
    L, N = grid.size, grid.lattice.size
    return RowStochasticMatrix.from_coo(
        np.arange(L), grid.rep_indices, np.ones(L), (L, N)
    )


def meta_count_bound(lattice, smoothness):
    """Upper bound (sqrt(2)/(1-s))^d * N^(1-s) on the meta-state count."""
    if not (0.0 < smoothness < 1.0):
        raise ValueError("smoothness must lie in (0, 1)")
    d = lattice.dims
    return (math.sqrt(2.0) / (1.0 - smoothness)) ** d * lattice.size ** (
        1.0 - smoothness
    )
