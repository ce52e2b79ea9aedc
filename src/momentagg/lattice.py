"""Integer box lattices with deterministic row-major enumeration.

Every state space in this package is a finite box ``prod_i [lower_i, upper_i]``
intersected with ``Z^d``.  A lattice fixes the bijection between coordinate
vectors and flat indices that all other modules share: indexing is row-major
with axis 0 slowest, so iteration order is lexicographic in the coordinates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StateLattice", "euclidean_norm"]


def integral(x):
    """Per entry of array ``x``: whether it is a finite integer (every entry
    of an integer array is)."""
    if x.dtype.kind in "biu":
        return np.ones(x.shape, dtype=bool)
    return np.isfinite(x) & (x == np.floor(x))


class StateLattice:
    """Bounded integer box with row-major flat indexing.

    Parameters
    ----------
    lower, upper : array_like of int, shape (d,)
        Inclusive per-axis bounds with ``lower[i] <= upper[i]``.

    Attributes
    ----------
    dims : int
        Number of axes d.
    shape : tuple of int
        Per-axis point counts ``upper - lower + 1``.
    size : int
        Total number of states N.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    threads.  The index <-> coordinate maps are exact inverses of each
    other on ``[0, N)``.
    """

    __slots__ = ("lower", "upper", "dims", "shape", "size", "_states")

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower))
        upper = np.atleast_1d(np.asarray(upper))
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D and equally long")
        if lower.size == 0:
            raise ValueError("lattice needs at least one axis")
        if not (integral(lower).all() and integral(upper).all()):
            raise ValueError("lattice bounds must be integers")
        lower = lower.astype(np.int64)
        upper = upper.astype(np.int64)
        if np.any(upper < lower):
            raise ValueError("upper bound below lower bound on some axis")
        shape = tuple(int(s) for s in (upper - lower + 1))
        size = 1
        for s in shape:
            size *= s
        if size >= 2**62:
            raise ValueError("lattice size does not fit a machine word")
        lower.setflags(write=False)
        upper.setflags(write=False)
        self.lower = lower
        self.upper = upper
        self.dims = int(lower.size)
        self.shape = shape
        self.size = int(size)
        self._states = None

    # -- index arithmetic ---------------------------------------------------

    def to_index(self, coords):
        """Row-major flat index of one coordinate vector or a batch.

        Parameters
        ----------
        coords : array_like, shape (d,) or (m, d)

        Returns
        -------
        int or ndarray of int

        Raises
        ------
        ValueError
            If any coordinate is not an integer or lies outside the box.
        """
        c = np.asarray(coords)
        single = c.ndim == 1
        c = np.atleast_2d(c)
        if c.shape[-1] != self.dims:
            raise ValueError(f"expected {self.dims} coordinates per state")
        if not integral(c).all():
            raise ValueError("coordinates must be integers")
        if np.any(c < self.lower) or np.any(c > self.upper):
            raise ValueError("coordinates outside lattice bounds")
        offsets = (c - self.lower).astype(np.int64)
        idx = np.ravel_multi_index(tuple(offsets.T), self.shape)
        return int(idx[0]) if single else np.asarray(idx, dtype=np.int64)

    def to_coords(self, index):
        """Coordinate vector(s) of flat index/indices; inverse of to_index."""
        idx = np.asarray(index)
        single = idx.ndim == 0
        idx = np.atleast_1d(idx)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("indices must be integers")
        if np.any(idx < 0) or np.any(idx >= self.size):
            raise ValueError("flat index out of range")
        offs = np.unravel_index(idx, self.shape)
        coords = np.stack(offs, axis=-1).astype(np.int64) + self.lower
        return coords[0] if single else coords

    def all_states(self):
        """(N, d) array of every state, in flat-index order (cached)."""
        if self._states is None:
            states = self.to_coords(np.arange(self.size))
            states.setflags(write=False)
            self._states = states
        return self._states

    def __eq__(self, other):
        return (isinstance(other, StateLattice)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __hash__(self):
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self):
        lo = ",".join(str(v) for v in self.lower)
        hi = ",".join(str(v) for v in self.upper)
        return f"StateLattice(lower=[{lo}], upper=[{hi}], size={self.size})"


def euclidean_norm(coords):
    """||x||_2 along the last axis (scalar for a single point)."""
    c = np.asarray(coords, dtype=float)
    return np.linalg.norm(c, axis=-1)
