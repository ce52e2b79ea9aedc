"""Dense-action MDP fixture for the solver tests.

``TabularMdp`` holds one N x N kernel and one cost vector per action, the
same action ids in every state, and supplies the bulk operations the
solvers call directly from those arrays.
"""

import numpy as np
from scipy import sparse

from _post_oracles import from_rows
from momentagg import ControlledMdp
from momentagg.chain import KronRows, row_kron
from momentagg.control import _full_policy


class FlatRows(KronRows):
    """Rows of a tabular model as ``KronRows`` with one factor, every
    action's kernel stacked, over the flattened lattice: pair (i, a) is row
    a N + i.  Its ``times`` takes one factor per lattice axis and multiplies
    by their row-Kronecker product, as G is built."""

    def times(self, mats):
        shape = tuple(M.shape[0] for M in mats)
        offsets = np.unravel_index(np.arange(int(np.prod(shape))), shape)
        return super().times([row_kron(mats, offsets)])


class TabularMdp(ControlledMdp):
    """Dense-action MDP: the same action ids everywhere, one kernel each.

    Parameters
    ----------
    lattice : StateLattice
    kernels : list of RowStochasticMatrix, one N x N matrix per action
    costs : (A, N) nonnegative array
    discount : float in (0, 1)
    """

    def __init__(self, lattice, kernels, costs, discount):
        costs = np.asarray(costs, dtype=np.float64)
        n = lattice.size
        if costs.ndim != 2 or costs.shape[1] != n or costs.shape[0] != len(kernels):
            raise ValueError("costs must be (n_actions, n_states)")
        if np.any(costs < 0) or not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite and nonnegative")
        for K in kernels:
            if K.shape != (n, n):
                raise ValueError("every kernel must be N x N")
        if not (0.0 < discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        self.lattice = lattice
        self.kernels = list(kernels)
        self.costs = costs
        self.discount = float(discount)

    def action_counts(self):
        return np.full(self.lattice.size, len(self.kernels), dtype=np.int64)

    def kernel_rows_at(self, indices, actions):
        indices, actions = self.check_actions(indices, actions)
        stacked = sparse.vstack([K.csr for K in self.kernels], format="csr")
        return FlatRows([stacked], actions * self.lattice.size + indices)

    def costs_at(self, indices, actions):
        indices, actions = self.check_actions(indices, actions)
        return self.costs[actions, indices]

    def greedy_at(self, indices, W):
        indices = np.asarray(indices)
        Q = np.stack(
            [
                self.costs[a, indices]
                + self.discount * (self.kernels[a].csr[indices] @ W)
                for a in range(len(self.kernels))
            ]
        )
        actions = np.argmin(Q, axis=0)  # first minimum = lowest action id
        return actions.astype(np.int64), Q[actions, np.arange(len(indices))]

    def induced(self, policy):
        idx, policy = self.check_actions(*_full_policy(self, policy))
        rows = [self.kernels[a].row(i) for i, a in zip(idx, policy)]
        P = from_rows(rows, self.lattice.size)
        return P, self.costs[policy, idx]

    def induced_apply(self, policy):
        P, c = self.induced(policy)
        return P.apply, c

