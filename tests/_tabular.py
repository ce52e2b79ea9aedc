"""Dense-action MDP fixture for the solver tests.

``TabularMdp`` holds one N x N kernel and one cost vector per action, the
same action ids in every state, as a tabulated post-decision model: pair
(i, a) lands on post point a N + i of one kernel that stacks every
action's kernel, so the solvers run the package's own table route on it.
"""

import numpy as np
from scipy import sparse

from momentagg.benchmarks import ActionTable, PostDecisionMdp


class TabularMdp(PostDecisionMdp):
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
        self.kernels = [sparse.vstack([K.csr for K in kernels], format="csr")]
        self.costs = costs
        self.discount = float(discount)

    def _build_table(self):
        A, n = self.costs.shape
        pairs = np.arange(A) * n + np.arange(n)[:, None]  # [i, a] -> post a N + i
        return ActionTable(
            indptr=np.arange(0, A * n + 1, A),
            counts=np.full(n, A, dtype=np.int64),
            posts=pairs.ravel(),
            costs=self.costs.T.ravel(),
        )
