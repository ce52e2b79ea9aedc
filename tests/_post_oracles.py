"""The model code that ``PostDecisionMdp``, the JRP post-order greedy table,
its truck-bounded scan,
the per-model bulk operations and the row-wise Kronecker builder replaced,
kept as test oracles.

The generic functions are the per-(state, action) loops ``ControlledMdp``
once ran for models that gave only one row and one cost at a time; here
they ask the model for each pair through ``kernel_rows_at([i], [a])`` and
``costs_at([i], [a])``, so they check a model's bulk operations against
its own one-pair answers.  ``induced`` and ``induced_apply`` are the
materializing defaults.  ``_tabular.TabularMdp`` once ran such loops; as a
tabulated model it now runs the package's table route against them.

Each family function is an old per-class method, written against the model's
parameters, kernels and cost tables: the joint replenishment COO row
builder, expected-next contraction (last axis first), scalar cost,
per-state greedy loop, whole-block greedy scan over the post-order table
and post-order arithmetic, and the hospital's
tensor contraction (axis 0 first), induced chain and action-table build
(``hospital_table``: every state expanded over every ward pair, 2-D row
gathers, with the routes column the table no longer stores).  The hospital's kernel rows are checked against dense outer
products in ``test_hospital_table``.  Only the two JRP greedy oracles call the
shared base class, for ``expect``, so that they check the q-block arithmetic
alone.

The two builders that ``chain.row_kron`` replaced close the module: the
corner loop that summed 2^d multilinear corners in a COO matrix
(``interp_csr``, once ``aggregation._interp_csr``) and the dense-span
expansion of the post-decision kernel rows (``kernel_csr``, once
``PostDecisionMdp._spans``/``_kernel_csr``).

``ward_matrix`` is the hospital ward kernel as first written, through
``scipy.stats``, which the package no longer imports.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from momentagg import benchmarks
from momentagg.aggregation import _bracket
from momentagg.chain import RowStochasticMatrix
from momentagg.control import _full_policy


def from_rows(row_entries, n_cols):
    """RowStochasticMatrix from a list of (column_indices, probabilities)
    pairs, duplicates summed."""
    rows = np.concatenate(
        [np.full(len(c), i, dtype=np.int64) for i, (c, _) in enumerate(row_entries)]
    )
    cols = np.concatenate([np.asarray(c, dtype=np.int64) for c, _ in row_entries])
    data = np.concatenate([np.asarray(p, dtype=np.float64) for _, p in row_entries])
    return RowStochasticMatrix.from_coo(rows, cols, data, (len(row_entries), n_cols))


# ---------------------------------------------------------------------------
# generic per-(state, action) loops
# ---------------------------------------------------------------------------

def one_row(mdp, i, a):
    """(columns, probabilities) of one transition row."""
    row = mdp.kernel_rows_at([i], [a]).csr
    return row.indices, row.data


def one_cost(mdp, i, a):
    return float(mdp.costs_at([i], [a])[0])


def action_counts(mdp):
    """Number of actions of every state, in flat-index order."""
    return np.array([mdp.n_actions(i) for i in range(mdp.lattice.size)], dtype=np.int64)


def greedy_at(mdp, indices, W):
    """argmin_a c(x,a) + alpha * sum_y p^a(x,y) W(y), one action at a time;
    ties break to the lowest action id."""
    W = np.asarray(W, dtype=np.float64)
    alpha = mdp.discount
    actions = np.zeros(len(indices), dtype=np.int64)
    qvals = np.empty(len(indices))
    for k, i in enumerate(np.asarray(indices)):
        i = int(i)
        best_a, best_q = 0, np.inf
        for a in range(mdp.n_actions(i)):
            cols, probs = one_row(mdp, i, a)
            q = one_cost(mdp, i, a) + alpha * float(probs @ W[cols])
            if q < best_q:  # strict, so the lowest action id wins ties
                best_a, best_q = a, q
        actions[k], qvals[k] = best_a, best_q
    return actions, qvals


def kernel_rows_at(mdp, indices, actions):
    """Stacked kernel rows (len(indices) x N), one pair at a time."""
    entries = [one_row(mdp, int(i), int(a)) for i, a in zip(indices, actions)]
    return from_rows(entries, mdp.lattice.size)


def costs_at(mdp, indices, actions):
    return np.array([one_cost(mdp, int(i), int(a)) for i, a in zip(indices, actions)])


def induced(mdp, policy):
    """(P, c) of the chain obtained by following ``policy`` everywhere."""
    idx, policy = _full_policy(mdp, policy)
    return mdp.kernel_rows_at(idx, policy), mdp.costs_at(idx, policy)


def induced_apply(mdp, policy):
    """(apply, c) of the induced chain, through the materialized kernel."""
    P, c = mdp.induced(policy)
    return P.apply, c


# ---------------------------------------------------------------------------
# joint replenishment
# ---------------------------------------------------------------------------

def jrp_expected_next(mdp, W):
    """E_d[W(clamped z - d)] over the post-order block: two sparse products,
    the item-2 axis first."""
    mix0, mix1 = mdp.kernels
    Wg = np.asarray(W, dtype=np.float64).reshape(mdp.lattice.shape)
    return mix0 @ (mix1 @ Wg.T).T


def _jrp_next_offsets(mdp, j, z):
    """Per demand of item j: its probability and the clamped next offset on
    axis j from post-order offset z."""
    p = mdp.params
    lo, up = mdp.lattice.lower[j], mdp.lattice.upper[j]
    d = np.arange(int(p.demand_low[j]), int(p.demand_high[j]) + 1)
    return np.full(len(d), 1.0 / len(d)), np.clip(lo + z - d, lo, up) - lo


def jrp_kernel_row(mdp, i, a):
    """(columns, probabilities) of one row, one entry per demand pair in
    (d1-major, d2-minor) order; clamped duplicates are not summed."""
    i1, i2 = mdp._offsets(i)
    q1, q2 = mdp.action_quantities(i, a)
    p1, c1 = _jrp_next_offsets(mdp, 0, i1 + q1)
    p2, c2 = _jrp_next_offsets(mdp, 1, i2 + q2)
    cols = (c1[:, None] * mdp.lattice.shape[1] + c2[None, :]).ravel()
    probs = (p1[:, None] * p2[None, :]).ravel()
    return cols, probs


def jrp_kernel_rows(mdp, indices, actions):
    """The rows of ``jrp_kernel_row`` stacked through COO, so clamped
    duplicates are summed in demand order."""
    entries = [jrp_kernel_row(mdp, int(i), int(a)) for i, a in zip(indices, actions)]
    return from_rows(entries, mdp.lattice.size)


def jrp_action_cost(mdp, i, a):
    """Expected one-period cost of ordering (q1, q2) in state i."""
    i1, i2 = mdp._offsets(i)
    q1, q2 = mdp.action_quantities(i, a)
    p = mdp.params
    return float(
        mdp._stage[0][i1 + q1]
        + mdp._stage[1][i2 + q2]
        + (p.minor_cost[0] if q1 > 0 else 0.0)
        + (p.minor_cost[1] if q2 > 0 else 0.0)
        + mdp._trucks[q1, q2]
    )


def jrp_costs(mdp, indices, actions):
    return np.array([jrp_action_cost(mdp, int(i), int(a)) for i, a in zip(indices, actions)])


def jrp_greedy_loop(mdp, indices, W):
    """Greedy actions and Q-values, each state's q-block built from scratch:
    stage costs, discounted expectation and trucks, then the minor costs of
    the rows and columns that order."""
    EW = mdp.expect(W)
    nz1, nz2 = EW.shape
    alpha = mdp.discount
    k1, k2 = mdp.params.minor_cost
    actions = np.zeros(len(indices), dtype=np.int64)
    qvals = np.empty(len(indices))
    for k, i in enumerate(np.asarray(indices)):
        i1, i2 = mdp._offsets(i)
        block = (
            mdp._stage[0][i1:, None]
            + mdp._stage[1][None, i2:]
            + alpha * EW[i1:, i2:]
            + mdp._trucks[: nz1 - i1, : nz2 - i2]
        )
        block[1:, :] += k1
        block[:, 1:] += k2
        a = int(np.argmin(block))
        actions[k] = a
        qvals[k] = block.flat[a]
    return actions, qvals


def jrp_greedy_corners(mdp, indices, W):
    """Greedy actions and Q-values, each state scanning its whole q-block:
    its corner of the post-order value table from z = i on plus the order
    costs, one add and one argmin per state."""
    EW = mdp.expect(W)
    nz1, nz2 = EW.shape
    post = (mdp._stage[0][:, None] + mdp._stage[1][None, :]) + mdp.discount * EW
    actions = np.zeros(len(indices), dtype=np.int64)
    qvals = np.empty(len(indices))
    for k, i in enumerate(np.asarray(indices)):
        i1, i2 = mdp._offsets(i)
        block = post[i1:, i2:] + mdp._order_costs[: nz1 - i1, : nz2 - i2]
        a = int(np.argmin(block))
        actions[k] = a
        qvals[k] = block.flat[a]
    return actions, qvals


def jrp_posts(mdp, indices, actions):
    """Flat post-order index z1 * nz2 + z2 of each (state, action) pair."""
    p = mdp.params
    nz2 = mdp.lattice.shape[1] + (p.demand_low[1] if p.widen_orders else 0)
    out = []
    for i, a in zip(indices, actions):
        i1, i2 = mdp._offsets(i)
        q1, q2 = mdp.action_quantities(i, a)
        out.append((i1 + q1) * nz2 + i2 + q2)
    return np.array(out, dtype=np.int64)


def jrp_induced_apply(mdp, policy):
    """(apply, c) of the induced chain: the expected-next block gathered at
    each state's post-order level."""
    idx = np.arange(mdp.lattice.size)
    at = jrp_posts(mdp, idx, policy)
    return (lambda v: jrp_expected_next(mdp, v).ravel()[at]), jrp_costs(mdp, idx, policy)


# ---------------------------------------------------------------------------
# hospital overflow
# ---------------------------------------------------------------------------

def hospital_contract(mdp, v):
    """E[v(next occupancy) | post-routing occupancy = w] for every w, one
    tensordot per ward, ward 0 first."""
    E = np.asarray(v, dtype=np.float64).reshape(mdp.lattice.shape)
    for j in range(mdp.J):
        E = np.moveaxis(np.tensordot(mdp.kernels[j], E, axes=(1, j)), 0, j)
    return E


def hospital_induced_apply(mdp, policy):
    """(apply, c) of the induced chain: the contraction gathered at each
    state's post-routing occupancy, read from the action table."""
    pairs = mdp.table.indptr[:-1] + np.asarray(policy, dtype=np.int64)
    posts = mdp.table.posts[pairs]
    return (lambda v: hospital_contract(mdp, v).ravel()[posts]), mdp.table.costs[pairs]


@dataclass(frozen=True)
class AllPairsTable:
    """The hospital's ``ActionTable`` as the all-pairs build made it: pair p
    also routes ``routes[p, t]`` patients along the t-th off-diagonal ward
    pair (row-major, in ``benchmarks._route_dtype``)."""

    indptr: np.ndarray
    counts: np.ndarray
    routes: np.ndarray
    posts: np.ndarray
    costs: np.ndarray


def hospital_table(mdp):
    """The hospital's action table with its routes (``AllPairsTable``),
    every state expanded by the values of every ward pair in turn (one level
    per pair, row gathers of the whole partial-action set), then walked back
    to the states."""
    n = mdp.lattice.size
    small = benchmarks._route_dtype(mdp.params.caps)
    x = mdp.lattice.to_coords(np.arange(n)).astype(small)
    beds = np.asarray(mdp.params.beds, dtype=small)
    supply = np.maximum(x - beds, 0)  # waiting patients not yet routed
    space = np.maximum(beds - x, 0)  # free beds not yet taken
    parents, values = [], []
    for a, b in mdp._pairs:
        counts = np.minimum(supply[:, a], space[:, b]).astype(np.int32) + 1
        src = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        v = np.arange(len(src), dtype=np.int32)
        v -= (np.cumsum(counts, dtype=np.int32) - counts)[src]
        v = v.astype(small)
        supply, space = supply[src], space[src]
        supply[:, a] -= v
        space[:, b] -= v
        parents.append(src)
        values.append(v)
    del supply, space, src, v
    routes = np.empty((len(values[-1]), len(mdp._pairs)), dtype=small)
    owner = np.arange(len(routes), dtype=np.int32)
    for t in reversed(range(len(mdp._pairs))):
        routes[:, t] = values.pop()[owner]
        owner = parents.pop()[owner]
    post = x[owner]
    del x
    for t, (a, _) in enumerate(mdp._pairs):
        post[:, a] -= routes[:, t]
    B = np.asarray(mdp.params.overflow, dtype=np.float64)
    H = np.asarray(mdp.params.holding, dtype=np.float64)
    pair_cost = np.array([B[a, b] for a, b in mdp._pairs])
    block = benchmarks._TABLE_BLOCK
    costs = np.empty(len(routes))
    for s in range(0, len(routes), block):
        r, p = routes[s : s + block], post[s : s + block]
        costs[s : s + block] = np.sum(r * pair_cost, axis=1)
        costs[s : s + block] += np.sum(np.maximum(p - beds, 0) * H, axis=1)
    for t, (_, b) in enumerate(mdp._pairs):
        post[:, b] += routes[:, t]
    counts = np.bincount(owner, minlength=n)
    del owner
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return AllPairsTable(
        indptr=indptr,
        counts=counts,
        routes=routes,
        posts=np.ravel_multi_index(tuple(post.T), mdp.lattice.shape),
        costs=costs,
    )


# ---------------------------------------------------------------------------
# the builders chain.row_kron replaced
# ---------------------------------------------------------------------------

def interp_csr(grid, points, *, clamp=False):
    """(n, L) interpolation-weight matrix for real-valued points: one COO
    entry per corner of the enclosing box, duplicates summed."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    if d != grid.lattice.dims:
        raise ValueError("point dimension does not match the grid")
    lo, hi, t = zip(
        *(_bracket(grid.axes[i], points[:, i], clamp=clamp) for i in range(d))
    )
    rows = np.empty((2**d, n), dtype=np.int64)
    cols = np.empty_like(rows)
    data = np.empty((2**d, n), dtype=np.float64)
    for b in range(2**d):
        idx = tuple(hi[i] if (b >> i) & 1 else lo[i] for i in range(d))
        w = np.ones(n)
        for i in range(d):
            w *= t[i] if (b >> i) & 1 else 1.0 - t[i]
        rows[b] = np.arange(n)
        cols[b] = np.ravel_multi_index(idx, grid.shape)
        data[b] = w
    M = sparse.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, grid.size)
    )
    return M.tocsr()


def kernel_spans(mdp):
    """Per axis: the raveled dense kernel, its row length, and per row the
    first nonzero column and the width of the span to the last."""
    spans = []
    for K in mdp.kernels:
        K = np.ascontiguousarray(K.toarray() if sparse.issparse(K) else K)
        nz = K != 0
        lo = np.argmax(nz, axis=1)
        width = K.shape[1] - np.argmax(nz[:, ::-1], axis=1) - lo
        spans.append((K.ravel(), K.shape[1], lo, width))
    return spans


def kernel_csr(mdp, posts):
    """CSR of the rows ⊗_j K_j[w_j] at the flat post points ``posts``,
    expanded axis by axis over each kernel row's dense span."""
    w = np.unravel_index(np.asarray(posts, dtype=np.int64), mdp.post_shape)
    n = mdp.lattice.size
    itype = np.int32 if n < 2**31 else np.int64
    cols = np.zeros(len(posts), dtype=itype)  # partial column per entry
    vals = np.ones(len(posts))
    sizes = np.ones(len(posts), dtype=np.int64)  # entries per row so far
    for w_j, (flat, n_j, lo, width) in zip(w, kernel_spans(mdp)):
        wj = np.repeat(w_j, sizes)
        k = width[wj]
        shift = lo[wj] - (np.cumsum(k) - k)
        ar = np.arange(int(k.sum()), dtype=itype)
        cols = np.repeat((cols * n_j + shift).astype(itype), k)
        cols += ar
        t_idx = np.repeat((wj * n_j + shift).astype(itype), k)
        t_idx += ar
        t_val = flat[t_idx]
        t_val *= np.repeat(vals, k)
        vals = t_val
        sizes *= width[w_j]
    indptr = np.zeros(len(posts) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    keep = vals != 0.0
    if not keep.all():
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        cols, vals = cols[keep], vals[keep]
    return sparse.csr_matrix((vals, cols, indptr), shape=(len(posts), n))


def ward_matrix(cap, beds, p_serve, lam):
    """Occupancy transition matrix of one ward from ``scipy.stats``'
    binomial pmf and Poisson pmf and survival function."""
    from scipy import stats

    T = np.zeros((cap + 1, cap + 1))
    pois = stats.poisson.pmf(np.arange(cap + 1), lam)
    for w in range(cap + 1):
        busy = min(w, beds)
        dep = stats.binom.pmf(np.arange(busy + 1), busy, p_serve)
        for k in range(busy + 1):
            base = w - k
            room = cap - base
            T[w, base : base + room] += dep[k] * pois[:room]
            T[w, cap] += dep[k] * float(stats.poisson.sf(room - 1, lam))
    return T
