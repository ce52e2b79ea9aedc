"""Benchmark problem generators.

Three families:

* joint replenishment — two items share a truck; order decisions pay
  per-item fixed costs plus a major cost per truck, inventory pays
  holding/backorder on the post-demand level (``build_jrp``);
* hospital overflow routing — wards route waiting patients to other
  wards' free beds, paying per-transfer and per-boarding costs, with
  binomial discharges and Poisson (cap-clamped) arrivals
  (``build_hospital``);
* random walks — the absorbing walk and its two-point reduction, and a
  seeded reflecting walk with downward drift (``build_simple_rw``,
  ``build_two_point_chain``, ``build_reflecting_rw``).

The two controlled families share one post-decision layer,
``PostDecisionMdp``: an action picks a post-decision point, and from there
each axis moves on its own under a 1-D kernel.

Any probability mass that a transition would push outside the state box
is clamped to the nearest boundary state, which keeps every row exactly
stochastic.  ``save_mrp``/``load_mrp`` round-trip generated processes
through a compressed ``.npz`` container.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse, special
from scipy.special import _ufuncs

from . import chain
from .chain import MarkovRewardProcess, ResourceLimitError, RowStochasticMatrix
from .control import ControlledMdp, _full_policy
from .lattice import StateLattice, integral

__all__ = [
    "JrpParams",
    "HospitalParams",
    "jrp_small",
    "jrp_large",
    "hospital_2ward",
    "hospital_3ward",
    "hospital_4ward",
    "build_jrp",
    "build_hospital",
    "PostDecisionMdp",
    "JointReplenishmentMdp",
    "HospitalOverflowMdp",
    "build_simple_rw",
    "build_two_point_chain",
    "build_reflecting_rw",
    "save_mrp",
    "load_mrp",
]


# ---------------------------------------------------------------------------
# post-decision models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionTable:
    """Every (state, action) pair of a tabulated model, in CSR form.

    The actions of state i are the ``counts[i]`` pairs
    ``indptr[i]:indptr[i + 1]``, in action-id order.  Pair p lands on the
    post point with flat index ``posts[p]`` (for the hospital, the
    post-routing occupancy; its routing is not stored, and ``_actions``
    expands a state's routings again) and costs ``costs[p]``.  All arrays
    are read-only.
    """

    indptr: np.ndarray
    counts: np.ndarray
    posts: np.ndarray
    costs: np.ndarray


#: action-table rows a build or a greedy sweep works on at once.  Whole
#: tables make MB-sized temporaries: hospital3's costs took 11.6 MB of
#: products, and its full sweep 4.3 ms when an earlier large free had
#: raised glibc's mmap and trim thresholds, 10 ms when not (page faults on
#: every temporary); blocks stay cache-sized, and a sweep's blocks work in
#: buffers kept from sweep to sweep (``_sweep_buffers``)
_TABLE_BLOCK = 1 << 15


class PostDecisionMdp(ControlledMdp):
    """A controlled MDP whose actions pick a post-decision point.

    An action moves state i to a point w of the post-decision box, of shape
    ``post_shape``, at a cost; from there each axis j moves on its own
    under the 1-D kernel ``kernels[j]`` (row w_j: the distribution of the
    next state's axis-j offset), so the transition row is ⊗_j K_j[w_j].
    One kernel may also span every axis, its columns the flat lattice: any
    finite MDP is a post-decision model whose post points are its (state,
    action) pairs and whose one kernel stacks their transition rows.

    Subclasses set ``kernels`` (dense arrays or scipy CSR matrices) and
    either build the :class:`ActionTable` of every pair (``_build_table``),
    which gives ``action_counts``, ``pairs_at`` and ``greedy_at`` here, or
    supply those three, as joint replenishment does (its table would hold
    about 2.7e8 pairs on jrp_large).  Costs, expectations, kernel rows and
    the induced chain are defined here, once, from the kernels and the one
    gather ``pairs_at`` of post points and costs.
    """

    kernels: list
    _table = None
    #: one lock for every model's table build, which runs once per model
    _table_lock = threading.Lock()

    # -- the table route -------------------------------------------------------

    @property
    def table(self):
        """The :class:`ActionTable`, built on first access (thread-safe)
        with read-only arrays, together with the model's sweep buffers."""
        table = self._table
        if table is None:
            with self._table_lock:
                if self._table is None:
                    table = self._build_table()
                    for arr in vars(table).values():
                        arr.setflags(write=False)
                    self._sweep = threading.local()
                    self._table = table
                table = self._table
        return table

    def action_counts(self):
        return self.table.counts

    def pairs_at(self, indices, actions):
        """(flat post-decision indices, costs) of the (state, action) pairs,
        gathered after one ``check_actions``."""
        indices, actions = self.check_actions(indices, actions)
        rows = self.table.indptr[indices] + actions
        return self.table.posts[rows], self.table.costs[rows]

    def _sweep_buffers(self, size):
        """This thread's entry buffers for ``greedy_at``, of at least
        ``size`` entries: an arange, two int64, two float64 and one bool
        buffer.  They are kept from sweep to sweep, since buffers made once
        per sweep were fresh pages on every sweep whenever glibc's mmap and
        trim thresholds were low (hospital3: 534 page faults a sweep)."""
        buffers = getattr(self._sweep, "buffers", None)
        if buffers is None or len(buffers[0]) < size:
            buffers = self._sweep.buffers = (
                np.arange(size), np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64),
                np.empty(size), np.empty(size), np.empty(size, dtype=bool),
            )
        return buffers

    def greedy_at(self, indices, W):
        """Greedy actions and Q-values at ``indices`` against W: each pair's
        cost plus alpha E[W | its post point], read from the table in blocks
        of whole states, and a segment argmin per state."""
        t = self.table
        indices = np.asarray(indices, dtype=np.int64)
        counts = t.counts[indices]
        EW = self.expect(W).ravel()
        actions, qvals = np.empty(len(indices), dtype=np.int64), np.empty(len(indices))
        ends = np.concatenate(([0], np.cumsum(counts)))
        blocks = chain.row_blocks(ends, _TABLE_BLOCK)
        size = max((int(ends[e] - ends[s]) for s, e in blocks), default=0)
        ar, rows, pos, q, other, hit = self._sweep_buffers(size)
        # the gathers' indices are in range by construction; mode "clip"
        # writes to ``out`` directly, where "raise" would buffer it
        for s, e in blocks:
            k = counts[s:e]
            m = int(ends[e] - ends[s])
            seg = np.cumsum(k) - k
            owner = np.repeat(np.arange(e - s), k)  # the one temporary of m entries
            r = np.take(t.indptr[indices[s:e]] - seg, owner, out=rows[:m], mode="clip")
            r += ar[:m]
            qb, ew = np.take(t.costs, r, out=q[:m], mode="clip"), other[:m]
            np.take(EW, np.take(t.posts, r, out=pos[:m], mode="clip"), out=ew, mode="clip")
            ew *= self.discount
            qb += ew
            # segment argmin keeping the first minimum (the lowest action id)
            qmin = np.minimum.reduceat(qb, seg)
            np.equal(qb, np.take(qmin, owner, out=ew, mode="clip"), out=hit[:m])
            at = pos[:m]  # each entry's position if it hits its minimum, else m
            at.fill(m)
            np.copyto(at, ar[:m], where=hit[:m])
            first = np.minimum.reduceat(at, seg)
            actions[s:e], qvals[s:e] = first - seg, qb[first]
        return actions, qvals

    # -- kernels -----------------------------------------------------------------

    @property
    def post_shape(self):
        return tuple(K.shape[0] for K in self.kernels)

    def expect(self, W):
        """E[W(next) | post point w] for every w, shaped ``post_shape``:
        ``chain.contract`` of the kernels with W, shaped by the kernels'
        column counts, so a sweep costs one small product per kernel."""
        W = np.asarray(W, dtype=np.float64).reshape([K.shape[1] for K in self.kernels])
        return chain.contract(self.kernels, W)

    def costs_at(self, indices, actions):
        return self.pairs_at(indices, actions)[1]

    def _rows(self, indices, actions):
        """The pairs' kernel rows, as ``chain.KronRows`` of the kernels at
        their post points, and their costs, from one ``pairs_at`` gather."""
        posts, costs = self.pairs_at(indices, actions)
        return chain.KronRows(self.kernels, posts), costs

    def kernel_rows_at(self, indices, actions):
        return self._rows(indices, actions)[0]

    # induced and induced_apply read _rows: a caller may wrap kernel_rows_at
    # and costs_at on the instance, for aggregated PI's alone

    def induced_apply(self, policy):
        rows, c = self._rows(*_full_policy(self, policy))
        return rows.apply, c

    def induced(self, policy):
        """(P, c) of the induced chain, refused before any kernel row is
        built when its rows hold more than ``chain.NNZ_BUDGET`` entries."""
        rows, c = self._rows(*_full_policy(self, policy))
        nnz = int(rows.sizes().sum())
        if nnz > chain.NNZ_BUDGET:
            raise ResourceLimitError(
                f"materializing the induced kernel of {len(c)} states needs up "
                f"to {nnz} entries (budget {chain.NNZ_BUDGET}); use induced_apply instead"
            )
        return rows.matrix, c


def _check_params(discount, *costs):
    """ValueError unless the discount lies in (0, 1) and every entry of
    ``costs`` is finite and nonnegative, as the solvers require."""
    if not (0.0 < discount < 1.0):
        raise ValueError("discount must lie in (0, 1)")
    if not all(0.0 <= x < np.inf for c in costs for x in np.ravel(c)):  # NaN fails
        raise ValueError("costs must be finite and nonnegative")


# ---------------------------------------------------------------------------
# joint replenishment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JrpParams:
    """Two-item joint replenishment instance.

    Demands are independent discrete uniforms on
    [demand_low[i], demand_high[i]].  With ``widen_orders`` the feasible
    order quantity extends to u_i - I_i + min demand (the inventory cap
    itself stays at u_i).
    """

    demand_low: tuple
    demand_high: tuple
    holding: tuple
    backorder: tuple
    minor_cost: tuple
    major_cost: float
    truck_capacity: int
    lower: tuple
    upper: tuple
    discount: float = 0.99
    widen_orders: bool = False

    def __post_init__(self):
        per_item = (self.demand_low, self.demand_high, self.holding, self.backorder,
                    self.minor_cost, self.lower, self.upper)
        if any(len(values) != 2 for values in per_item):
            raise ValueError("two items expected")
        for lo, hi in zip(self.demand_low, self.demand_high):
            if lo < 0 or lo != int(lo) or hi != int(hi) or hi < lo:
                raise ValueError("demand bounds must be nonnegative integers")
        if self.truck_capacity < 1:
            raise ValueError("truck capacity must be >= 1")
        _check_params(self.discount, self.holding, self.backorder, self.minor_cost,
                      self.major_cost)


def jrp_small():
    """Small instance: light uniform demands, truck of 6, box [-30, 40]^2."""
    return JrpParams(
        demand_low=(0, 0),
        demand_high=(5, 3),
        holding=(1.0, 1.0),
        backorder=(19.0, 19.0),
        minor_cost=(40.0, 10.0),
        major_cost=75.0,
        truck_capacity=6,
        lower=(-30, -30),
        upper=(40, 40),
        discount=0.99,
        widen_orders=False,
    )


def jrp_large():
    """Large instance: heavy demands, truck of 33, box [-50, 120]^2; order
    quantities widened by the minimum demand."""
    return JrpParams(
        demand_low=(15, 5),
        demand_high=(25, 15),
        holding=(7.0, 1.0),
        backorder=(19.0, 19.0),
        minor_cost=(40.0, 10.0),
        major_cost=400.0,
        truck_capacity=33,
        lower=(-50, -50),
        upper=(120, 120),
        discount=0.99,
        widen_orders=True,
    )


#: states a JRP greedy sweep bounds at once, so that its per-state arrays,
#: and the lists its corner loop walks, stay small on full sweeps
_SCAN_BLOCK = 1 << 12


class JointReplenishmentMdp(PostDecisionMdp):
    """Joint replenishment as a controlled MDP on the inventory lattice.

    State: inventory pair (negative = backorders).  Action id
    ``a = q1 * nq2 + q2`` where nq2 is the state's count of feasible q2
    values, so id 0 orders nothing and argmin over the C-ordered q-block
    breaks ties toward lexicographically smallest (q1, q2).

    An order moves state i to the post-order level z = i + q, after which
    each item's demand acts on its own axis: the kernels are the per-item
    demand-mixing matrices (sparse), and the post points are found by
    arithmetic, with no action table (jrp_large has about 2.7e8 pairs).
    """

    def __init__(self, params):
        self.params = params
        self.lattice = StateLattice(params.lower, params.upper)
        self.discount = float(params.discount)
        lo, up = self.lattice.lower, self.lattice.upper
        self._n2 = int(up[1] - lo[1] + 1)
        widen = params.demand_low if params.widen_orders else (0, 0)
        self._stage, self.kernels = [], []
        for i in range(2):
            # uniform demands; post-order levels z = I + q range over
            # [lo_i, up_i + widen_i]
            d = np.arange(int(params.demand_low[i]), int(params.demand_high[i]) + 1)
            prob = np.full(len(d), 1.0 / len(d))
            z = np.arange(lo[i], up[i] + int(widen[i]) + 1)
            # expected holding/backorder of the clamped end inventory
            ends = np.clip(z[None, :] - d[:, None], lo[i], up[i])
            h = params.holding[i] * np.maximum(ends, 0) + (
                params.backorder[i] * np.maximum(-ends, 0)
            )
            self._stage.append(prob @ h)
            # demand-mixing matrix (CSR): row z is the distribution of the
            # clamped next level on axis i; sparse products keep expect() at
            # about 0.2 ms on jrp_large, against 12 ms for dense ones
            M = np.zeros((len(z), self.lattice.shape[i]))
            rows = np.arange(len(z))
            for k in range(len(d)):
                np.add.at(M, (rows, ends[k] - lo[i]), prob[k])
            self.kernels.append(sparse.csr_matrix(M))
        # trucks needed for every feasible (q1, q2) block, C-ordered
        nz1, nz2 = self.post_shape
        q1 = np.arange(nz1)[:, None]
        q2 = np.arange(nz2)[None, :]
        self._trucks = params.major_cost * np.ceil(
            (q1 + q2) / params.truck_capacity
        )
        # the whole order cost of every (q1, q2): trucks plus the minor
        # cost of each item ordered
        self._order_costs = self._trucks.copy()
        self._order_costs[1:, :] += params.minor_cost[0]
        self._order_costs[:, 1:] += params.minor_cost[1]
        # truck floors: _floors[t] is the least order cost of any q needing
        # more than t trucks, and +inf at the most any q of the box needs;
        # read off the table itself, so it bounds any costs, zero ones too
        bands = np.ceil((q1 + q2) / params.truck_capacity).astype(np.int64)
        least = np.full(int(bands[-1, -1]) + 1, np.inf)
        np.minimum.at(least, bands.ravel(), self._order_costs.ravel())
        self._floors = np.append(np.minimum.accumulate(least[:0:-1])[::-1], np.inf)
        i1, i2 = np.divmod(np.arange(self.lattice.size), self._n2)
        self._counts = (nz1 - i1) * (nz2 - i2)  # every (q1, q2) within the post box
        self._counts.setflags(write=False)

    # -- action bookkeeping ----------------------------------------------------

    def _offsets(self, i):
        """Coordinate offsets (i1, i2) of flat state i from the lower corner."""
        return int(i) // self._n2, int(i) % self._n2

    def action_counts(self):
        return self._counts

    def action_quantities(self, i, a):
        """Decode action id to the order pair (q1, q2)."""
        return divmod(int(a), self.post_shape[1] - self._offsets(i)[1])

    def pairs_at(self, indices, actions):
        indices, actions = self.check_actions(indices, actions)
        i1, i2 = np.divmod(indices, self._n2)
        q1, q2 = np.divmod(actions, self.post_shape[1] - i2)
        z1, z2 = i1 + q1, i2 + q2
        p = self.params
        costs = (
            self._stage[0][z1]
            + self._stage[1][z2]
            + np.where(q1 > 0, p.minor_cost[0], 0.0)
            + np.where(q2 > 0, p.minor_cost[1], 0.0)
            + self._trucks[q1, q2]
        )
        return z1 * self.post_shape[1] + z2, costs

    # -- greedy sweeps -----------------------------------------------------------

    def greedy_at(self, indices, W):
        """Greedy actions and Q-values at ``indices`` against W.

        The post-order value stage(z) + alpha E[W | z] is tabulated once per
        call, with its suffix minimum S(z) over the post points z' >= z.
        State i's q-block is its corner of that table from z = i on plus the
        order costs.  Any q needing more than t trucks costs at least the
        floor F[t], and then its value is at least fl(S(i) + F[t]); where
        that exceeds the value of ordering nothing, the minimum and all its
        ties lie in the q1, q2 <= tC corner, so each state adds and argmins
        that corner only, at the least such t (none when t = 0, the whole
        block when no t qualifies, as for a non-finite W).  Its first
        minimum is the lowest action id.
        """
        EW = self.expect(W)
        nz1, nz2 = EW.shape
        post = (self._stage[0][:, None] + self._stage[1][None, :]) + self.discount * EW
        suffix = np.minimum.accumulate(post[::-1, ::-1], axis=0)
        np.minimum.accumulate(suffix, axis=1, out=suffix)
        suffix = suffix[::-1, ::-1]
        oc, cap = self._order_costs, self.params.truck_capacity
        indices = np.asarray(indices, dtype=np.int64)
        actions = np.zeros(len(indices), dtype=np.int64)
        qvals = np.empty(len(indices))
        buf = np.empty(post.size)
        for s in range(0, len(indices), _SCAN_BLOCK):
            i1, i2 = np.divmod(indices[s : s + _SCAN_BLOCK], self._n2)
            q = qvals[s : s + _SCAN_BLOCK]
            np.add(post[i1, i2], oc[0, 0], out=q)  # ordering nothing
            S, trucks = suffix[i1, i2], np.zeros(len(q), dtype=np.int64)
            for F in self._floors[:-1]:
                trucks += ~(S + F > q)
            scan = np.flatnonzero(trucks)
            i1, i2, span = i1[scan], i2[scan], trucks[scan] * cap + 1
            for k, a1, a2, h, w in zip(
                (scan + s).tolist(), i1.tolist(), i2.tolist(),
                np.minimum(span, nz1 - i1).tolist(), np.minimum(span, nz2 - i2).tolist(),
            ):
                block = buf[: h * w].reshape(h, w)
                np.add(post[a1 : a1 + h, a2 : a2 + w], oc[:h, :w], out=block)
                b = block.argmin()
                actions[k] = (b // w) * (nz2 - a2) + b % w
                qvals[k] = buf[b]
        return actions, qvals


def build_jrp(params):
    """Controlled MDP for a joint replenishment instance."""
    return JointReplenishmentMdp(params)


# ---------------------------------------------------------------------------
# hospital overflow routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HospitalParams:
    """Ward-overflow instance.

    ``overflow[i][j]`` is the cost of routing one patient waiting at ward
    i into a free bed of ward j; ``holding[i]`` is the per-period cost of
    each patient still boarding at ward i after routing.
    """

    arrival_rates: tuple
    service_probs: tuple
    beds: tuple
    holding: tuple
    overflow: tuple
    caps: tuple
    discount: float = 0.99

    def __post_init__(self):
        J = len(self.beds)
        if not (
            len(self.arrival_rates)
            == len(self.service_probs)
            == len(self.holding)
            == len(self.caps)
            == len(self.overflow)
            == J
        ) or any(len(row) != J for row in self.overflow):
            raise ValueError("per-ward parameter lengths disagree (overflow is J x J)")
        if not integral(np.asarray((*self.beds, *self.caps), dtype=np.float64)).all():
            raise ValueError("bed counts and occupancy caps must be integers")
        object.__setattr__(self, "beds", tuple(int(b) for b in self.beds))
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        for lam, p, cap, beds in zip(
            self.arrival_rates, self.service_probs, self.caps, self.beds
        ):
            if not (0 < lam < np.inf and 0 < p <= 1):
                raise ValueError("need a finite arrival rate > 0 and service prob in (0,1]")
            if not 0 <= beds <= cap:
                raise ValueError("need 0 <= bed count <= occupancy cap")
        _check_params(self.discount, self.holding, self.overflow)


def hospital_2ward():
    """Two wards, asymmetric transfer costs, caps at 42."""
    return HospitalParams(
        arrival_rates=(3.5, 2.8),
        service_probs=(0.25, 0.35),
        beds=(12, 12),
        holding=(5.0, 5.0),
        overflow=((0.0, 5.0), (1.0, 0.0)),
        caps=(42, 42),
        discount=0.99,
    )


def hospital_3ward(load=0.7):
    """Three wards at the given utilization: arrival rates load*beds*p."""
    beds = (10, 10, 10)
    p = (0.4, 0.6, 0.1)
    lam = tuple(load * n * pi for n, pi in zip(beds, p))
    return HospitalParams(
        arrival_rates=lam,
        service_probs=p,
        beds=beds,
        holding=(10.0, 2.0, 6.0),
        overflow=((0.0, 5.0, 2.0), (3.0, 0.0, 7.0), (7.0, 9.0, 0.0)),
        caps=(24, 24, 24),
        discount=0.99,
    )


def hospital_4ward(load=0.8):
    """Four small wards; the largest instance the suite generates."""
    beds = (2, 3, 1, 2)
    p = (0.2, 0.7, 0.5, 0.3)
    lam = tuple(load * n * pi for n, pi in zip(beds, p))
    return HospitalParams(
        arrival_rates=lam,
        service_probs=p,
        beds=beds,
        holding=(10.0, 2.0, 6.0, 6.0),
        overflow=(
            (0.0, 5.0, 2.0, 1.0),
            (7.0, 0.0, 1.0, 2.0),
            (7.0, 9.0, 0.0, 3.0),
            (1.0, 2.0, 3.0, 0.0),
        ),
        caps=(14, 15, 13, 14),
        discount=0.99,
    )


def _ward_matrix(cap, beds, p_serve, lam):
    """Occupancy transition matrix of one ward: binomial discharges from
    occupied beds, Poisson arrivals with the tail clamped at the cap."""
    T = np.zeros((cap + 1, cap + 1))
    # the functions scipy.stats evaluates, without importing it (35 MB and
    # 50 ms): Poisson pmf and upper tail P(A >= room), and binomial pmf by
    # stats.binom's own ufunc, since C(n, k) p^k (1-p)^(n-k) rounds otherwise
    a = np.arange(cap + 1)
    pois = np.exp(special.xlogy(a, lam) - special.gammaln(a + 1) - lam)
    tail = np.concatenate(([1.0], special.pdtrc(a[:-1], lam)))
    for w in range(cap + 1):
        busy = min(w, beds)
        dep = _ufuncs._binom_pmf(np.arange(busy + 1), busy, p_serve)
        for k in range(busy + 1):
            base = w - k
            room = cap - base  # arrivals beyond this land on the cap
            T[w, base : base + room] += dep[k] * pois[:room]
            T[w, cap] += dep[k] * tail[room]
    return T


def _route_dtype(caps):
    """Smallest signed integer type that holds every supply, space and route
    count: none exceeds a ward's cap (int8 on every shipped instance)."""
    return np.min_scalar_type(-max(caps))


def _ragged_arange(starts, counts):
    """Concatenation of ``arange(s, s + k)`` over the pairs (s, k)."""
    offsets = np.cumsum(counts) - counts
    out = np.repeat(starts - offsets, counts)
    out += np.arange(len(out))
    return out


def _expand_routes(pairs, supply, space, m):
    """Every routing along ``pairs`` of m states' patients, state by state
    and in action-id order: the first pair's count varies slowest, counts
    ascend.  ``supply`` and ``space`` map each pair's wards to their columns
    of waiting patients and free beds over the states.  Returns each
    routing's state (0..m-1, int32), each pair's route counts, and the
    supply and space the routing leaves."""
    owner, routes = np.arange(m, dtype=np.int32), []
    for a, b in pairs:
        counts = np.minimum(supply[a], space[b]).astype(np.int32) + 1
        src = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        v = np.arange(len(src), dtype=np.int32)
        v -= (np.cumsum(counts, dtype=np.int32) - counts)[src]
        v = v.astype(supply[a].dtype)
        owner, routes = owner[src], [r[src] for r in routes]
        supply = {j: col[src] for j, col in supply.items()}
        space = {j: col[src] for j, col in space.items()}
        supply[a] -= v
        space[b] -= v
        routes.append(v)
    return owner, routes, supply, space


def _row_sum(cols, coefs):
    """Σ_t cols[t] * coefs[t], rounded bit for bit as
    ``np.sum(np.stack(cols, axis=1) * coefs, axis=1)`` rounds it, without
    the stacked array (a column may be a scalar): numpy adds a contiguous
    row to 0 by pairwise summation (``_pairwise``)."""
    return 0.0 + _pairwise(lambda t: np.multiply(cols[t], coefs[t], dtype=np.float64), 0, len(cols))


def _pairwise(term, lo, hi):
    """Sum of ``term(t)`` for t in [lo, hi) in numpy's pairwise order: one
    running sum below 8 terms, eight interleaved ones combined as a balanced
    tree up to 128, longer runs split at a multiple of 8 near the middle."""
    k = hi - lo
    if k < 8:
        total = 0.0
        for t in range(lo, hi):
            total += term(t)  # in place once it is an array
        return total
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise(term, lo, lo + half) + _pairwise(term, lo + half, hi)
    r = [term(t) for t in range(lo, lo + 8)]
    stop = hi - k % 8
    for i in range(lo + 8, stop, 8):
        for j in range(8):
            r[j] += term(i + j)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in range(stop, hi):
        total += term(t)
    return total


class HospitalOverflowMdp(PostDecisionMdp):
    """Overflow routing as a controlled MDP on the occupancy lattice.

    Actions are integer routing matrices u (zero diagonal) satisfying
    row sums <= (x_i - beds_i)+ (patients actually waiting) and column
    sums <= (beds_j - x_j)+ (free beds).  They are enumerated in
    row-major entry order with values ascending (the first entry varies
    slowest), so action id 0 is "route nobody" and ids are reproducible.

    An action only picks a post-routing occupancy, so the model is
    tabulated: ``_build_table`` makes the :class:`ActionTable` of (post
    index, cost) pairs that greedy sweeps and gathers read, on first use,
    once, for all states.  Given the post-routing occupancy, wards evolve
    independently: the kernels are the per-ward 1-D transition matrices
    (dense), and the post box is the lattice.
    """

    def __init__(self, params):
        self.params = params
        J = len(params.beds)
        self.J = J
        self.lattice = StateLattice((0,) * J, params.caps)
        self.discount = float(params.discount)
        self.kernels = [
            _ward_matrix(params.caps[j], params.beds[j], params.service_probs[j],
                         params.arrival_rates[j])
            for j in range(J)
        ]
        self._pairs = [(i, j) for i in range(J) for j in range(J) if i != j]

    # -- action table ------------------------------------------------------------

    def _wards(self, states):
        """Per-ward columns over ``states`` (lower corner 0), in
        ``_route_dtype``: patients waiting beyond the beds, and free beds."""
        small = _route_dtype(self.params.caps)
        x = np.unravel_index(states, self.lattice.shape)
        beds = self.params.beds
        supply = [np.maximum(x[j] - beds[j], 0).astype(small) for j in range(self.J)]
        space = [np.maximum(beds[j] - x[j], 0).astype(small) for j in range(self.J)]
        return supply, space

    def _expand(self, supply, space, states, depth=None):
        """The live pairs (t, a, b) of ``states`` (positions in the
        ``_wards`` columns) and ``_expand_routes`` over the first ``depth``.
        Pair (a, b) is live if ward a has patients waiting and ward b free
        beds in the state itself, since routing only uses both up; every
        other pair's route is 0.  All ``states`` must share their live pairs."""
        i = states[0]
        live = [(t, a, b) for t, (a, b) in enumerate(self._pairs)
                if supply[a][i] > 0 and space[b][i] > 0]
        return live, _expand_routes(
            [(a, b) for _, a, b in live[:depth]],
            {a: supply[a][states] for _, a, _ in live},
            {b: space[b][states] for _, _, b in live},
            len(states),
        )

    def _build_table(self):
        n, J = self.lattice.size, self.J
        supply, space = self._wards(np.arange(n))
        # states whose wards agree on which have patients waiting and which
        # free beds share their live pairs, and each such group is expanded
        # over its live pairs alone
        key = np.zeros(n, dtype=np.int64)
        for j in range(J):
            key = 3 * key + (supply[j] > 0) + 2 * (space[j] > 0)
        order = np.argsort(key, kind="stable")  # states ascend in each group
        groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
        del key

        # first the action counts, without the last live pair's expansion:
        # its values number min(supply, space) + 1 per partial routing
        counts = np.ones(n, dtype=np.int64)
        for states in groups:
            live, (owner, _, sup, spa) = self._expand(supply, space, states, -1)
            if live:
                _, a, b = live[-1]
                last = np.minimum(sup[a], spa[b]).astype(np.int64) + 1
                counts[states] = np.bincount(owner, weights=last, minlength=len(states))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # then each group's actions, in blocks of whole states, written to
        # their rows indptr[state] + rank
        posts = np.empty(int(indptr[-1]), dtype=np.intp)
        costs = np.empty(len(posts))
        B = np.asarray(self.params.overflow, dtype=np.float64)
        H = np.asarray(self.params.holding, dtype=np.float64)
        pair_cost = [B[a, b] for a, b in self._pairs]
        stride = [int(np.prod(self.lattice.shape[j + 1 :])) for j in range(J)]

        def fill(block):
            live, (owner, moved, left, _) = self._expand(supply, space, block)
            rows = _ragged_arange(indptr[block], counts[block])
            post = block[owner]  # each routing's state, until the routes move it
            del owner
            # boarding patients: what routing left of each ward's supply
            hold_cols = [left[j] if j in left else supply[j][post] for j in range(J)]
            route_cols = [0] * len(self._pairs)
            for (t, a, b), v in zip(live, moved):
                route_cols[t] = v
                post += np.multiply(v, stride[b] - stride[a], dtype=np.intp)
            posts[rows] = post
            del post
            cost = _row_sum(route_cols, pair_cost)
            cost += _row_sum(hold_cols, H)
            costs[rows] = cost

        for states in groups:
            ends = np.concatenate(([0], np.cumsum(counts[states])))
            for lo, hi in chain.row_blocks(ends, _TABLE_BLOCK):
                fill(states[lo:hi])
        return ActionTable(indptr=indptr, counts=counts, posts=posts, costs=costs)

    def _actions(self, i):
        """(routing matrices, post-action flat indices, costs) of state i;
        the routings are expanded again, as the table build expands them."""
        t = self.table
        lo, hi = t.indptr[i], t.indptr[i + 1]
        live, (_, moved, _, _) = self._expand(*self._wards([i]), [0])
        moves = np.zeros((hi - lo, self.J, self.J), dtype=np.int64)
        for (_, a, b), v in zip(live, moved):
            moves[:, a, b] = v
        return moves, t.posts[lo:hi], t.costs[lo:hi]

    def routing_matrix(self, i, a):
        """Decode action id to its routing matrix."""
        return self._actions(i)[0][int(a)]


def build_hospital(params):
    """Controlled MDP for a hospital overflow instance."""
    return HospitalOverflowMdp(params)


# ---------------------------------------------------------------------------
# random walks
# ---------------------------------------------------------------------------

def _end_and_pair_rows(size, first, last, low, high, up):
    """P on states 0..size-1, emitted as canonical CSR.

    State 0 moves to column ``first`` and state size-1 to ``last`` surely;
    interior state r moves to ``low[r-1]`` with probability ``1 - up[r-1]``
    and to ``high[r-1]`` (> ``low[r-1]``) with probability ``up[r-1]``
    (scalars serve every interior state).
    Each row's columns ascend, so the constructor neither sorts nor sums
    duplicates, and it sums each row in the same order as the triplet
    form of the same chain.
    """
    nnz = 2 * size - 2
    itype = chain.index_dtype(nnz)  # indptr runs to nnz, past size
    indptr = np.arange(-1, nnz + 2, 2, dtype=itype)  # -1, 1, 3, ..., nnz + 1
    indptr[0], indptr[-1] = 0, nnz
    indices = np.empty(nnz, dtype=itype)
    indices[0], indices[-1] = first, last
    indices[1:-1:2] = low
    indices[2:-1:2] = high
    data = np.empty(nnz)
    data[0] = data[-1] = 1.0
    np.subtract(1.0, up, out=data[1:-1:2])
    data[2:-1:2] = up
    M = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    return RowStochasticMatrix._adopt(M)


def build_simple_rw(n, absorbing=True, *, alpha=0.9):
    """Symmetric +-1 walk on [0, n] with c(x) = x.

    With absorbing endpoints (the default) and this cost the value is
    exactly x/(1-alpha): the walk is a martingale.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lattice = StateLattice([0], [n])
    inner = np.arange(1, n)
    first, last = (0, n) if absorbing else (1, n - 1)
    P = _end_and_pair_rows(n + 1, first, last, inner - 1, inner + 1, 0.5)
    cost = np.arange(n + 1, dtype=np.float64)
    return MarkovRewardProcess(lattice, P, cost, alpha)


def build_two_point_chain(n, *, alpha=0.9):
    """The two-outcome reduction of the simple walk: from x jump straight
    to n with probability x/n, else to 0.  Shares the walk's drift (zero)
    and, with c(x) = x, its entire value function."""
    if n < 2:
        raise ValueError("need n >= 2")
    lattice = StateLattice([0], [n])
    P = _end_and_pair_rows(n + 1, 0, n, 0, n, np.arange(1, n) / n)
    cost = np.arange(n + 1, dtype=np.float64)
    return MarkovRewardProcess(lattice, P, cost, alpha)


def build_reflecting_rw(n, seed, *, alpha=0.95):
    """Reflecting walk on [1, n] with seeded, slightly-downward drift.

    P(i, i+1) = 0.5 - 0.1 * Uniform(0, 1) at interior states, hard
    reflection at both ends, c(i) = i^2.  The uniforms are one
    ``default_rng(seed).random(n - 2)`` draw used in state order, and P
    is built from whole arrays, not state by state.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lattice = StateLattice([1], [n])
    up = np.random.default_rng(seed).random(n - 2)
    up *= 0.1
    np.subtract(0.5, up, out=up)  # 0.5 - 0.1 * uniform, in place
    P = _end_and_pair_rows(n, 1, n - 2, np.arange(0, n - 2), np.arange(2, n), up)
    cost = np.arange(1, n + 1, dtype=np.float64) ** 2
    return MarkovRewardProcess(lattice, P, cost, alpha)


# ---------------------------------------------------------------------------
# instance round-trip
# ---------------------------------------------------------------------------

def save_mrp(path, mrp):
    """Write a Markov reward process to a compressed .npz container."""
    csr = mrp.P.csr
    np.savez_compressed(
        path,
        lower=mrp.lattice.lower,
        upper=mrp.lattice.upper,
        indptr=csr.indptr,
        indices=csr.indices,
        data=csr.data,
        cost=np.asarray(mrp.cost),
        discount=np.array([mrp.discount]),
    )


def load_mrp(path):
    """Read a process back from ``save_mrp`` output."""
    with np.load(path) as z:
        lattice = StateLattice(z["lower"], z["upper"])
        n = lattice.size
        # the arrays are read from the file, and held by no caller
        P = RowStochasticMatrix._adopt(
            sparse.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(n, n))
        )
        return MarkovRewardProcess(lattice, P, z["cost"], float(z["discount"][0]))
