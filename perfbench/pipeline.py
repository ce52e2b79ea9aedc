"""Workload pipelines of the momentagg benchmark and the tracer that times
their layers.

Each pipeline makes the calls, with the defaults, that ``python -m momentagg``
makes in ``optimize`` mode (with ``baseline = true``) and in ``evaluate``
mode: grid spacing 0.45, solver tolerance 1e-10, one greedy thread.  The
untraced pipeline is the CLI's computation without its artifact writing.

A :class:`Tracer` records spans (name, start, end, parent) around the calls
into each layer of ``src/momentagg``.  The calls the pipeline makes itself
are wrapped where they are made; the calls that ``control`` makes into the
model layer and into ``chain.solve_discounted`` are wrapped by replacing
those attributes for the duration of one traced repetition.  Nothing inside
the package is changed.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from momentagg import benchmarks, control
from momentagg.aggregation import build_scheme
from momentagg.chain import RowStochasticMatrix, solve_discounted
from momentagg.control import (
    aggregated_policy_iteration,
    exact_policy_iteration,
    optimality_gap_report,
)
from momentagg.evaluation import evaluate, interpolation_bound_check
from momentagg.grid import build_grid

#: RunConfig defaults of the CLI
SPACING = 0.45
TOL = 1e-10
MAX_ITER = 100
#: the CLI runs its exact-PI baseline with max(max_iter, 200) iterations
EXACT_MAX_ITER = max(MAX_ITER, 200)
THREADS = 1
#: interpolation_bound_check slack below this fails (the CLI's threshold)
BOUND_SLACK = -1e-8

RW_STATES = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a model family, the pipeline it runs, and the
    acceptance bands (mean, max) of the optimality gap on optimize.  Why
    each workload is in the benchmark is recorded in BENCHMARK.json."""

    name: str
    kind: str  # "optimize" or "evaluate"
    build: Callable[[int], object]  # seed -> model
    seeded: bool
    bands: tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jrp_large-optimize",
            "optimize",
            lambda seed: benchmarks.build_jrp(benchmarks.jrp_large()),
            seeded=False,
            bands=(0.025, 0.045),  # tests/test_acceptance.py c05
        ),
        Workload(
            "hospital3-optimize",
            "optimize",
            lambda seed: benchmarks.build_hospital(benchmarks.hospital_3ward()),
            seeded=False,
            bands=(0.020, 0.060),  # tests/test_acceptance.py c06
        ),
        Workload(
            "rw1m-evaluate",
            "evaluate",
            lambda seed: benchmarks.build_reflecting_rw(RW_STATES, seed),
            seeded=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class NullTracer:
    """Tracing off: spans cost one ``nullcontext`` and nothing is wrapped."""

    def span(self, name):
        return nullcontext()

    def operator(self, P):
        return P

    def instrument(self, mdp):
        return nullcontext()


class Tracer:
    """Spans and counts of traced repetitions, kept in memory.

    ``spans`` holds dicts with ``rep``, ``id``, ``parent`` (id or None),
    ``name``, ``start`` and ``end`` (``perf_counter`` seconds).  A span's
    layer is the part of its name before the first dot.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.rep = 0
        self.counts = Counter()
        self.reps_changed = []
        self.last_Pbar = None

    def start_rep(self, rep):
        """Reset the per-repetition counters; spans accumulate."""
        self.rep = rep
        self.counts = Counter()
        self.reps_changed = []
        self.last_Pbar = None

    @contextmanager
    def span(self, name):
        rec = {
            "rep": self.rep,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def operator(self, P):
        """P as a callable that counts its products made inside a solve.

        A RowStochasticMatrix becomes ``csr @ v``, the product
        ``solve_discounted`` forms from it, so the arithmetic is unchanged.
        """
        if isinstance(P, RowStochasticMatrix):
            csr = P.csr
            apply_P = csr.__matmul__
        else:
            apply_P = P

        def counted(v):
            if self._stack and self._stack[-1]["name"] == "chain.solve":
                self.counts["chain.matvecs"] += 1
            return apply_P(v)

        return counted

    @contextmanager
    def instrument(self, mdp):
        """Wrap the model-layer calls ``control`` makes, and ``control``'s
        call into ``chain.solve_discounted``, for one repetition."""
        n = mdp.lattice.size
        greedy_at = mdp.greedy_at
        kernel_rows_at = mdp.kernel_rows_at
        costs_at = mdp.costs_at
        induced_apply = mdp.induced_apply
        induced = mdp.induced
        solve = control.solve_discounted
        prev_reps = []

        def traced_greedy_at(indices, W):
            full = len(indices) == n
            with self.span("benchmarks.greedy_full" if full else "benchmarks.greedy_reps"):
                actions, q = greedy_at(indices, W)
            self.counts["benchmarks.greedy_states"] += len(indices)
            if not full:
                # aggregated PI starts from action 0 at every representative
                prev = prev_reps[-1] if prev_reps else np.zeros(len(indices), np.int64)
                self.reps_changed.append(int(np.count_nonzero(actions != prev)))
                prev_reps.append(actions)
            return actions, q

        def traced_kernel_rows_at(indices, actions):
            with self.span("benchmarks.kernel_rows"):
                Pbar = kernel_rows_at(indices, actions)
            self.last_Pbar = Pbar
            return Pbar

        def traced_costs_at(indices, actions):
            with self.span("benchmarks.costs"):
                return costs_at(indices, actions)

        def traced_induced_apply(policy):
            with self.span("benchmarks.induced_build"):
                apply_P, c = induced_apply(policy)
            return self.operator(apply_P), c

        def traced_induced(policy):
            P, c = induced(policy)
            self.counts["benchmarks.induced_nnz"] = P.nnz
            return P, c

        def traced_solve(*args, **kwargs):
            with self.span("chain.solve"):
                return solve(*args, **kwargs)

        mdp.greedy_at = traced_greedy_at
        mdp.kernel_rows_at = traced_kernel_rows_at
        mdp.costs_at = traced_costs_at
        mdp.induced_apply = traced_induced_apply
        mdp.induced = traced_induced
        control.solve_discounted = traced_solve
        try:
            yield
        finally:
            control.solve_discounted = solve
            for name in ("greedy_at", "kernel_rows_at", "costs_at", "induced_apply", "induced"):
                delattr(mdp, name)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one repetition computed, its wall times (s) and its checks."""

    kind: str
    times: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    model: object = None
    scheme: object = None
    api: object = None
    ref: object = None
    report: object = None


def setup(workload, seed, tracer=NullTracer()):
    """Model, then grid, then aggregation scheme; the CLI's order."""
    with tracer.span("benchmarks.build"):
        model = workload.build(seed)
    if workload.kind == "optimize":
        model.threads = THREADS
    with tracer.span("grid.build"):
        grid = build_grid(model.lattice, SPACING)
    with tracer.span("aggregation.build"):
        scheme = build_scheme(grid)
    return model, scheme


def run_once(workload, seed, tracer=NullTracer()):
    """One repetition: setup and the workload's pipeline, then its checks.

    The checks run after the timed part and are not counted in ``run_s``.
    """
    clock = time.perf_counter
    t0 = clock()
    with tracer.span("run"):
        model, scheme = setup(workload, seed, tracer)
        t1 = clock()
        if workload.kind == "optimize":
            out = _optimize(model, scheme, tracer)
        else:
            out = _evaluate(model, scheme, tracer)
    out.times["setup_s"] = t1 - t0
    out.times["run_s"] = clock() - t0
    out.model, out.scheme = model, scheme
    (_check_optimize if workload.kind == "optimize" else _check_evaluate)(workload, out)
    return out


def _optimize(mdp, scheme, tracer):
    clock = time.perf_counter
    out = Outcome("optimize")
    with tracer.instrument(mdp):
        t0 = clock()
        with tracer.span("control.api"):
            api = aggregated_policy_iteration(mdp, scheme, max_iter=MAX_ITER)
        t1 = clock()
        # exact value of the returned policy, as the CLI computes it; when
        # traced, induced_apply is already wrapped and its operator counted
        apply_P, c_pi = mdp.induced_apply(api.policy)
        with tracer.span("chain.solve"):
            V_policy = solve_discounted(apply_P, c_pi, mdp.discount, tol=TOL)
        t2 = clock()
        with tracer.span("control.exact"):
            ref = exact_policy_iteration(mdp, tol=TOL, max_iter=EXACT_MAX_ITER)
        t3 = clock()
        with tracer.span("control.gap"):
            gaps = optimality_gap_report(ref.value, V_policy)
    out.times.update(agg_s=t1 - t0, policy_eval_s=t2 - t1, exact_s=t3 - t2)
    out.values.update(
        V_exact=ref.value,
        V_agg=V_policy,
        abs_gap=gaps.abs_gap,
        rel_gap=gaps.rel_gap,
        action=api.policy,
        gap_mean_rel=gaps.mean_rel,
        gap_max_rel=gaps.max_rel,
    )
    out.api, out.ref = api, ref
    return out


def repeat_exact(out):
    """Exact policy iteration again on the same, already warm, model.

    Returns its wall time: one more ``exact_s`` sample of the repetition.
    The result must equal the first run's.
    """
    t0 = time.perf_counter()
    ref = exact_policy_iteration(out.model, tol=TOL, max_iter=EXACT_MAX_ITER)
    elapsed = time.perf_counter() - t0
    if not (np.array_equal(ref.policy, out.ref.policy) and np.array_equal(ref.value, out.ref.value)):
        out.failures.append("repeated exact policy iteration changed its result")
    return elapsed


def repeat_api(workload, seed, policy):
    """Set-up and aggregated policy iteration alone, on a fresh model.

    One more ``setup_s`` and ``agg_s`` sample, for a run that has time left
    for them but not for a whole repetition.  The policy must be ``policy``,
    the one the run's first repetition returned and checked.
    """
    clock = time.perf_counter
    out = Outcome("optimize")
    t0 = clock()
    model, scheme = setup(workload, seed)
    t1 = clock()
    api = aggregated_policy_iteration(model, scheme, max_iter=MAX_ITER)
    out.times.update(setup_s=t1 - t0, agg_s=clock() - t1)
    _require(out, "converged", api.converged, f"api {api.converged} in {api.iterations}")
    _require(out, "same_policy", np.array_equal(api.policy, policy),
             "the policy of the run's first repetition")
    return out


def _evaluate(mrp, scheme, tracer):
    clock = time.perf_counter
    out = Outcome("evaluate")
    t0 = clock()
    with tracer.span("evaluation.evaluate"):
        report = evaluate(mrp, scheme, tol=TOL)
    t1 = clock()
    # exact_value's own call, with P made countable when traced
    with tracer.span("chain.solve"):
        V_exact = solve_discounted(tracer.operator(mrp.P), mrp.cost, mrp.discount, tol=TOL)
    t2 = clock()
    with tracer.span("control.gap"):
        gaps = optimality_gap_report(V_exact, report.V_agg)
    out.times.update(agg_s=t1 - t0, exact_s=t2 - t1)
    out.values.update(
        V_exact=V_exact,
        V_agg=report.V_agg,
        abs_gap=gaps.abs_gap,
        rel_gap=gaps.rel_gap,
        gap_mean_rel=gaps.mean_rel,
        gap_max_rel=gaps.max_rel,
    )
    out.report = report
    return out


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def _require(out, name, ok, detail):
    out.checks[name] = {"pass": bool(ok), "detail": detail}
    if not ok:
        out.failures.append(f"{name}: {detail}")


def _check_optimize(workload, out):
    mdp, api, ref = out.model, out.api, out.ref
    n = mdp.lattice.size
    _require(out, "converged", api.converged and ref.converged,
             f"api {api.converged} in {api.iterations}, exact {ref.converged} in {ref.iterations}")
    policy = np.asarray(api.policy)
    ok_len = policy.shape == (n,)
    _require(out, "policy_length", ok_len, f"{policy.shape} vs ({n},)")
    if ok_len:
        bad = [i for i in range(n) if not 0 <= policy[i] < mdp.n_actions(i)]
        _require(out, "policy_feasible", not bad, f"{len(bad)} infeasible actions")
    mean, worst = out.values["gap_mean_rel"], out.values["gap_max_rel"]
    if workload.bands is not None:
        mean_band, max_band = workload.bands
        _require(out, "gap_bands", mean <= mean_band and worst <= max_band,
                 f"mean {mean:.3e} <= {mean_band}, max {worst:.3e} <= {max_band}")


def _check_evaluate(workload, out):
    V, V_agg = out.values["V_exact"], out.values["V_agg"]
    _require(out, "finite", np.all(np.isfinite(V)) and np.all(np.isfinite(V_agg)),
             "exact and aggregate values are finite")
    bound = interpolation_bound_check(out.model, out.scheme, V=V, V_tilde=V_agg, tol=TOL)
    _require(out, "interpolation_bound", bound.slack >= BOUND_SLACK,
             f"slack {bound.slack:.3e} >= {BOUND_SLACK}")
