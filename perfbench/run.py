"""Benchmark harness of momentagg: time-to-policy, time-to-value and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` of the
checkout it lives in and fails (exit code 2) when that is missing.  Every
run is one process and one workload (see ``pipeline.WORKLOADS``).

``--trace 0`` repeats the workload's pipeline, untraced, until the next
repetition would end after ``--seconds``; on optimize, time left for less
than a whole repetition is filled with set-up plus aggregated policy
iteration alone, on fresh models.  It reports the mean of the run's
``agg_s``, ``exact_s`` and ``run_s`` samples (see MEAN) and the median of
the ``setup_s`` and gap samples.  ``--trace 1`` ignores
``--seconds``: it runs the pipeline once untraced and twice traced, and
reports per-layer metrics from the spans; the spans are written to
``perfbench/out/``.

Standard output ends with two JSON lines: a report (environment, samples,
checks, the reason for every absent metric) and the result
``{"correct", "attempted", "failed", "metrics"}``.  A repetition that
raises or fails its correctness check counts as failed.

``rw1m-evaluate`` is the only seeded workload: repetition r evaluates the
walk seeded ``seed * RW_INSTANCES + r % RW_INSTANCES``, so one run covers
RW_INSTANCES distinct walks and its gap medians are over those walks.  The
two MDP instances are deterministic and ignore the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: distinct walks per rw1m run; every run covers all of them
RW_INSTANCES = 10
#: setup_s is the median of at least this many set-ups
SETUP_SAMPLES = 7
#: on optimize, exact PI is repeated on the warm model of each repetition
#: until it has this many samples or has taken EXACT_BUDGET_S; a short exact
#: phase (hospital3, ~0.5 s) otherwise gets one sample per repetition
EXACT_SAMPLES = 3
EXACT_BUDGET_S = 1.5
#: timings reported as the mean of a run's samples (their total time over
#: their count).  On a shared virtual machine the CPU rate can swing by up to
#: 2x for seconds at a time (on a 2-vCPU Xeon VM the same pure-Python loop
#: took 0.16 s or 0.32 s), so a median or a minimum of a run's short samples
#: jumps between the fast and the slow rate, while the mean moves only with
#: the share of the run spent at each.  Over ten hospital3 runs the spread
#: of exact_s was 10-20% of the median for the mean, 19-26% for the median
#: and 10-33% for the minimum.  setup_s stays a median of SETUP_SAMPLES.
MEAN = ("agg_s", "exact_s", "run_s")
#: counts that must repeat exactly between the two traced repetitions
EXACT_COUNTS = (
    "grid.L",
    "aggregation.G_nnz",
    "benchmarks.Pbar_nnz",
    "evaluation.PbarG_nnz",
    "benchmarks.greedy_states",
    "benchmarks.induced_nnz",
    "chain.solve_calls",
    "control.api_iterations",
    "control.exact_iterations",
    "control.reps_changed",
)
LAYERS = ("benchmarks", "grid", "aggregation", "chain", "evaluation", "control", "harness")


def _median(values):
    return float(statistics.median(values))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _blas_threads():
    """Thread count of each OpenBLAS library loaded (numpy and scipy each
    bring their own), keyed by file name."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return threads


def environment(pipeline):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "greedy_threads": pipeline.THREADS,
        "platform": platform.platform(),
    }


def instance_seeds(workload, seed):
    if not workload.seeded:
        return [seed]
    return [seed * RW_INSTANCES + r for r in range(RW_INSTANCES)]


def _attempt(pipeline, workload, seed, failures, tracer=None, exact_samples=1, policy=None):
    """One repetition; returns its Outcome, or None if it raised or failed.

    ``out.times["exact_samples"]`` lists the repetition's exact-phase times:
    on optimize, up to ``exact_samples`` of them (see EXACT_SAMPLES).  Given
    ``policy``, the repetition is ``pipeline.repeat_api`` instead, which must
    return that policy.
    """
    try:
        if policy is not None:
            out = pipeline.repeat_api(workload, seed, policy)
        else:
            out = pipeline.run_once(workload, seed, tracer or pipeline.NullTracer())
            exact = [out.times["exact_s"]]
            while out.kind == "optimize" and len(exact) < exact_samples and sum(exact) < EXACT_BUDGET_S:
                exact.append(pipeline.repeat_exact(out))
            out.times["exact_samples"] = exact
    except Exception:  # a raising repetition is a failed one; keep going
        failures.append(traceback.format_exc(limit=4))
        return None
    if out.failures:
        failures.extend(out.failures)
        return None
    return out


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(pipeline, workload, seed, seconds):
    seeds = instance_seeds(workload, seed)
    samples = {k: [] for k in ("setup_s", "agg_s", "exact_s", "run_s", "gap_mean_rel", "gap_max_rel")}
    failures = []
    checks = {}
    attempted = failed = api_only_reps = 0
    policy = None  # the first optimize repetition's, for the API-only ones
    full_s = api_only_s = math.inf  # wall time of the last repetition of each kind
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        first_pass = attempted < len(seeds)
        api_only = not first_pass and full_s > left
        if api_only and (policy is None or api_only_s > left):
            break
        t0 = time.perf_counter()
        out = _attempt(pipeline, workload, seeds[attempted % len(seeds)], failures,
                       exact_samples=EXACT_SAMPLES, policy=policy if api_only else None)
        attempted += 1
        api_only_reps += api_only
        if out is None:
            failed += 1
        elif api_only:
            samples["setup_s"].append(out.times["setup_s"])
            samples["agg_s"].append(out.times["agg_s"])
        else:
            for key in ("setup_s", "agg_s", "run_s"):
                samples[key].append(out.times[key])
            samples["exact_s"].extend(out.times["exact_samples"])
            checks = out.checks
            if first_pass:  # gaps once per distinct instance
                samples["gap_mean_rel"].append(out.values["gap_mean_rel"])
                samples["gap_max_rel"].append(out.values["gap_max_rel"])
            if out.kind == "optimize" and policy is None:
                policy = out.api.policy
                api_only_s = out.times["setup_s"] + out.times["agg_s"]
        if api_only:
            api_only_s = time.perf_counter() - t0
        else:
            full_s = time.perf_counter() - t0
        del out
        gc.collect()
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        t0 = time.perf_counter()
        model, scheme = pipeline.setup(workload, seeds[len(samples["setup_s"]) % len(seeds)])
        samples["setup_s"].append(time.perf_counter() - t0)
        del model, scheme
        gc.collect()
    metrics = {
        key: {
            "value": statistics.fmean(vals) if key in MEAN else _median(vals),
            "unit": "s" if key.endswith("_s") else "ratio",
        }
        for key, vals in samples.items()
        if vals
    }
    metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
    report = {
        "instance_seeds": seeds,
        "api_only_repetitions": api_only_reps,
        "samples": samples,
        "last_checks": checks,
        "failures": failures,
    }
    return attempted, failed, metrics, report


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _span_times(spans):
    """Duration and self time (duration minus child spans) of each span."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    return dur, {k: dur[k] - child[k] for k in dur}


def _layer(name):
    return "harness" if name == "run" else name.split(".", 1)[0]


def _check_spans(spans, by_id):
    problems = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} not closed")
        elif s["parent"] is not None:
            p = by_id[s["parent"]]
            if s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(f"span {s['id']} {s['name']} outside its parent")
    return problems


def layer_metrics(tracer, out, rep):
    """Per-layer metrics of one traced repetition, plus the consistency
    problems found in its spans."""
    spans = [s for s in tracer.spans if s["rep"] == rep]
    by_id = {s["id"]: s for s in spans}
    dur, self_t = _span_times(spans)
    problems = _check_spans(spans, by_id)

    def total(name):
        return sum(dur[s["id"]] for s in spans if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    root = next(s for s in spans if s["name"] == "run")
    run_s = dur[root["id"]]
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{_layer(s['name'])}.self_s"] += self_t[s["id"]]
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(attributed - run_s) > 1e-6 * max(run_s, 1.0):
        problems.append(f"self times sum to {attributed:.6f}s, run took {run_s:.6f}s")

    scheme, model = out.scheme, out.model
    L = scheme.grid.size
    m.update({
        "trace.run_s": run_s,
        "benchmarks.build_s": total("benchmarks.build"),
        "grid.build_s": total("grid.build"),
        "aggregation.build_s": total("aggregation.build"),
        "grid.L": L,
        "aggregation.G_nnz": scheme.G.nnz,
        "evaluation.dense_bytes": 8 * L * L,
        "benchmarks.greedy_full_s": total("benchmarks.greedy_full"),
        "benchmarks.greedy_reps_s": total("benchmarks.greedy_reps"),
        "benchmarks.greedy_states": tracer.counts["benchmarks.greedy_states"],
        "benchmarks.kernel_rows_s": total("benchmarks.kernel_rows"),
        "benchmarks.costs_s": total("benchmarks.costs"),
        "benchmarks.induced_build_s": total("benchmarks.induced_build"),
        "benchmarks.induced_nnz": tracer.counts["benchmarks.induced_nnz"],
        "chain.solve_s": total("chain.solve"),
        "chain.solve_calls": count("chain.solve"),
        "chain.matvecs": tracer.counts["chain.matvecs"],
        "evaluation.evaluate_s": total("evaluation.evaluate"),
    })
    if out.kind == "optimize":
        api = next(s for s in spans if s["name"] == "control.api")
        exact = next(s for s in spans if s["name"] == "control.exact")
        kids = [s for s in spans if s["parent"] == api["id"]]
        loop_end = min(s["start"] for s in kids if s["name"] == "benchmarks.greedy_full")
        in_loop = sum(dur[s["id"]] for s in kids if s["end"] <= loop_end)
        solve_s = (loop_end - api["start"]) - in_loop
        report_s = sum(out.api.timings_ms["evaluation"]) / 1000.0
        if report_s > solve_s + 1e-3:
            problems.append(
                f"PiReport solve time {report_s:.4f}s exceeds the loop's control self time {solve_s:.4f}s"
            )
        Pbar = tracer.last_Pbar
        m.update({
            "evaluation.aggregate_solve_s": solve_s,
            "evaluation.aggregate_solve_report_s": report_s,
            "control.api_s": dur[api["id"]],
            "control.exact_pi_s": dur[exact["id"]],
            "control.api_self_s": self_t[api["id"]],
            "control.exact_self_s": self_t[exact["id"]],
            "control.c10_ratio": dur[api["id"]] / dur[exact["id"]],
            "control.api_iterations": out.api.iterations,
            "control.exact_iterations": out.ref.iterations,
            "control.reps_changed": sum(tracer.reps_changed),
        })
    else:
        Pbar = model.P.take_rows(scheme.grid.rep_indices)
        solve_s = out.report.runtimes_ms["solve"] / 1000.0
        m.update({
            "evaluation.aggregate_solve_s": solve_s,
            "evaluation.aggregate_solve_report_s": solve_s,
        })
    PbarG_nnz = (Pbar.csr @ scheme.G.csr).nnz
    m.update({
        "benchmarks.Pbar_nnz": Pbar.nnz,
        "evaluation.PbarG_nnz": PbarG_nnz,
        "evaluation.PbarG_density": PbarG_nnz / (L * L),
    })
    return m, problems


#: per-layer metrics with no meaning on a workload kind, and why
ABSENT = {
    "evaluate": {
        "benchmarks.greedy_full_s": "no control layer in fixed-policy evaluation",
        "benchmarks.greedy_reps_s": "no control layer in fixed-policy evaluation",
        "benchmarks.greedy_states": "no control layer in fixed-policy evaluation",
        "benchmarks.kernel_rows_s": "Pbar is a row slice of the materialized P (inside evaluate)",
        "benchmarks.costs_s": "costs are the process's cost vector",
        "benchmarks.induced_build_s": "P is materialized at build time",
        "benchmarks.induced_nnz": "P is materialized at build time",
        "benchmarks.enumerate_cold_s": "a Markov reward process has no actions",
        "control.api_s": "no policy iteration",
        "control.exact_pi_s": "no policy iteration",
        "control.api_self_s": "no policy iteration",
        "control.exact_self_s": "no policy iteration",
        "control.c10_ratio": "no policy iteration",
        "control.api_iterations": "no policy iteration",
        "control.exact_iterations": "no policy iteration",
        "control.reps_changed": "no policy iteration",
    },
    "optimize": {
        "evaluation.evaluate_s": "evaluate() is not called; the aggregate solve is "
        "evaluation.aggregate_solve_s",
    },
}
UNITS = {"_s": "s", "_nnz": "count", "_bytes": "bytes"}


def _unit(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_density")):
        return "ratio"
    return "count"


def trace_run(pipeline, workload, seed):
    inst = instance_seeds(workload, seed)[0]
    failures = []
    failed_reps = set()
    plain = _attempt(pipeline, workload, inst, failures)
    if plain is None:
        failed_reps.add(0)
        untraced_s = gap = None
    else:
        untraced_s, gap = plain.times["run_s"], plain.values["gap_mean_rel"]
    del plain
    gc.collect()

    tracer = pipeline.Tracer()
    per_rep, reps_changed = [], []
    for rep in (1, 2):
        tracer.start_rep(rep)
        out = _attempt(pipeline, workload, inst, failures, tracer)
        if out is None:
            failed_reps.add(rep)
            continue
        m, problems = layer_metrics(tracer, out, rep)
        if gap is not None and out.values["gap_mean_rel"] != gap:
            problems.append("traced and untraced repetitions computed different values")
        if problems:
            failed_reps.add(rep)
            failures.extend(problems)
        per_rep.append(m)
        reps_changed.append(tracer.reps_changed)
        del out
        gc.collect()

    if workload.kind == "optimize":
        fresh = workload.build(inst)
        t0 = time.perf_counter()
        for i in range(fresh.lattice.size):
            fresh.n_actions(i)
        enumerate_cold_s = time.perf_counter() - t0
        del fresh
        gc.collect()

    metrics, absent = {}, dict(ABSENT[workload.kind])
    if per_rep and workload.kind == "optimize" and not per_rep[0]["benchmarks.induced_nnz"]:
        absent["benchmarks.induced_nnz"] = "the model's induced_apply is matrix-free"
    if per_rep:
        for key in per_rep[0]:
            vals = [m[key] for m in per_rep]
            metrics[key] = vals[0] if len(set(vals)) == 1 else _median(vals)
        if len(per_rep) == 2:
            for key in EXACT_COUNTS:
                if key in per_rep[0] and per_rep[0][key] != per_rep[1][key]:
                    failed_reps.add(2)
                    failures.append(f"{key} differs between traced repetitions")
            metrics["chain.matvecs_spread"] = abs(per_rep[0]["chain.matvecs"] - per_rep[1]["chain.matvecs"])
        if workload.kind == "optimize":
            metrics["benchmarks.enumerate_cold_s"] = enumerate_cold_s
        if untraced_s is not None:
            metrics["trace.untraced_run_s"] = untraced_s
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_s
    for key in absent:
        metrics[key] = 0
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    report = {
        "instance_seed": inst,
        "per_rep": per_rep,
        "reps_changed_per_iteration": reps_changed,
        "absent": absent,
        "spans": str(spans_path.relative_to(ROOT)),
        "failures": failures,
    }
    result = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())}
    return 3, len(failed_reps), result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momentagg" / "__init__.py").is_file():
        print(f"error: no momentagg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import momentagg
    import pipeline

    if Path(momentagg.__file__).resolve().parent != SRC / "momentagg":
        print(f"error: imported momentagg from {momentagg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics, report = trace_run(pipeline, workload, args.seed)
    else:
        attempted, failed, metrics, report = timed_run(pipeline, workload, args.seed, args.seconds)
    report.update(
        workload=workload.name,
        seed=args.seed,
        seed_used=workload.seeded,
        seed_note=None if workload.seeded else "deterministic instance; the seed is ignored",
        trace=bool(args.trace),
        environment=environment(pipeline),
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
