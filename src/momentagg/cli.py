"""Config-driven experiment runner.

Reads an INI file with [problem], [solver] and [output] sections, runs one
of four modes — ``grid`` (dump the coarse grid), ``evaluate`` (fixed-policy
aggregate evaluation vs. an exact baseline), ``optimize`` (aggregate policy
iteration, optionally against an exact-PI baseline), ``diagnose`` (the
numeric health checks) — and writes artifacts into the output directory:

* ``values.csv``   — per-state values/gaps (17 significant digits)
* ``summary.json`` — counts, gap statistics, iteration and runtime data;
  optimize adds ``reps_changed``, the representatives whose action changed
  at each aggregate iteration
* ``grid.json``    — axis grids, L, and the growth-bound check
* ``diagnostics.json`` (diagnose mode)

Exit codes: 0 success, 1 configuration error, 2 numerical failure (the
failure detail is left in ``error.json``).  With a fixed seed and config,
CSV output is byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import benchmarks
from .aggregation import build_scheme, first_moment_gap, lifted_chain, second_moment_gap
from .chain import (
    NumericalError,
    ResourceLimitError,
    scaled_value,
    solve_discounted,
    verify_mstep_identity,
)
from .control import (
    aggregated_policy_iteration,
    bellman_residual,
    exact_policy_iteration,
    induced_mrp,
    optimality_gap_report,
)
from .evaluation import evaluate, interpolation_bound_check
from .grid import build_grid, grid_from_axes, meta_count_bound
from .lattice import StateLattice

__all__ = ["RunConfig", "SummaryRecord", "ConfigError", "load_config", "run", "main"]

ENV_PREFIX = "MOMENTAGG_"

PROBLEMS = (
    "jrp_small",
    "jrp_large",
    "hospital2",
    "hospital3",
    "hospital4",
    "simple_rw",
    "reflecting_rw",
    "custom",
    "box",
)
MODES = ("grid", "evaluate", "optimize", "diagnose")


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (exit code 1)."""


@dataclass
class RunConfig:
    """Validated run settings (config file + environment + flags)."""

    problem: str
    mode: str = "evaluate"
    spacing: float = 0.45
    alpha: float | None = None
    epsilon: float = 0.1
    seed: int = 0
    threads: int = 1
    tol: float = 1e-10
    max_iter: int = 100
    out_dir: str = "out"
    policy: str = "optimal"  # optimal | zero | path to .npy
    instance_file: str | None = None
    size: int | None = None  # walk length for the random-walk problems
    grid_source: str = "auto"  # auto | spaced | endpoints
    baseline: bool = True  # optimize: exact-PI reference
    exact: bool = True  # evaluate: solve the full system too
    lower: tuple | None = None  # problem=box
    upper: tuple | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (0.0 < self.spacing < 1.0):
            raise ConfigError("spacing must lie in (0, 1)")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigError("epsilon must lie in [0, 1]")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.grid_source not in ("auto", "spaced", "endpoints"):
            raise ConfigError("grid must be auto, spaced, or endpoints")


@dataclass
class SummaryRecord:
    """Flat summary written to summary.json."""

    problem: str
    mode: str
    n_states: int
    n_meta: int | None = None
    spacing_exponent: float | None = None
    mean_rel_gap: float | None = None
    max_rel_gap: float | None = None
    bellman_mean_pct: float | None = None
    bellman_max_pct: float | None = None
    iterations: int | None = None
    reps_changed: list | None = None
    runtime_ms: dict | None = None


def _parse_int_tuple(text):
    return tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(key, text):
    """A boolean config value; unset or empty means true."""
    word = "" if text is None else str(text).strip().lower()
    if not word or word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ConfigError(f"{key} must be one of {'/'.join(_TRUE + _FALSE)}, not {text!r}")


def load_config(path, overrides=None):
    """Parse an INI run configuration.

    ``overrides`` (flag values) beat ``MOMENTAGG_*`` environment entries,
    which beat the file.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    known = {
        "problem": {"name", "mode", "spacing", "alpha", "epsilon", "policy",
                    "file", "n", "grid", "baseline", "exact", "lower", "upper"},
        "solver": {"seed", "threads", "tol", "max_iter"},
        "output": {"dir"},
    }
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown config key '{key}' in [{section}]")
    prob = parser["problem"] if parser.has_section("problem") else {}
    solver = parser["solver"] if parser.has_section("solver") else {}
    output = parser["output"] if parser.has_section("output") else {}

    def get(section, key, default=None):
        return section.get(key, default)

    values = {
        "problem": get(prob, "name"),
        "mode": get(prob, "mode", "evaluate"),
        "spacing": get(prob, "spacing", "0.45"),
        "alpha": get(prob, "alpha"),
        "epsilon": get(prob, "epsilon", "0.1"),
        "policy": get(prob, "policy", "optimal"),
        "instance_file": get(prob, "file"),
        "size": get(prob, "n"),
        "grid_source": get(prob, "grid", "auto"),
        "baseline": get(prob, "baseline"),
        "exact": get(prob, "exact"),
        "lower": get(prob, "lower"),
        "upper": get(prob, "upper"),
        "seed": get(solver, "seed", "0"),
        "threads": get(solver, "threads", "1"),
        "tol": get(solver, "tol", "1e-10"),
        "max_iter": get(solver, "max_iter", "100"),
        "out_dir": get(output, "dir", "out"),
    }
    env_keys = {
        "mode": "MODE",
        "out_dir": "OUT",
        "threads": "THREADS",
        "seed": "SEED",
        "spacing": "SPACING",
    }
    for key, suffix in env_keys.items():
        env = os.environ.get(ENV_PREFIX + suffix)
        if env is not None:
            values[key] = env
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    if values["problem"] is None:
        raise ConfigError("config is missing [problem] name")
    try:
        cfg = RunConfig(
            problem=str(values["problem"]),
            mode=str(values["mode"]),
            spacing=float(values["spacing"]),
            alpha=None if values["alpha"] in (None, "") else float(values["alpha"]),
            epsilon=float(values["epsilon"]),
            seed=int(values["seed"]),
            threads=int(values["threads"]),
            tol=float(values["tol"]),
            max_iter=int(values["max_iter"]),
            out_dir=str(values["out_dir"]),
            policy=str(values["policy"]),
            instance_file=values["instance_file"],
            size=None if values["size"] in (None, "") else int(values["size"]),
            grid_source=str(values["grid_source"]),
            baseline=_parse_bool("baseline", values["baseline"]),
            exact=_parse_bool("exact", values["exact"]),
            lower=None if values["lower"] in (None, "") else _parse_int_tuple(values["lower"]),
            upper=None if values["upper"] in (None, "") else _parse_int_tuple(values["upper"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def _with_alpha(params, alpha):
    return params if alpha is None else dataclasses.replace(params, discount=alpha)


def _build_problem(cfg):
    """Instantiate the configured problem.

    Returns (kind, object): kind is "mrp", "mdp", or "lattice".
    """
    kind, obj = _instantiate(cfg)
    if kind == "mdp":
        obj.threads = cfg.threads
    return kind, obj


def _instantiate(cfg):
    name = cfg.problem
    if name == "box":
        if cfg.lower is None or cfg.upper is None:
            raise ConfigError("problem=box needs lower= and upper=")
        return "lattice", StateLattice(cfg.lower, cfg.upper)
    if name == "simple_rw":
        n = cfg.size or 20
        return "mrp", benchmarks.build_simple_rw(n, alpha=cfg.alpha or 0.9)
    if name == "reflecting_rw":
        n = cfg.size or 100
        return "mrp", benchmarks.build_reflecting_rw(n, cfg.seed, alpha=cfg.alpha or 0.95)
    if name == "custom":
        if not cfg.instance_file:
            raise ConfigError("problem=custom needs file=<instance.npz>")
        if not Path(cfg.instance_file).exists():
            raise ConfigError(f"instance file not found: {cfg.instance_file}")
        return "mrp", benchmarks.load_mrp(cfg.instance_file)
    if name == "jrp_small":
        return "mdp", benchmarks.build_jrp(_with_alpha(benchmarks.jrp_small(), cfg.alpha))
    if name == "jrp_large":
        return "mdp", benchmarks.build_jrp(_with_alpha(benchmarks.jrp_large(), cfg.alpha))
    if name == "hospital2":
        return "mdp", benchmarks.build_hospital(
            _with_alpha(benchmarks.hospital_2ward(), cfg.alpha)
        )
    if name == "hospital3":
        return "mdp", benchmarks.build_hospital(
            _with_alpha(benchmarks.hospital_3ward(), cfg.alpha)
        )
    if name == "hospital4":
        return "mdp", benchmarks.build_hospital(
            _with_alpha(benchmarks.hospital_4ward(), cfg.alpha)
        )
    raise ConfigError(f"unknown problem {name!r}")  # pragma: no cover


def _make_grid(cfg, lattice):
    """The run's coarse grid; simple_rw defaults to the two-endpoint grid."""
    source = cfg.grid_source
    if source == "auto":
        source = "endpoints" if cfg.problem == "simple_rw" else "spaced"
    if source == "endpoints":
        axes = []
        for lo, up in zip(lattice.lower, lattice.upper):
            pts = {int(lo), int(up)}
            if lo <= 0 <= up:
                pts.add(0)
            axes.append(np.asarray(sorted(pts), dtype=np.int64))
        return grid_from_axes(lattice, axes)
    return build_grid(lattice, cfg.spacing)


def _grid_payload(cfg, grid):
    bound = (
        meta_count_bound(grid.lattice, grid.spacing_exponent)
        if grid.spacing_exponent is not None
        else None
    )
    return {
        "axes": [a.tolist() for a in grid.axes],
        "shape": list(grid.shape),
        "n_states": grid.lattice.size,
        "n_meta": grid.size,
        "spacing_exponent": grid.spacing_exponent,
        "count_bound": bound,
        "within_bound": (grid.size <= bound) if bound is not None else None,
    }


def _resolve_policy(cfg, mdp):
    """Policy for evaluate mode: exact-optimal, all-zeros, or from file."""
    if cfg.policy == "optimal":
        report = exact_policy_iteration(mdp, tol=cfg.tol, max_iter=cfg.max_iter)
        return report.policy, report.value
    if cfg.policy == "zero":
        return np.zeros(mdp.lattice.size, dtype=np.int64), None
    path = Path(cfg.policy)
    if not path.exists():
        raise ConfigError(f"policy file not found: {cfg.policy}")
    try:
        raw = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read policy file {cfg.policy}: {exc}") from exc
    if not isinstance(raw, np.ndarray) or raw.dtype.kind not in "iuf":
        raise ConfigError(f"policy file {cfg.policy} must hold integer action ids")
    if raw.shape != (mdp.lattice.size,):
        raise ConfigError("policy file length does not match the state count")
    bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.round(raw)))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"policy file {cfg.policy}: action {raw[i]} in state {i} is not an integer"
        )
    policy = raw.astype(np.int64)
    try:
        mdp.check_actions(np.arange(mdp.lattice.size), policy)
    except ValueError as exc:
        raise ConfigError(f"policy file {cfg.policy}: {exc}") from exc
    return policy, None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, lattice, columns):
    """Per-state CSV with deterministic float formatting."""
    states = lattice.all_states()
    d = lattice.dims
    names = ["state_index"] + [f"x{i}" for i in range(d)] + [c for c, _ in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(lattice.size):
            row = [str(i)] + [str(int(v)) for v in states[i]]
            for name, vec in columns:
                v = vec[i]
                row.append(str(int(v)) if name == "action" else _fmt(v))
            fh.write(",".join(row) + "\n")


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _mode_grid(cfg, out):
    kind, obj = _build_problem(cfg)
    lattice = obj if kind == "lattice" else obj.lattice
    grid = _make_grid(cfg, lattice)
    _write_json(out / "grid.json", _grid_payload(cfg, grid))
    return SummaryRecord(
        problem=cfg.problem,
        mode="grid",
        n_states=lattice.size,
        n_meta=grid.size,
        spacing_exponent=grid.spacing_exponent,
    )


def _mode_evaluate(cfg, out):
    kind, obj = _build_problem(cfg)
    if kind == "lattice":
        raise ConfigError("problem=box supports mode=grid only")
    t0 = time.perf_counter()
    V_star = None
    if kind == "mdp":
        policy, V_star = _resolve_policy(cfg, obj)
        mrp = induced_mrp(obj, policy)
    else:
        mrp = obj
    grid = _make_grid(cfg, mrp.lattice)
    scheme = build_scheme(grid)
    report = evaluate(
        mrp,
        scheme,
        compute_exact=cfg.exact and V_star is None,
        V_exact=V_star,
        tol=cfg.tol,
    )
    total_ms = (time.perf_counter() - t0) * 1000.0
    _write_json(out / "grid.json", _grid_payload(cfg, grid))
    columns = []
    if report.V_exact is not None:
        columns.append(("V_exact", report.V_exact))
    columns.append(("V_agg", report.V_agg))
    if report.V_exact is not None:
        columns.append(("abs_gap", report.abs_gap))
        columns.append(("rel_gap", report.rel_gap))
    _write_csv(out / "values.csv", mrp.lattice, columns)
    runtimes = dict(report.runtimes_ms)
    runtimes["total"] = total_ms
    return SummaryRecord(
        problem=cfg.problem,
        mode="evaluate",
        n_states=mrp.lattice.size,
        n_meta=grid.size,
        spacing_exponent=grid.spacing_exponent,
        mean_rel_gap=report.mean_rel_gap,
        max_rel_gap=report.max_rel_gap,
        runtime_ms=runtimes,
    )


def _mode_optimize(cfg, out):
    kind, obj = _build_problem(cfg)
    if kind != "mdp":
        raise ConfigError(f"mode=optimize needs a controlled problem, not {cfg.problem}")
    mdp = obj
    grid = _make_grid(cfg, mdp.lattice)
    scheme = build_scheme(grid)
    t0 = time.perf_counter()
    api = aggregated_policy_iteration(mdp, scheme, max_iter=cfg.max_iter)
    api_ms = (time.perf_counter() - t0) * 1000.0
    # exact value achieved by the returned policy
    apply_P, c_pi = mdp.induced_apply(api.policy)
    V_policy = solve_discounted(apply_P, c_pi, mdp.discount, tol=cfg.tol)
    residual = bellman_residual(mdp, api.policy, api.value)
    columns = []
    mean_rel = max_rel = None
    exact_ms = None
    if cfg.baseline:
        t1 = time.perf_counter()
        pi_report = exact_policy_iteration(mdp, tol=cfg.tol, max_iter=max(cfg.max_iter, 200))
        exact_ms = (time.perf_counter() - t1) * 1000.0
        gaps = optimality_gap_report(pi_report.value, V_policy)
        mean_rel, max_rel = gaps.mean_rel, gaps.max_rel
        columns.append(("V_exact", pi_report.value))
        columns.append(("V_agg", V_policy))
        columns.append(("abs_gap", gaps.abs_gap))
        columns.append(("rel_gap", gaps.rel_gap))
    else:
        columns.append(("V_agg", V_policy))
    columns.append(("action", api.policy))
    _write_json(out / "grid.json", _grid_payload(cfg, grid))
    _write_csv(out / "values.csv", mdp.lattice, columns)
    times = dict(api.timings_ms)
    runtime = {
        "aggregate_pi": api_ms,
        "compute_P_per_iter": times.get("compute_P"),
        "evaluation_per_iter": times.get("evaluation"),
        "update_per_iter": times.get("update"),
        "full_update": times.get("full_update"),
        "lift": times.get("lift"),
        "exact_pi": exact_ms,
        "total": api_ms + (exact_ms or 0.0),
    }
    return SummaryRecord(
        problem=cfg.problem,
        mode="optimize",
        n_states=mdp.lattice.size,
        n_meta=grid.size,
        spacing_exponent=grid.spacing_exponent,
        mean_rel_gap=mean_rel,
        max_rel_gap=max_rel,
        bellman_mean_pct=residual.mean_rel * 100.0,
        bellman_max_pct=residual.max_rel * 100.0,
        iterations=api.iterations,
        reps_changed=api.reps_changed,
        runtime_ms=runtime,
    )


def _diagnostics(cfg, mrp, scheme):
    checks = {}
    gap = first_moment_gap(lifted_chain(mrp, scheme))
    checks["first_moment_gap"] = {
        "value": gap,
        "threshold": 1e-9,
        "pass": bool(gap <= 1e-9),
    }
    second = second_moment_gap(lifted_chain(mrp, scheme))
    checks["second_moment"] = {
        "sup": second.sup,
        "sup_normalized": second.sup_normalized,
        "normalization_exponent": second.normalization_exponent,
    }
    bound = interpolation_bound_check(mrp, scheme, tol=cfg.tol)
    checks["interpolation_bound"] = {
        "lhs": bound.lhs,
        "rhs": bound.rhs,
        "slack": bound.slack,
        "threshold": -1e-8,
        "pass": bool(bound.slack >= -1e-8),
    }
    try:
        violation = verify_mstep_identity(mrp, 2, tol=min(cfg.tol, 1e-11))
        # identity violation is bounded by solver residuals, which scale
        # with the cost magnitude
        thr = 1e-8 * (1.0 + float(np.max(np.abs(mrp.cost))))
        checks["mstep_identity_m2"] = {
            "value": violation,
            "threshold": thr,
            "pass": bool(violation <= thr),
        }
    except ResourceLimitError as exc:
        checks["mstep_identity_m2"] = {"skipped": str(exc)}
    V_eps = scaled_value(mrp, cfg.epsilon, tol=cfg.tol)
    checks["scaled_value"] = {
        "epsilon": cfg.epsilon,
        "sup": float(np.max(np.abs(V_eps))),
    }
    return checks


def _mode_diagnose(cfg, out):
    kind, obj = _build_problem(cfg)
    if kind == "lattice":
        raise ConfigError("problem=box supports mode=grid only")
    if kind == "mdp":
        try:
            mrp = induced_mrp(obj, np.zeros(obj.lattice.size, dtype=np.int64))
        except ResourceLimitError as exc:
            raise ConfigError(
                f"{cfg.problem} is too large to materialize for diagnostics: {exc}"
            ) from exc
    else:
        mrp = obj
    grid = _make_grid(cfg, mrp.lattice)
    scheme = build_scheme(grid)
    checks = _diagnostics(cfg, mrp, scheme)
    _write_json(out / "grid.json", _grid_payload(cfg, grid))
    _write_json(out / "diagnostics.json", checks)
    return SummaryRecord(
        problem=cfg.problem,
        mode="diagnose",
        n_states=mrp.lattice.size,
        n_meta=grid.size,
        spacing_exponent=grid.spacing_exponent,
    )


def run(config):
    """Execute a configuration; returns the SummaryRecord (artifacts on disk)."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "grid": _mode_grid,
        "evaluate": _mode_evaluate,
        "optimize": _mode_optimize,
        "diagnose": _mode_diagnose,
    }
    summary = dispatch[cfg.mode](cfg, out)
    _write_json(out / "summary.json", dataclasses.asdict(summary))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="momentagg",
        description="Aggregation-based solver runs driven by an INI config.",
    )
    parser.add_argument("--config", required=True, help="path to the INI run config")
    parser.add_argument("--mode", choices=MODES, help="override the configured mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--threads", type=int, help="worker thread count")
    parser.add_argument("--seed", type=int, help="seed for seeded problems")
    parser.add_argument("--spacing", type=float, help="grid spacing exponent")
    args = parser.parse_args(argv)
    overrides = {
        "mode": args.mode,
        "out_dir": args.out,
        "threads": args.threads,
        "seed": args.seed,
        "spacing": args.spacing,
    }
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ResourceLimitError) as exc:
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_json(
                out / "error.json",
                {
                    "error": str(exc),
                    "type": type(exc).__name__,
                    "residual": getattr(exc, "residual", None),
                },
            )
        except OSError:
            pass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
