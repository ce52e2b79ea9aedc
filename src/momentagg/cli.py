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

Exit codes: 0 success, 1 configuration error, 2 numerical failure or a
materialization refused by ``chain.NNZ_BUDGET`` (the failure detail is left
in ``error.json``).  With a fixed seed and config, ``values.csv``,
``grid.json`` and ``diagnostics.json`` are byte-identical across runs and
thread counts.
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
    baseline: bool = True  # exact reference: exact PI (optimize), full solve (evaluate)
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
        if not (0.0 < self.tol < np.inf):
            raise ConfigError("tol must be a positive finite number")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
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


def _optional(parse):
    """``parse``, with an empty value meaning None."""
    return lambda text: None if text == "" else parse(text)


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(text):
    """A boolean config value; empty means true.  The error leaves out the
    key, which ``load_config`` puts in front."""
    word = text.strip().lower()
    if not word or word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ConfigError(f"must be one of {'/'.join(_TRUE + _FALSE)}, not {text!r}")


#: RunConfig field -> (INI section, INI key, parser of the value); a file may
#: hold only these keys, and a setting given nowhere keeps its RunConfig default
SETTINGS = {
    "problem": ("problem", "name", str),
    "mode": ("problem", "mode", str),
    "spacing": ("problem", "spacing", float),
    "alpha": ("problem", "alpha", _optional(float)),
    "epsilon": ("problem", "epsilon", float),
    "seed": ("solver", "seed", int),
    "threads": ("solver", "threads", int),
    "tol": ("solver", "tol", float),
    "max_iter": ("solver", "max_iter", int),
    "out_dir": ("output", "dir", str),
    "policy": ("problem", "policy", str),
    "instance_file": ("problem", "file", str),
    "size": ("problem", "n", _optional(int)),
    "grid_source": ("problem", "grid", str),
    "baseline": ("problem", "baseline", _parse_bool),
    "lower": ("problem", "lower", _optional(_parse_int_tuple)),
    "upper": ("problem", "upper", _optional(_parse_int_tuple)),
}

#: the settings that a flag, or else a ``MOMENTAGG_<suffix>`` environment
#: entry, overrides: RunConfig field -> (flag, suffix, flag help)
OVERRIDES = {
    "mode": ("--mode", "MODE", "override the configured mode"),
    "out_dir": ("--out", "OUT", "override the output directory"),
    "threads": ("--threads", "THREADS", "worker thread count"),
    "seed": ("--seed", "SEED", "seed for seeded problems"),
    "spacing": ("--spacing", "SPACING", "grid spacing exponent"),
}


def load_config(path, overrides=None):
    """Parse an INI run configuration.

    ``overrides`` (flag values) beat ``MOMENTAGG_*`` environment entries,
    which beat the file.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        entries = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:  # no section header, a repeated section, ...
        raise ConfigError(f"malformed config file: {exc}") from None
    fields = {(section, key): field for field, (section, key, _) in SETTINGS.items()}
    values = {}
    for section, keys in entries.items():
        if section not in {known for known, _ in fields}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in keys.items():
            if (section, key) not in fields:
                raise ConfigError(f"unknown config key '{key}' in [{section}]")
            values[fields[section, key]] = val
    for field, (_, suffix, _) in OVERRIDES.items():
        env = os.environ.get(ENV_PREFIX + suffix)
        if env is not None:
            values[field] = env
    for field, val in (overrides or {}).items():
        if val is not None:
            values[field] = val

    if "problem" not in values:
        raise ConfigError("config is missing [problem] name")
    settings = {}
    for field, (_, key, parse) in SETTINGS.items():
        if field not in values:
            continue
        try:
            settings[field] = parse(values[field])
        except ConfigError as exc:
            raise ConfigError(f"{key} {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def _controlled(build, params):
    """Builder of a benchmark MDP at the configured discount and thread count."""

    def make(cfg):
        p = params() if cfg.alpha is None else dataclasses.replace(params(), discount=cfg.alpha)
        mdp = build(p)
        mdp.threads = cfg.threads
        return "mdp", mdp

    return make


def _custom(cfg):
    if not cfg.instance_file:
        raise ConfigError("problem=custom needs file=<instance.npz>")
    if not Path(cfg.instance_file).exists():
        raise ConfigError(f"instance file not found: {cfg.instance_file}")
    try:
        return "mrp", benchmarks.load_mrp(cfg.instance_file)
    except ValueError as exc:
        raise ConfigError(f"instance file {cfg.instance_file}: {exc}") from exc


def _box(cfg):
    if cfg.lower is None or cfg.upper is None:
        raise ConfigError("problem=box needs lower= and upper=")
    return "lattice", StateLattice(cfg.lower, cfg.upper)


#: problem name -> builder of (kind, object) from the RunConfig, where kind
#: is "mdp", "mrp" or "lattice" (a box with no chain: grid mode only)
PROBLEMS = {
    "jrp_small": _controlled(benchmarks.build_jrp, benchmarks.jrp_small),
    "jrp_large": _controlled(benchmarks.build_jrp, benchmarks.jrp_large),
    "hospital2": _controlled(benchmarks.build_hospital, benchmarks.hospital_2ward),
    "hospital3": _controlled(benchmarks.build_hospital, benchmarks.hospital_3ward),
    "hospital4": _controlled(benchmarks.build_hospital, benchmarks.hospital_4ward),
    "simple_rw": lambda cfg: (
        "mrp", benchmarks.build_simple_rw(cfg.size or 20, alpha=cfg.alpha or 0.9)
    ),
    "reflecting_rw": lambda cfg: (
        "mrp", benchmarks.build_reflecting_rw(cfg.size or 100, cfg.seed, alpha=cfg.alpha or 0.95)
    ),
    "custom": _custom,
    "box": _box,
}


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


def _grid_payload(grid):
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


def _exact_pi(cfg, mdp):
    """Exact PI for both modes; ``max_iter`` caps it no lower than 200."""
    return exact_policy_iteration(mdp, tol=cfg.tol, max_iter=max(cfg.max_iter, 200))


def _resolve_policy(cfg, mdp):
    """Policy for evaluate mode: exact-optimal, all-zeros, or from file."""
    if cfg.policy == "optimal":
        report = _exact_pi(cfg, mdp)
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
    try:
        return mdp.check_actions(np.arange(mdp.lattice.size), raw)[1], None
    except ValueError as exc:
        raise ConfigError(f"policy file {cfg.policy}: {exc}") from exc


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

def _finish(cfg, out, grid, **fields):
    """Write ``grid.json``; return the summary with the fields every mode
    fills, plus the mode's own ``fields``."""
    _write_json(out / "grid.json", _grid_payload(grid))
    return SummaryRecord(
        problem=cfg.problem,
        mode=cfg.mode,
        n_states=grid.lattice.size,
        n_meta=grid.size,
        spacing_exponent=grid.spacing_exponent,
        **fields,
    )


def _mode_grid(cfg, out):
    kind, obj = PROBLEMS[cfg.problem](cfg)
    return _finish(cfg, out, _make_grid(cfg, obj if kind == "lattice" else obj.lattice))


def _mode_evaluate(cfg, out):
    kind, obj = PROBLEMS[cfg.problem](cfg)
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
        compute_exact=cfg.baseline and V_star is None,
        V_exact=V_star,
        tol=cfg.tol,
    )
    total_ms = (time.perf_counter() - t0) * 1000.0
    columns = []
    if report.V_exact is not None:
        columns.append(("V_exact", report.V_exact))
    columns.append(("V_agg", report.V_agg))
    if report.V_exact is not None:
        columns.append(("abs_gap", report.abs_gap))
        columns.append(("rel_gap", report.rel_gap))
    _write_csv(out / "values.csv", mrp.lattice, columns)
    return _finish(
        cfg,
        out,
        grid,
        mean_rel_gap=report.mean_rel_gap,
        max_rel_gap=report.max_rel_gap,
        runtime_ms={**report.runtimes_ms, "total": total_ms},
    )


def _mode_optimize(cfg, out):
    kind, mdp = PROBLEMS[cfg.problem](cfg)
    if kind != "mdp":
        raise ConfigError(f"mode=optimize needs a controlled problem, not {cfg.problem}")
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
        pi_report = _exact_pi(cfg, mdp)
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
    return _finish(
        cfg,
        out,
        grid,
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
    sister = lifted_chain(mrp, scheme)
    gap = first_moment_gap(sister)
    checks["first_moment_gap"] = {
        "value": gap,
        "threshold": 1e-9,
        "pass": bool(gap <= 1e-9),
    }
    if scheme.grid.spacing_exponent is None:  # explicit axes: the raw sup only
        checks["second_moment"] = {
            "sup": second_moment_gap(sister, exponent=0.0).sup,
            "sup_normalized": None,
            "normalization_exponent": None,
            "skipped": "grid has no spacing exponent to normalize by",
        }
    else:
        second = second_moment_gap(sister)
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
    kind, obj = PROBLEMS[cfg.problem](cfg)
    if kind == "lattice":
        raise ConfigError("problem=box supports mode=grid only")
    if kind == "mdp":
        mrp = induced_mrp(obj, np.zeros(obj.lattice.size, dtype=np.int64))
    else:
        mrp = obj
    grid = _make_grid(cfg, mrp.lattice)
    checks = _diagnostics(cfg, mrp, build_scheme(grid))
    _write_json(out / "diagnostics.json", checks)
    return _finish(cfg, out, grid)


#: mode name -> function(cfg, out) that writes the mode's artifacts into
#: ``out`` and returns its SummaryRecord
MODES = {
    "grid": _mode_grid,
    "evaluate": _mode_evaluate,
    "optimize": _mode_optimize,
    "diagnose": _mode_diagnose,
}


def run(config):
    """Execute a configuration; returns the SummaryRecord (artifacts on disk)."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = MODES[cfg.mode](cfg, out)
    _write_json(out / "summary.json", dataclasses.asdict(summary))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="momentagg",
        description="Aggregation-based solver runs driven by an INI config.",
    )
    parser.add_argument("--config", required=True, help="path to the INI run config")
    for field, (flag, _, help_text) in OVERRIDES.items():
        _, _, parse = SETTINGS[field]
        choices = MODES if field == "mode" else None
        parser.add_argument(flag, type=parse, choices=choices, help=help_text)
    args = vars(parser.parse_args(argv))
    overrides = {field: args[flag[2:]] for field, (flag, _, _) in OVERRIDES.items()}
    try:
        cfg = load_config(args["config"], overrides)
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
        kind = "resource limit" if isinstance(exc, ResourceLimitError) else "numerical failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
