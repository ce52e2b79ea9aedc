"""Command-line runner tests: config parsing and precedence, artifact
layout, deterministic output bytes, and exit codes."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from momentagg import chain, cli, exact_value
from momentagg.benchmarks import build_reflecting_rw, save_mrp
from momentagg.cli import ConfigError, RunConfig, load_config, main, run


def _write_ini(path, body):
    path.write_text(body)
    return str(path)


def _simple_rw_ini(tmp_path, out, extra=""):
    return _write_ini(
        tmp_path / "run.ini",
        "[problem]\n"
        "name = simple_rw\n"
        "mode = evaluate\n"
        "n = 20\n"
        f"{extra}"
        "[output]\n"
        f"dir = {out}\n",
    )


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_load_config_full_ini(tmp_path):
    path = _write_ini(
        tmp_path / "full.ini",
        "[problem]\n"
        "name = jrp_small\n"
        "mode = optimize\n"
        "spacing = 0.4\n"
        "alpha = 0.95\n"
        "epsilon = 0.2\n"
        "baseline = false\n"
        "grid = spaced\n"
        "[solver]\n"
        "seed = 7\n"
        "threads = 2\n"
        "tol = 1e-9\n"
        "max_iter = 55\n"
        "[output]\n"
        "dir = results\n",
    )
    cfg = load_config(path)
    assert cfg.problem == "jrp_small"
    assert cfg.mode == "optimize"
    assert cfg.spacing == 0.4
    assert cfg.alpha == 0.95
    assert cfg.epsilon == 0.2
    assert cfg.baseline is False
    assert cfg.grid_source == "spaced"
    assert (cfg.seed, cfg.threads, cfg.tol, cfg.max_iter) == (7, 2, 1e-9, 55)
    assert cfg.out_dir == "results"


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_ini(tmp_path / "min.ini", "[problem]\nname = simple_rw\n"))
    assert cfg.mode == "evaluate"
    assert cfg.spacing == 0.45
    assert cfg.alpha is None
    assert cfg.threads == 1
    assert cfg.baseline is True
    assert cfg.out_dir == "out"


def test_load_config_precedence(tmp_path, monkeypatch):
    path = _write_ini(
        tmp_path / "p.ini",
        "[problem]\nname = simple_rw\n[solver]\nthreads = 2\nseed = 1\n",
    )
    monkeypatch.setenv("MOMENTAGG_THREADS", "4")
    monkeypatch.setenv("MOMENTAGG_SEED", "9")
    cfg = load_config(path)
    assert cfg.threads == 4 and cfg.seed == 9  # env beats file
    cfg = load_config(path, {"threads": 6, "seed": None})
    assert cfg.threads == 6  # flag beats env
    assert cfg.seed == 9  # absent flag leaves the env value


def test_load_config_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="missing"):
        load_config(_write_ini(tmp_path / "empty.ini", "[solver]\nseed = 1\n"))
    with pytest.raises(ConfigError, match="bad config value"):
        load_config(
            _write_ini(tmp_path / "bad.ini", "[problem]\nname = simple_rw\nspacing = huge\n")
        )


@pytest.mark.parametrize(
    "body, message",
    [
        ("name = simple_rw\n", "no section headers"),
        ("[problem]\nname = simple_rw\n[problem]\nmode = evaluate\n", "already exists"),
    ],
    ids=["no_section_header", "duplicate_section"],
)
def test_unparsable_config_is_a_config_error(tmp_path, capsys, body, message):
    # configparser's own parse errors take the same exit as every other
    # malformed config: one "config error" line and exit 1, no traceback
    ini = _write_ini(tmp_path / "bad.ini", body)
    with pytest.raises(ConfigError, match=message):
        load_config(ini)
    assert main(["--config", ini]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed config file") and "Traceback" not in err


def test_load_config_rejects_unknown_keys(tmp_path):
    # A misplaced key must fail loudly instead of silently using the default.
    with pytest.raises(ConfigError, match="unknown config key 'mode'"):
        load_config(
            _write_ini(
                tmp_path / "misplaced.ini",
                "[problem]\nname = simple_rw\n\n[solver]\nmode = optimize\n",
            )
        )
    with pytest.raises(ConfigError, match="unknown config key 'treads'"):
        load_config(
            _write_ini(
                tmp_path / "typo.ini",
                "[problem]\nname = simple_rw\n\n[solver]\ntreads = 4\n",
            )
        )
    # evaluate's exact reference is ``baseline`` too; there is no ``exact`` key
    with pytest.raises(ConfigError, match="unknown config key 'exact'"):
        load_config(
            _write_ini(tmp_path / "exact.ini", "[problem]\nname = simple_rw\nexact = no\n")
        )
    with pytest.raises(ConfigError, match=r"unknown config section \[solvers\]"):
        load_config(
            _write_ini(
                tmp_path / "section.ini",
                "[problem]\nname = simple_rw\n\n[solvers]\nseed = 1\n",
            )
        )


@pytest.mark.parametrize(
    "word, value",
    [("", True), ("true", True), ("Yes", True), ("1", True), ("on", True),
     ("false", False), ("NO", False), ("0", False), ("off", False)],
)
@pytest.mark.parametrize("key", ["baseline"])
def test_load_config_booleans(tmp_path, key, word, value):
    # an empty value means the default (true)
    cfg = load_config(
        _write_ini(tmp_path / "b.ini", f"[problem]\nname = simple_rw\n{key} = {word}\n")
    )
    assert getattr(cfg, key) is value


@pytest.mark.parametrize("key", ["baseline"])
def test_load_config_rejects_unknown_boolean(tmp_path, key, capsys):
    ini = _write_ini(tmp_path / "b.ini", f"[problem]\nname = simple_rw\n{key} = ture\n")
    with pytest.raises(ConfigError, match=f"{key} must be one of .*'ture'"):
        load_config(ini)
    assert main(["--config", ini]) == 1
    assert "ture" in capsys.readouterr().err


def test_runconfig_validation():
    with pytest.raises(ConfigError, match="unknown problem"):
        RunConfig(problem="nope")
    with pytest.raises(ConfigError, match="unknown mode"):
        RunConfig(problem="simple_rw", mode="solve")
    with pytest.raises(ConfigError, match="spacing"):
        RunConfig(problem="simple_rw", spacing=1.0)
    with pytest.raises(ConfigError, match="threads"):
        RunConfig(problem="simple_rw", threads=0)
    with pytest.raises(ConfigError, match="grid"):
        RunConfig(problem="simple_rw", grid_source="dense")
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="tol"):
            RunConfig(problem="simple_rw", tol=tol)
    with pytest.raises(ConfigError, match="max_iter"):
        RunConfig(problem="simple_rw", max_iter=0)


@pytest.mark.parametrize(
    "line, message",
    [
        ("tol = 0", "tol must be a positive finite number"),
        ("tol = -1e-10", "tol must be a positive finite number"),
        ("tol = nan", "tol must be a positive finite number"),
        ("max_iter = 0", "max_iter must be >= 1"),
    ],
)
def test_bad_solver_settings_are_config_errors(tmp_path, capsys, line, message):
    # a tolerance the solvers cannot meet is refused before any solve,
    # with one "config error" line and exit 1, no traceback
    ini = _write_ini(tmp_path / "s.ini", f"[problem]\nname = simple_rw\n[solver]\n{line}\n")
    assert main(["--config", ini]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


#: RunConfig field -> (INI section, INI key, value text, parsed value)
SAMPLES = {
    "problem": ("problem", "name", "hospital2", "hospital2"),
    "mode": ("problem", "mode", "diagnose", "diagnose"),
    "spacing": ("problem", "spacing", "0.4", 0.4),
    "alpha": ("problem", "alpha", "0.8", 0.8),
    "epsilon": ("problem", "epsilon", "0.2", 0.2),
    "seed": ("solver", "seed", "7", 7),
    "threads": ("solver", "threads", "3", 3),
    "tol": ("solver", "tol", "1e-9", 1e-9),
    "max_iter": ("solver", "max_iter", "55", 55),
    "out_dir": ("output", "dir", "results", "results"),
    "policy": ("problem", "policy", "zero", "zero"),
    "instance_file": ("problem", "file", "walk.npz", "walk.npz"),
    "size": ("problem", "n", "12", 12),
    "grid_source": ("problem", "grid", "endpoints", "endpoints"),
    "baseline": ("problem", "baseline", "off", False),
    "lower": ("problem", "lower", "-1; 2", (-1, 2)),
    "upper": ("problem", "upper", "4, 5", (4, 5)),
}

#: overridable field -> (flag, environment entry, (file, env, flag) values)
OVERRIDDEN = {
    "mode": ("--mode", "MOMENTAGG_MODE", ("grid", "optimize", "diagnose")),
    "out_dir": ("--out", "MOMENTAGG_OUT", ("a", "b", "c")),
    "threads": ("--threads", "MOMENTAGG_THREADS", ("2", "3", "4")),
    "seed": ("--seed", "MOMENTAGG_SEED", ("5", "6", "7")),
    "spacing": ("--spacing", "MOMENTAGG_SPACING", ("0.3", "0.35", "0.4")),
}


def _ini(tmp_path, entries):
    """INI text of {(section, key): text}, with problem=simple_rw unless given."""
    sections = {"problem": {"name": "simple_rw"}}
    for (section, key), text in entries.items():
        sections.setdefault(section, {})[key] = text
    body = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    return _write_ini(tmp_path / "s.ini", body)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_setting_is_read_from_its_row(tmp_path, monkeypatch, field):
    # every RunConfig field has one SETTINGS row: its INI key sets it, a file
    # without the key leaves RunConfig's own default, and the five
    # overridable fields take a flag over the environment over the file
    for _, env, _ in OVERRIDDEN.values():
        monkeypatch.delenv(env, raising=False)
    section, key, text, value = SAMPLES[field]
    assert getattr(load_config(_ini(tmp_path, {(section, key): text})), field) == value
    if field != "problem":
        bare = load_config(_ini(tmp_path, {}))
        assert getattr(bare, field) == getattr(RunConfig(problem="simple_rw"), field)
    if field not in OVERRIDDEN:
        return
    flag, env, (in_file, in_env, in_flag) = OVERRIDDEN[field]
    parse = type(value)
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    ini = _ini(tmp_path, {(section, key): in_file})
    assert main(["--config", ini]) == 0
    monkeypatch.setenv(env, in_env)
    assert main(["--config", ini]) == 0
    assert main(["--config", ini, flag, in_flag]) == 0
    got = [getattr(cfg, field) for cfg in seen]
    assert got == [parse(in_file), parse(in_env), parse(in_flag)]


#: problem name -> the kind of object its PROBLEMS row builds
KINDS = {
    "jrp_small": "mdp", "jrp_large": "mdp",
    "hospital2": "mdp", "hospital3": "mdp", "hospital4": "mdp",
    "simple_rw": "mrp", "reflecting_rw": "mrp", "custom": "mrp", "box": "lattice",
}


def test_modes_and_problems_are_read_from_their_tables(tmp_path, monkeypatch, capsys):
    assert list(cli.MODES) == ["grid", "evaluate", "optimize", "diagnose"]
    assert list(cli.PROBLEMS) == list(KINDS)
    # a mode added to MODES is a --mode choice, passes RunConfig and runs
    def probe(cfg, out):
        return cli.SummaryRecord(problem=cfg.problem, mode=cfg.mode, n_states=0)

    monkeypatch.setitem(cli.MODES, "probe", probe)
    ini = _ini(tmp_path, {("output", "dir"): str(tmp_path)})
    assert main(["--config", ini, "--mode", "probe"]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["mode"] == "probe"
    monkeypatch.delitem(cli.MODES, "probe")
    with pytest.raises(SystemExit):
        main(["--config", ini, "--mode", "probe"])
    assert "invalid choice: 'probe'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown mode"):
        RunConfig(problem="simple_rw", mode="probe")
    # every problem builds from its row, MDPs at the configured thread count
    save_mrp(tmp_path / "walk.npz", build_reflecting_rw(10, seed=1))
    for name, kind in KINDS.items():
        cfg = RunConfig(
            problem=name, threads=2, lower=(0, -1), upper=(3, 2),
            instance_file=str(tmp_path / "walk.npz"),
        )
        built, obj = cli.PROBLEMS[name](cfg)
        assert built == kind
        assert kind != "mdp" or obj.threads == 2


# ---------------------------------------------------------------------------
# evaluate mode
# ---------------------------------------------------------------------------

def test_evaluate_simple_rw(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _simple_rw_ini(tmp_path, out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "simple_rw"
    assert summary["mode"] == "evaluate"
    assert summary["n_states"] == 21
    assert summary["n_meta"] == 2
    assert summary["max_rel_gap"] <= 1e-8
    lines = (out / "values.csv").read_text().splitlines()
    assert lines[0] == "state_index,x0,V_exact,V_agg,abs_gap,rel_gap"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    grid = json.loads((out / "grid.json").read_text())
    assert grid["axes"] == [[0, 20]]
    assert grid["n_meta"] == 2


def test_evaluate_outputs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ini = _write_ini(
        tmp_path / "r.ini",
        "[problem]\nname = reflecting_rw\nn = 60\n[solver]\nseed = 3\n",
    )
    assert main(["--config", ini, "--out", str(out_a)]) == 0
    assert main(["--config", ini, "--out", str(out_b), "--threads", "4"]) == 0
    assert (out_a / "values.csv").read_bytes() == (out_b / "values.csv").read_bytes()
    assert (out_a / "grid.json").read_bytes() == (out_b / "grid.json").read_bytes()


def test_evaluate_custom_instance(tmp_path):
    inst = tmp_path / "walk.npz"
    mrp = build_reflecting_rw(40, seed=2)
    save_mrp(inst, mrp)
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "c.ini",
        f"[problem]\nname = custom\nfile = {inst}\n[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 0
    lines = (out / "values.csv").read_text().splitlines()
    V = np.array([float(r.split(",")[2]) for r in lines[1:]])
    np.testing.assert_allclose(V, exact_value(mrp), atol=1e-7)


def test_custom_requires_existing_file(tmp_path):
    ini = _write_ini(
        tmp_path / "c.ini",
        f"[problem]\nname = custom\nfile = {tmp_path / 'nope.npz'}\n",
    )
    assert main(["--config", ini]) == 1


def test_custom_instance_with_a_nan_probability_is_a_config_error(tmp_path, capsys):
    inst = tmp_path / "walk.npz"
    save_mrp(inst, build_reflecting_rw(40, seed=2))
    with np.load(inst) as z:
        arrays = dict(z)
    arrays["data"][3] = np.nan
    np.savez_compressed(inst, **arrays)
    ini = _write_ini(
        tmp_path / "c.ini",
        f"[problem]\nname = custom\nfile = {inst}\n[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["--config", ini]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: instance file {inst}: negative or NaN transition probability\n"


def test_evaluate_without_exact_baseline(tmp_path):
    out = tmp_path / "out"
    ini = _simple_rw_ini(tmp_path, out, extra="baseline = false\n")
    assert main(["--config", ini]) == 0
    lines = (out / "values.csv").read_text().splitlines()
    assert lines[0] == "state_index,x0,V_agg"
    assert json.loads((out / "summary.json").read_text())["max_rel_gap"] is None


# ---------------------------------------------------------------------------
# grid and diagnose modes
# ---------------------------------------------------------------------------

def test_grid_mode_box_problem(tmp_path):
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "g.ini",
        "[problem]\nname = box\nmode = grid\nlower = -10, 0\nupper = 10, 24\n"
        f"spacing = 0.45\n[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 0
    payload = json.loads((out / "grid.json").read_text())
    assert payload["shape"][0] >= 2 and len(payload["axes"]) == 2
    assert payload["n_states"] == 21 * 25
    assert payload["within_bound"] is True
    assert payload["spacing_exponent"] == 0.45


def test_box_rejects_other_modes(tmp_path):
    ini = _write_ini(
        tmp_path / "g.ini",
        "[problem]\nname = box\nmode = evaluate\nlower = 0\nupper = 5\n",
    )
    assert main(["--config", ini]) == 1


def test_diagnose_reflecting_rw(tmp_path):
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "d.ini",
        "[problem]\nname = reflecting_rw\nmode = diagnose\nn = 50\n"
        f"[solver]\nseed = 5\n[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 0
    checks = json.loads((out / "diagnostics.json").read_text())
    assert checks["first_moment_gap"]["pass"] is True
    assert checks["interpolation_bound"]["pass"] is True
    assert checks["mstep_identity_m2"]["pass"] is True
    assert checks["second_moment"]["sup_normalized"] > 0.0
    assert checks["scaled_value"]["epsilon"] == 0.1


@pytest.mark.parametrize(
    "problem, grid",
    [("simple_rw", "auto"), ("hospital2", "endpoints"), ("reflecting_rw", "endpoints")],
)
def test_diagnose_on_explicit_grids(tmp_path, problem, grid):
    # an explicit grid has no spacing exponent: the second-moment check
    # reports its raw sup and marks the normalized fields as not applicable
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "d.ini",
        f"[problem]\nname = {problem}\nmode = diagnose\ngrid = {grid}\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 0
    second = json.loads((out / "diagnostics.json").read_text())["second_moment"]
    assert second["sup"] > 0.0
    assert second["sup_normalized"] is None and second["normalization_exponent"] is None
    assert "spacing exponent" in second["skipped"]
    assert json.loads((out / "grid.json").read_text())["spacing_exponent"] is None


@pytest.mark.parametrize(
    "entry, message",
    [(7.9, "action 7.9 in state 5 is not an integer"),
     (np.nan, "action nan in state 5 is not an integer"),
     (7, "action 7 infeasible in state 5")],
    ids=["fraction", "nan", "infeasible"],
)
def test_evaluate_rejects_bad_policy_file(tmp_path, capsys, entry, message):
    # hospital2 state 5 has one action; a bad entry there is a config error
    # naming the state, not a truncated action or a traceback
    policy = np.zeros(43 * 43)
    policy[5] = entry
    np.save(tmp_path / "policy.npy", policy)
    ini = _write_ini(
        tmp_path / "e.ini",
        f"[problem]\nname = hospital2\nmode = evaluate\npolicy = {tmp_path / 'policy.npy'}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["--config", ini]) == 1
    assert message in capsys.readouterr().err
    np.save(tmp_path / "policy.npy", np.zeros(43 * 43))  # whole floats are ids
    assert main(["--config", ini]) == 0


def test_evaluate_optimal_policy_ignores_a_small_iteration_cap(tmp_path):
    # exact PI needs 3 iterations on hospital2; max_iter caps aggregated PI,
    # and exact PI gets at least 200 in evaluate as in optimize's baseline
    written = []
    for run_name, solver in (("default", ""), ("capped", "[solver]\nmax_iter = 2\n")):
        out = tmp_path / run_name
        ini = _write_ini(
            tmp_path / f"{run_name}.ini",
            f"[problem]\nname = hospital2\nmode = evaluate\n{solver}[output]\ndir = {out}\n",
        )
        assert main(["--config", ini]) == 0
        written.append((out / "values.csv").read_bytes())
    assert written[0] == written[1]


def test_evaluate_rejects_unreadable_policy_file(tmp_path, capsys):
    path = tmp_path / "policy.npy"
    ini = _write_ini(
        tmp_path / "e.ini",
        f"[problem]\nname = hospital2\nmode = evaluate\npolicy = {path}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    path.write_bytes(b"not an array")
    assert main(["--config", ini]) == 1
    assert "cannot read policy file" in capsys.readouterr().err
    np.save(path, np.full(43 * 43, "0"))
    assert main(["--config", ini]) == 1
    assert "must hold integer action ids" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize mode
# ---------------------------------------------------------------------------

def test_optimize_hospital2_without_baseline(tmp_path):
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "o.ini",
        "[problem]\nname = hospital2\nmode = optimize\nbaseline = false\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "optimize"
    assert summary["iterations"] >= 1
    assert len(summary["reps_changed"]) == summary["iterations"]
    assert summary["reps_changed"][-1] == 0
    assert summary["mean_rel_gap"] is None  # no exact baseline requested
    assert summary["bellman_max_pct"] is not None
    lines = (out / "values.csv").read_text().splitlines()
    assert lines[0] == "state_index,x0,x1,V_agg,action"
    assert len(lines) == 1850
    runtime = summary["runtime_ms"]
    assert runtime["exact_pi"] is None
    assert runtime["aggregate_pi"] > 0.0


def test_optimize_rejects_plain_chains(tmp_path):
    ini = _write_ini(
        tmp_path / "o.ini",
        "[problem]\nname = simple_rw\nmode = optimize\n",
    )
    assert main(["--config", ini]) == 1


@pytest.mark.parametrize("problem", ["hospital3", "hospital4"])
@pytest.mark.parametrize("mode", ["diagnose", "evaluate"])
def test_refused_materialization_exits_2(tmp_path, monkeypatch, capsys, problem, mode):
    # the policy-0 chains of hospital3/4 are over chain.NNZ_BUDGET: both
    # modes refuse them before any kernel row is built, through one exit
    def no_rows(factors, rows):
        raise AssertionError("rows built past the budget")

    monkeypatch.setattr(chain, "row_kron", no_rows)
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "h.ini",
        f"[problem]\nname = {problem}\nmode = {mode}\npolicy = zero\n[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ResourceLimitError"
    assert "budget" in err["error"]
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_optimize_iteration_cap_exits_2(tmp_path, capsys):
    # hospital2's restricted policy changes in its first iteration, so a
    # cap of one iteration stops aggregated PI unconverged
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "o.ini",
        "[problem]\nname = hospital2\nmode = optimize\n"
        f"[solver]\nmax_iter = 1\n[output]\ndir = {out}\n",
    )
    assert main(["--config", ini]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "NumericalError"
    assert capsys.readouterr().err.startswith("numerical failure: ")


# ---------------------------------------------------------------------------
# programmatic entry
# ---------------------------------------------------------------------------

def test_run_accepts_runconfig(tmp_path):
    cfg = RunConfig(problem="simple_rw", size=10, out_dir=str(tmp_path / "o"))
    summary = run(cfg)
    assert summary.n_states == 11
    assert (tmp_path / "o" / "summary.json").exists()


def test_optimize_hospital4_runs_baseline_by_default(tmp_path, monkeypatch):
    # the exact baseline is on for every problem unless switched off; both
    # PI loops are stubbed, so only the wiring around them runs
    out = tmp_path / "out"
    ini = _write_ini(
        tmp_path / "o.ini",
        f"[problem]\nname = hospital4\nmode = optimize\n[output]\ndir = {out}\n",
    )
    cfg = load_config(ini)
    assert cfg.baseline is True
    calls = []

    def fake_api(mdp, scheme, **kwargs):
        calls.append("api")
        zeros = np.zeros(mdp.lattice.size)
        return SimpleNamespace(
            policy=zeros.astype(np.int64),
            value=zeros,
            timings_ms={},
            iterations=1,
            reps_changed=[0],
        )

    def fake_exact(mdp, **kwargs):
        calls.append("exact")
        return SimpleNamespace(value=np.ones(mdp.lattice.size))

    monkeypatch.setattr(cli, "aggregated_policy_iteration", fake_api)
    monkeypatch.setattr(cli, "exact_policy_iteration", fake_exact)
    run(cfg)
    assert calls == ["api", "exact"]
    header = (out / "values.csv").read_text().splitlines()[0]
    assert header == "state_index,x0,x1,x2,x3,V_exact,V_agg,abs_gap,rel_gap,action"
