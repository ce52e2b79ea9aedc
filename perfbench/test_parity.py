"""The benchmark measures the CLI's computation.

Each workload's pipeline runs on a small instance of the same family and
must reproduce what ``momentagg.cli.run`` writes to ``values.csv`` for the
same problem, to the 17 significant digits the CLI prints.
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pipeline
import run as harness
from momentagg import benchmarks, control
from momentagg.cli import load_config
from momentagg.cli import run as cli_run

HERE = Path(__file__).resolve().parent

# workload -> (CLI problem section, the same family at a small size); the
# accuracy bands belong to the large instances, so they are dropped here
SMALL = {
    "jrp_large-optimize": (
        "name = jrp_small\nmode = optimize\nbaseline = true\n",
        lambda seed: benchmarks.build_jrp(benchmarks.jrp_small()),
    ),
    "hospital3-optimize": (
        "name = hospital2\nmode = optimize\nbaseline = true\n",
        lambda seed: benchmarks.build_hospital(benchmarks.hospital_2ward()),
    ),
    "rw1m-evaluate": (
        "name = reflecting_rw\nmode = evaluate\nn = 2000\n",
        lambda seed: benchmarks.build_reflecting_rw(2000, seed),
    ),
}
SEED = 7


def _small(name):
    return dataclasses.replace(pipeline.WORKLOADS[name], build=SMALL[name][1], bands=None)


def _cli_values(tmp_path, name):
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[problem]\n{SMALL[name][0]}[solver]\nseed = {SEED}\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    cli_run(load_config(str(ini)))
    with open(tmp_path / "out" / "values.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in rows[0] if c != "state_index" and not c.startswith("x")]
    return {c: [row[c] for row in rows] for c in columns}


def _printed(column, values):
    if column == "action":
        return [str(int(v)) for v in values]
    return [format(float(v), ".17g") for v in values]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_pipeline_matches_cli_values(tmp_path, name):
    expected = _cli_values(tmp_path, name)
    out = pipeline.run_once(_small(name), SEED)
    assert not out.failures
    for column, printed in expected.items():
        assert _printed(column, out.values[column]) == printed, column


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_repetition_is_consistent(name):
    workload = _small(name)
    plain = pipeline.run_once(workload, SEED)
    tracer = pipeline.Tracer()
    tracer.start_rep(1)
    out = pipeline.run_once(workload, SEED, tracer)
    metrics, problems = harness.layer_metrics(tracer, out, 1)
    assert problems == []
    layers = sum(metrics[f"{layer}.self_s"] for layer in harness.LAYERS)
    assert layers == pytest.approx(metrics["trace.run_s"], abs=1e-6)
    assert all(s["end"] is not None for s in tracer.spans)
    for column in ("V_exact", "V_agg"):
        assert list(out.values[column]) == list(plain.values[column])
    assert metrics["chain.solve_calls"] >= 1 and metrics["chain.matvecs"] >= 1
    # the instrumentation is gone after the repetition
    assert control.solve_discounted is pipeline.solve_discounted
    assert not {"greedy_at", "induced_apply"} & set(vars(out.model))


@pytest.mark.parametrize("name", ["hospital3-optimize", "jrp_large-optimize"])
def test_api_only_repetition_reproduces_the_policy(name):
    workload = _small(name)
    out = pipeline.run_once(workload, SEED)
    again = pipeline.repeat_api(workload, SEED, out.api.policy)
    assert again.failures == []
    assert set(again.times) == {"setup_s", "agg_s"}
    wrong = pipeline.repeat_api(workload, SEED, out.api.policy + 1)
    assert [f.split(":")[0] for f in wrong.failures] == ["same_policy"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rw1m-evaluate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
