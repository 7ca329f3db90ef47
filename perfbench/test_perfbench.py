"""Tests of the benchmark itself, on the small command ``verify S4 -p 2``.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run

S4 = run.Workload(
    "s4", ["verify", "S4", "-p", "2"], 0,
    "e1eebc974fe7cf68dd09ad47f9d3050d6b546cd8b4d0a35c1afca5c110d116f2",
)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """One untraced and one traced child, each with its report kept."""
    out = {}
    for traced in (False, True):
        work = tmp_path_factory.mktemp("traced" if traced else "plain")
        sample = run.run_child(S4, 12345, work, trace=traced)
        out[traced] = (sample, (work / "report.json").read_bytes())
    return out


def test_traced_and_untraced_reports_are_identical(pair):
    (plain, plain_bytes), (traced, traced_bytes) = pair[False], pair[True]
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain_bytes == traced_bytes


def test_self_times_add_up_to_the_traced_wall_time(pair):
    (plain, _), (traced, _) = pair[False], pair[True]
    module_self = sum(traced["layers"][f"{m}.self_s"] for m in run.MODULES)
    # wall time is set-up, the command and interpreter exit; the spans
    # cover the command except tracer install and argument parsing
    command = traced["wall_s"] - traced["setup_s"] - traced["exit_s"]
    uncovered = command - module_self
    assert uncovered == pytest.approx(traced["unattributed_s"], abs=1e-6)
    assert 0 <= uncovered <= abs(traced["wall_s"] - plain["wall_s"]) + 0.05


def test_a_wrong_digest_fails_every_child(tmp_path):
    wrong = run.Workload("s4", S4.args, 0, "0" * 64)
    record = run.run_workload(wrong, seed=3, seconds=0, trace=False, work=tmp_path)
    result = record["result"]
    assert record["fail_frac"] == 1
    assert result["failed"] == result["attempted"] == run.MIN_CHILDREN
    assert result["correct"] is False


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER]
    assert spec["command"][1] == str(Path(run.__file__).relative_to(run.ROOT))
