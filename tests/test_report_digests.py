"""Every benchmark workload writes the report bytes the benchmark expects,
and fires every span the benchmark reads.

`perfbench/run.py` records, for each workload, its `indres` arguments,
its exit code, the SHA-256 of its `-o` report and the spans a traced run
must fire; a timed run fails when any of them differs.  This test runs
each workload that `BENCHMARK.json` lists once, traced, the way the
benchmark does (`run_child`: `perfbench/launch.py` in a fresh interpreter
started from the repository root), so a report that drifts or a span that
stops firing fails here too, not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


RUN = _perfbench_run()
WORKLOADS = [RUN.WORKLOADS[w["name"]] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_workload_report_bytes(workload, tmp_path):
    sample = RUN.run_child(workload, 1, tmp_path, trace=True)
    assert sample["exit_code"] == workload.exit_code, (
        (tmp_path / "stderr.txt").read_text())
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == workload.digest
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert [s for s in workload.spans if spans.get(s, {}).get("calls", 0) == 0] == []
    assert sample["problems"] == []
