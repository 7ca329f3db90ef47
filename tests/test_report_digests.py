"""Every benchmark workload writes the report bytes the benchmark expects.

`perfbench/run.py` records, for each workload, its `indres` arguments,
its exit code and the SHA-256 of its `-o` report, and a timed run fails
when either differs.  This test reads the same records (for the workloads
that `BENCHMARK.json` lists) and runs each command in process, so a
report that drifts fails here too, not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from indres.cli import main

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["workloads"]]
    return [run.WORKLOADS[name] for name in names]


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_workload_report_bytes(workload, tmp_path, monkeypatch):
    # the workloads name their fixture files relative to the repo root
    monkeypatch.chdir(ROOT)
    report = tmp_path / "report.json"
    r = CliRunner().invoke(main, [*workload.args, "-o", str(report)],
                           catch_exceptions=False)
    assert r.exit_code == workload.exit_code, r.output
    assert hashlib.sha256(report.read_bytes()).hexdigest() == workload.digest
