"""Every span the benchmark times is a public callable of indres.

`perfbench/run.py` names the spans (``module.Name`` or
``module.Class.method``) that a traced run must see fire.  A rename or a
move to a private name would otherwise show up only in a traced benchmark
run; this test reads the same list and resolves each name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _named_spans():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.NAMED_SPANS


def _resolve(span):
    module, *path = span.split(".")
    obj = importlib.import_module(f"indres.{module}")
    for name in path:
        if name.startswith("_"):
            return None
        obj = getattr(obj, name, None)
    return obj


def test_every_named_span_is_a_public_function():
    spans = _named_spans()
    assert spans
    bad = [s for s in spans if not inspect.isfunction(_resolve(s))]
    assert bad == []
