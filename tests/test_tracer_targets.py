"""The benchmark's tracer finds the functions it pins by name.

perfbench/tracer.py wraps a fixed list of package functions and raises
TraceTargetMissing when one is gone. Loading it here makes a rename or a
deletion of such a function fail the test suite, not only a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_pinned_functions_exist():
    spec = importlib.util.spec_from_file_location("gridwlp_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()  # raises TraceTargetMissing on a missing pin
    assert set(tracer.REQUIRED) <= set(targets)
