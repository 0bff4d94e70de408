"""The benchmark's tracer (perfbench/spans.py) patches package functions by
their dotted names, including names that modules re-bind only so that it can
find them.  Installing it fails if such a name is gone; leaving it must put
every original back."""

import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_traced_name_and_restores_it():
    spans = _spans_module()
    dotted = [
        name
        for table in (spans.SPANS, spans.STEP_SPANS)
        for _, _, defining, rebound in table
        for name in (defining, *rebound)
    ]
    tracer = spans.Tracer()
    with tracer:
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    # every traced name, plus the two call counters (Hamiltonian matvec, block application)
    assert len(patches) == len(dotted) + 2
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
