"""The benchmark tracer still finds every function it counts in urlab."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_tracer_finds_counted_functions(monkeypatch):
    # Tracer() raises when a counted function (mp_inverse, apply_channel,
    # joint_povm, model_from_povm) is gone from its layer module
    importlib.import_module("urlab.scenarios")  # imports every layer module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    assert set(spans.COUNTERS) <= set(tracer.stats)
