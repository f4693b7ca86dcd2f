"""The benchmark tracer still finds every function it counts in urlab."""

import importlib
import json
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_finds_counted_functions(monkeypatch):
    # Tracer() raises when a counted function (mp_inverse, apply_channel,
    # joint_povm, model_from_povm) is gone from its layer module
    importlib.import_module("urlab.scenarios")  # imports every layer module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    assert set(spans.COUNTERS) <= set(tracer.stats)
    # every "<layer>.<function>.<count>" metric of BENCHMARK.json must be traced,
    # or the traced benchmark run dies with a KeyError after the whole run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"].count(".") == 2]
    assert names
    missing = [
        n for n in names
        if n.rpartition(".")[2] not in tracer.stats.get(n.rpartition(".")[0], {})
    ]
    assert not missing, f"per-layer metrics with no traced function: {missing}"
