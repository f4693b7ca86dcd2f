"""Dump every reported row and report field of a fixed set of runs; diff two dumps.

    PYTHONPATH=src:. python tools/rows.py dump OUT.json
    python tools/rows.py diff A.json B.json

dump runs the urlab found on the path: run_verify("all", trials=200) at seeds
0, 7 and 14, every scenario at its defaults, the oscillator at cutoffs (24, 32)
and (24, 40), and the 40 error-disturbance reports of perfbench's instrument-ic
workload at seed 0.  A dump is one flat JSON object: a row gives KEY.value and
KEY.status, a report every dataclass field and its three verdicts.  A string or
bool is a status or verdict; a number is a value.  diff prints each value that
moved with its relative change, and each status or verdict that changed or is
in one dump only; it exits 1 on any of the latter.  Point PYTHONPATH at another
checkout to dump that tree, and diff the two dumps.
"""

import dataclasses
import json
import math
import sys

import numpy as np


def _flat(prefix: str, obj, out: dict) -> None:
    for key, value in obj.items():
        if isinstance(value, dict):
            _flat(f"{prefix}.{key}", value, out)
        elif isinstance(value, (bool, np.bool_)):
            out[f"{prefix}.{key}"] = bool(value)
        else:
            out[f"{prefix}.{key}"] = float(value)


def dump(path: str) -> None:
    import urlab  # here, so that diff runs without urlab on the path
    from perfbench.workloads import instrument_ic
    from urlab.scenarios import ScenarioConfig, run_scenario, run_verify, scenario_names

    runs = [(f"verify-all@{s}", run_verify("all", trials=200, seed=s)) for s in (0, 7, 14)]
    runs += [(n, run_scenario(ScenarioConfig(n))) for n in scenario_names()]
    runs += [(f"oscillator@{c}", run_scenario(ScenarioConfig("oscillator", cutoffs=c)))
             for c in ((24, 32), (24, 40))]
    out = {}
    for name, report in runs:
        for r in report.rows:
            out[f"{name}/{r.quantity}.value"] = float(r.value)
            out[f"{name}/{r.quantity}.status"] = r.status
    for i, op in enumerate(instrument_ic(0, urlab).ops):
        rep = op()
        verdicts = {k: getattr(rep, k) for k in ("holds", "domination_a", "domination_b")}
        _flat(f"instrument-ic/{i}", {**dataclasses.asdict(rep), **verdicts}, out)
    with open(path, "w") as f:
        json.dump(out, f, indent=0, sort_keys=True)


def diff(path_a: str, path_b: str) -> int:
    """Print what moved from dump a to dump b; 1 if a status or verdict changed."""
    with open(path_a) as f, open(path_b) as g:
        a, b = json.load(f), json.load(g)
    changed = 0
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y or (x != x and y != y):  # NaN is the one value unequal to itself
            continue
        if isinstance(x, float) and isinstance(y, float):
            rel = abs(y - x) / abs(x) if x else math.inf
            print(f"{key}: {x!r} -> {y!r} (relative {rel:.2e})")
        else:
            changed = 1
            print(f"CHANGED {key}: {x!r} -> {y!r}")
    return changed


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
