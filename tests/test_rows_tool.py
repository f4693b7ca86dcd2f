"""tools/rows.py diff: moved values are printed, a changed status or verdict fails."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "rows", pathlib.Path(__file__).parents[1] / "tools" / "rows.py"
)
rows = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rows)

BASE = {
    "verify-all@0/classical.q.value": 1e-12,
    "verify-all@0/classical.q.status": "pass",
    "instrument-ic/0.eps_a.kernel_violation": 2e-16,
    "instrument-ic/0.eps_a.quad_form": float("nan"),
    "instrument-ic/0.holds": True,
}


def _diff(tmp_path, change):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE))
    b.write_text(json.dumps({k: v for k, v in {**BASE, **change}.items() if v is not None}))
    return rows.diff(a, b)


def test_identical_dumps_print_nothing(tmp_path, capsys):
    assert _diff(tmp_path, {}) == 0
    assert capsys.readouterr().out == ""


def test_moved_values_print_their_relative_change(tmp_path, capsys):
    change = {"verify-all@0/classical.q.value": 1.5e-12,
              "instrument-ic/0.eps_a.kernel_violation": 0.0}
    assert _diff(tmp_path, change) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "instrument-ic/0.eps_a.kernel_violation: 2e-16 -> 0.0 (relative 1.00e+00)",
        "verify-all@0/classical.q.value: 1e-12 -> 1.5e-12 (relative 5.00e-01)",
    ]


@pytest.mark.parametrize(
    "change",
    [{"verify-all@0/classical.q.status": "fail"},
     {"instrument-ic/0.holds": False},
     {"instrument-ic/0.holds": None}],
    ids=["status", "verdict", "missing"],
)
def test_a_changed_status_or_verdict_exits_1(tmp_path, capsys, change):
    assert _diff(tmp_path, change) == 1
    assert capsys.readouterr().out.startswith("CHANGED ")
