"""tools/rows.py diff: moved values are printed, a changed status or verdict fails."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from urlab import FisherOperator

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
    "fisher/00000": "64x63 rank 63 inverse 0 kernel 0",
    "fisher/00001": "2x2 rank 1 svd 1 kernel >0",
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
     {"instrument-ic/0.holds": None},
     {"fisher/00000": "64x63 rank 63 svd 1 kernel 0"},
     {"fisher/00000": "64x63 rank 62 svd 1 kernel >0"},
     {"fisher/00001": "2x2 rank 1 svd 2 kernel >0"},
     {"fisher/00000": "64x63 rank 63 inverse 0 kernel >0"},
     {"fisher/00001": None}],
    ids=["status", "verdict", "missing", "census-form", "census-rank", "census-svd-calls",
         "census-kernel", "census-count"],
)
def test_a_changed_status_or_verdict_exits_1(tmp_path, capsys, change):
    assert _diff(tmp_path, change) == 1
    assert capsys.readouterr().out.startswith("CHANGED ")


def test_census_records_each_fisher_operator_built_in_the_block():
    svd = np.linalg.svd
    with rows.fisher_census() as built:
        FisherOperator(np.random.default_rng(0).normal(size=(5, 3)))  # dense, of full rank
        FisherOperator(np.diag([1.0, 0.0]))  # with zeros, cut
        np.linalg.svd(np.eye(2))  # outside a build: not counted
        FisherOperator(np.ones((3, 2)))  # dense, cut
        # with zeros, of full rank: no kernel, though the SVD's V rounds (a V kept at
        # rank n would leave a residue of the all-ones vector)
        FisherOperator(np.array([[1, 2, 0.3], [3, 4, 0], [0, 0, 5]]))
    FisherOperator(np.eye(2))  # after the block: not recorded
    assert built == ["5x3 rank 3 inverse 0 kernel 0", "2x2 rank 1 svd 1 kernel >0",
                     "3x2 rank 1 svd 1 kernel >0", "3x3 rank 3 svd 1 kernel 0"]
    assert np.linalg.svd is svd
