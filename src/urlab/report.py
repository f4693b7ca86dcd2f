"""Run reports and CSV/JSON emission for the command-line front end."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

from .errors import UrlabError

CSV_COLUMNS = ["scenario", "quantity", "value", "bound", "gap", "status"]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


@dataclass(frozen=True)
class Row:
    """One checked quantity: its value, the bound it was compared to, status."""

    quantity: str
    value: float
    bound: float
    status: str  # pass | fail | infinite

    def __post_init__(self):
        if self.status not in ("pass", "fail", "infinite"):
            raise UrlabError(f"invalid status {self.status!r}")

    @property
    def gap(self) -> float:
        if math.isinf(self.value) or math.isinf(self.bound):
            return math.inf
        return self.value - self.bound


def le_row(quantity: str, value: float, bound: float, *, atol: float = 0.0) -> Row:
    """Row that passes when value <= bound + atol; infinite values are reported."""
    if math.isinf(value):
        return Row(quantity, value, bound, "infinite")
    status = "pass" if value <= bound + atol else "fail"
    return Row(quantity, value, bound, status)


def ge_row(quantity: str, value: float, bound: float, *, atol: float = 0.0) -> Row:
    """Row that passes when value >= bound - atol."""
    if math.isinf(value):
        return Row(quantity, value, bound, "infinite")
    status = "pass" if value >= bound - atol else "fail"
    return Row(quantity, value, bound, status)


def eq_row(quantity: str, value: float, bound: float, *, atol: float) -> Row:
    """Row that passes when |value - bound| / max(1, |bound|) <= atol: relative to a large bound."""
    if math.isinf(value):
        return Row(quantity, value, bound, "infinite" if math.isinf(bound) else "fail")
    status = "pass" if abs(value - bound) / max(1.0, abs(bound)) <= atol else "fail"
    return Row(quantity, value, bound, status)


def flag_row(quantity: str, ok: bool, value: float = None) -> Row:  # type: ignore[assignment]
    """Row for a boolean property against bound 0; value defaults to 1/0 for pass/fail."""
    if value is None:
        value = 1.0 if ok else 0.0
    if math.isinf(value):
        return Row(quantity, value, 0.0, "infinite" if ok else "fail")
    return Row(quantity, value, 0.0, "pass" if ok else "fail")


@dataclass
class RunReport:
    scenario: str
    rows: list
    metadata: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "rows": [
                {
                    "quantity": r.quantity,
                    "value": _fmt(r.value),
                    "bound": _fmt(r.bound),
                    "gap": _fmt(r.gap),
                    "status": r.status,
                }
                for r in self.rows
            ],
            "metadata": self.metadata,
        }


def new_metadata(seed: int, dims, started: float, inputs: dict) -> dict:
    """seed, dims, wall time and version, plus the run's other inputs, so it can be replayed."""
    from . import __version__

    return {
        "seed": seed,
        "dims": list(dims),
        "wall_time": time.time() - started,
        "version": __version__,
        **inputs,
    }


def emit(report: RunReport, fmt: str, path: str) -> None:
    """Write a report as CSV (fixed column contract) or JSON.

    Both carry the strings of to_dict, so infinite values are "inf" in both.
    """
    if fmt not in ("csv", "json"):
        raise UrlabError(f"unknown format {fmt!r}")
    data = report.to_dict()
    try:
        with open(path, "w", newline="" if fmt == "csv" else None) as fh:
            if fmt == "json":
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                rows = ([report.scenario, *(r[c] for c in CSV_COLUMNS[1:])] for r in data["rows"])
                csv.writer(fh).writerows([CSV_COLUMNS, *rows])
    except OSError as exc:
        raise UrlabError(f"cannot write {path}: {exc}") from exc
