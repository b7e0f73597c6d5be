"""Tabular report rows shared by the sweeps, the W-subspace report and
the CLI, with deterministic CSV/JSON rendering.

CSV output starts with the versioned schema comment line and uses
RFC-4180-style quoting with 17-significant-digit floats, so identical
configurations produce byte-identical files.

Both renderers fill a fixed row template from pre-formatted fields.
They write the bytes of ``csv.writer`` and of ``json.dumps(payload,
indent=1)``, whose indented form would run the pure-Python encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

CSV_SCHEMA = "# collardiff-sweep v1"
_COLUMNS = ("ell", "delta", "statistic", "value", "normalized", "status")
_JSON_ROW = " {\n" + ",\n".join(f"  {_json_str(c)}: %s" for c in _COLUMNS) \
    + "\n }"

# Row status vocabulary; anything else is a bug.
STATUS_OK = "ok"
STATUS_EMPTY = "empty-thin"
STATUS_FAILED = "non-converged"
_STATUSES = {STATUS_OK, STATUS_EMPTY, STATUS_FAILED}


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _csv_text(text: str) -> str:
    """A text field as csv.writer writes it: a field holding the delimiter,
    a quote or a newline (the line terminator) is quoted, its quotes
    doubled; a carriage return alone leaves it bare."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(x: float | None):
    if x is None:
        return None
    x = float(x)
    if math.isfinite(x):
        return x
    # JSON has no Infinity/NaN literals; keep the payload portable.
    return format(x, ".17g")


def _json_num(x: float | None) -> str:
    v = _jsonable(x)
    if v is None:
        return "null"
    return float.__repr__(v) if isinstance(v, float) else _json_str(v)


@dataclass(frozen=True)
class ReportRow:
    ell: float | None
    delta: float | None
    statistic: str
    value: float
    normalized: float | None = None
    status: str = STATUS_OK

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown row status {self.status!r}")


@dataclass
class Report:
    rows: list

    def to_csv(self) -> str:
        # statuses are the fixed vocabulary above and never need quoting
        lines = [CSV_SCHEMA, ",".join(_COLUMNS)]
        lines += [f"{_fmt(r.ell)},{_fmt(r.delta)},{_csv_text(r.statistic)},"
                  f"{_fmt(r.value)},{_fmt(r.normalized)},{r.status}"
                  for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        if not self.rows:
            return "[]"
        return "[\n" + ",\n".join(_JSON_ROW % (
            _json_num(r.ell), _json_num(r.delta), _json_str(r.statistic),
            _json_num(r.value), _json_num(r.normalized), _json_str(r.status))
            for r in self.rows) + "\n]"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown output format {fmt!r}")

    def values(self, statistic: str) -> list:
        return [r for r in self.rows if r.statistic == statistic]

    def single(self, statistic: str) -> ReportRow:
        hits = self.values(statistic)
        if len(hits) != 1:
            raise KeyError(f"expected one {statistic!r} row, found {len(hits)}")
        return hits[0]
