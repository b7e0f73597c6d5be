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

# Row statuses: a row derives ok / non-converged (see ReportRow), and a
# producer names only empty-thin.
STATUS_OK = "ok"
STATUS_EMPTY = "empty-thin"
STATUS_FAILED = "non-converged"
# the non-finite values that are answers: a non-integrable germ's L^1 norm
# and an unbounded density's sup are inf, and b0_vanishing's slope is NaN
# when the tail is already zero, with a finite verdict
_ANSWERS = {"l1_norm": lambda row: row.value == math.inf,
            "density_sup": lambda row: row.value == math.inf,
            "b0_vanishing": lambda row: math.isfinite(row.normalized)}


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
    status: str | None = None

    def __post_init__(self):
        """The one status rule: ``ok`` if the value is finite or is its
        statistic's answer and the normalized column is not NaN,
        ``non-converged`` otherwise."""
        if self.status is None:
            ok = (math.isfinite(self.value)
                  or _ANSWERS.get(self.statistic, lambda row: False)(self)) \
                and not math.isnan(self.normalized or 0.0)
            object.__setattr__(self, "status",
                               STATUS_OK if ok else STATUS_FAILED)
        elif self.status != STATUS_EMPTY:
            raise ValueError(f"a row derives its status, got {self.status!r}")


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
