"""Report rendering: the row templates write the bytes of the stdlib
encoders they replace."""

import csv
import io
import json
import math

import numpy as np
import pytest

from collardiff.report import (CSV_SCHEMA, Report, ReportRow, STATUS_EMPTY,
                               STATUS_FAILED, STATUS_OK, _COLUMNS, _jsonable)


def _reference_csv(rep: Report) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    fmt = lambda x: "" if x is None else format(float(x), ".17g")  # noqa: E731
    for r in rep.rows:
        writer.writerow([fmt(r.ell), fmt(r.delta), r.statistic,
                         fmt(r.value), fmt(r.normalized), r.status])
    return buf.getvalue()


def _reference_json(rep: Report) -> str:
    payload = [{"ell": _jsonable(r.ell), "delta": _jsonable(r.delta),
                "statistic": r.statistic, "value": _jsonable(r.value),
                "normalized": _jsonable(r.normalized), "status": r.status}
               for r in rep.rows]
    return json.dumps(payload, indent=1)


_REPORTS = {
    "empty": Report([]),
    "odd values": Report([
        ReportRow(math.nan, None, "linf_ratio", 5e-324, 0.1),
        ReportRow(math.inf, -0.0, "linf_ratio", 1e300, 1.0 / 3.0),
        ReportRow(-math.inf, 0.0, "linf_ratio", -1.7976931348623157e308,
                  np.float64(2.5)),
        ReportRow(None, 5e-324, "linf_ratio", 0.1, 7),
        ReportRow(-0.0, 1e300, "linf_ratio", math.nan, None),
        ReportRow(1e-300, np.float64(-2.5), "linf_ratio", math.inf,
                  -math.inf),
        ReportRow(0.1, 0.2, "linf_ratio", -math.inf, math.nan),
    ]),
    "statuses": Report([ReportRow(None, 0.3, "w_linf_ratio_max", 0.0, 0.0,
                                  STATUS_EMPTY),
                        ReportRow(0.1, 0.3, "lp_ratio_p4", math.nan,
                                  math.nan)]),
    "quoted statistics": Report([
        ReportRow(0.1, 0.2, stat, 1.5, 2.5)
        for stat in ('a,b', 'say "x"', '"', ',', 'line\nbreak', 'cr\rhere',
                     'tab\there', ' lead', 'unicode δ²', '', '%s',
                     'back\\slash')]),
}


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_renderers_write_the_stdlib_bytes(name):
    rep = _REPORTS[name]
    assert rep.to_csv() == _reference_csv(rep)
    assert rep.to_json() == _reference_json(rep)


# the statuses case renders these bytes, as it did when its second row
# named non-converged explicitly
_STATUSES_CSV = (CSV_SCHEMA + "\n"
                 "ell,delta,statistic,value,normalized,status\n"
                 ",0.29999999999999999,w_linf_ratio_max,0,0,empty-thin\n"
                 "0.10000000000000001,0.29999999999999999,lp_ratio_p4,nan,"
                 "nan,non-converged\n")


def test_statuses_case_keeps_its_bytes():
    rep = _REPORTS["statuses"]
    assert rep.to_csv() == _STATUSES_CSV
    with pytest.raises(ValueError, match="unknown output format"):
        rep.render("xml")
    with pytest.raises(KeyError, match="found 0"):
        rep.single("l1_norm")


@pytest.mark.parametrize("statistic, value, normalized, want", [
    ("lp_ratio_p4", math.nan, math.nan, STATUS_FAILED),
    ("linf_ratio", math.inf, math.inf, STATUS_FAILED),
    ("linf_ratio", 5e-324, None, STATUS_OK),
    ("linf_ratio", 0.0, math.nan, STATUS_FAILED),
    ("max_normalized", 0.0, math.nan, STATUS_FAILED),
    ("l1_norm", math.inf, None, STATUS_OK),
    ("l1_norm", math.nan, None, STATUS_FAILED),
    ("l1_norm", -math.inf, None, STATUS_FAILED),
    ("density_sup", math.inf, None, STATUS_OK),
    ("density_sup", math.nan, None, STATUS_FAILED),
    ("b0_vanishing", math.nan, 1.0, STATUS_OK),
    ("b0_vanishing", math.nan, 0.0, STATUS_OK),
    ("b0_vanishing", math.nan, math.nan, STATUS_FAILED),
    ("b0_vanishing", 0.5, 1.0, STATUS_OK),
])
def test_row_derives_its_status(statistic, value, normalized, want):
    # ok iff the value is finite or is that statistic's answer, and the
    # normalized column is not NaN
    assert ReportRow(0.1, 0.3, statistic, value, normalized).status == want


@pytest.mark.parametrize("status", [STATUS_OK, STATUS_FAILED, "done"])
def test_row_takes_only_empty_thin(status):
    with pytest.raises(ValueError, match="derives its status"):
        ReportRow(0.1, 0.3, "linf_ratio", 1.0, 1.0, status)
    # empty-thin is the one status a producer names, whatever the value
    assert ReportRow(0.1, 0.3, "linf_ratio", math.nan, None,
                     STATUS_EMPTY).status == STATUS_EMPTY
