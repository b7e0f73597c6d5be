"""Report rendering: the row templates write the bytes of the stdlib
encoders they replace."""

import csv
import io
import json
import math

import numpy as np
import pytest

from collardiff.report import (CSV_SCHEMA, Report, ReportRow, STATUS_EMPTY,
                               STATUS_FAILED, _COLUMNS, _jsonable)


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
                                  math.nan, STATUS_FAILED)]),
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
