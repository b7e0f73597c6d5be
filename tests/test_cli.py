"""End-to-end CLI checks: exit codes, output contracts, determinism."""

import csv
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from types import SimpleNamespace

import click
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import collardiff
from collardiff.cli import _write, cli, main, parse_grid
from collardiff.errors import MODE_MAX, ValidationError
from collardiff.report import CSV_SCHEMA, STATUS_EMPTY


def invoke(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def csv_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == CSV_SCHEMA
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


@pytest.fixture
def coeffs_file(tmp_path):
    p = tmp_path / "coeffs.json"
    p.write_text(json.dumps([{"n": 1, "re": 1.0, "im": 0.0},
                             {"n": -2, "re": 0.0, "im": 0.5},
                             {"n": 0, "re": 0.25, "im": 0.0}]))
    return str(p)


@pytest.fixture
def space_file(tmp_path):
    basis = [
        [[{"n": 0, "re": 1.0, "im": 0.0}, {"n": 1, "re": 0.5, "im": 0.0}],
         [{"n": 1, "re": 0.3, "im": 0.0}]],
        [[{"n": 0, "re": 1.0, "im": 0.0}, {"n": -1, "re": 0.2, "im": 0.0}],
         [{"n": 2, "re": 1.0, "im": 0.0}]],
        [[{"n": 2, "re": 1.0, "im": 0.0}],
         [{"n": 0, "re": 0.4, "im": 0.0}, {"n": 1, "re": 0.1, "im": 0.0}]],
    ]
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"collars": [0.3, 0.8], "basis": basis}))
    return str(p)


def test_parse_grid_forms():
    assert parse_grid("lin:0:1:3") == (0.0, 0.5, 1.0)
    log = parse_grid("log:0.01:1:3")
    assert log == pytest.approx((0.01, 0.1, 1.0))
    assert parse_grid("0.3,0.5") == (0.3, 0.5)
    # non-finite endpoints, or a difference that overflows, are refused
    # before numpy sees (and warns on) them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ("log:0:1:5", "lin:0:1", "log:1:2:0", "a,b", "lin:x:1:3",
                    "log:1e-4:inf:3", "log:inf:inf:1", "lin:0.1:nan:3",
                    "lin:-1e308:1e308:3"):
            with pytest.raises(ValidationError):
                parse_grid(bad)


def test_topology_dim_prints_bare_integer(capsys, tmp_path):
    code, out, err = invoke(capsys, "topology", "dim", "2,0")
    assert (code, out) == (0, "3\n")
    surf = tmp_path / "surf.json"
    surf.write_text(json.dumps(
        {"components": [{"genus": 1, "punctures": 2}]}))
    code, out, _ = invoke(capsys, "topology", "dim", str(surf))
    assert (code, out) == (0, "2\n")
    # multi-component inline form
    code, out, _ = invoke(capsys, "topology", "dim", "1,1;0,4")
    assert (code, out) == (0, "2\n")
    code, out, err = invoke(capsys, "topology", "dim", "banana")
    assert code == 2 and "bad surface spec" in err
    # a malformed surface file is an input error (exit 2), not a crash
    surf.write_text(json.dumps({"components": 5}))
    code, out, err = invoke(capsys, "topology", "dim", str(surf))
    assert (code, out) == (2, "") and "must be a JSON array" in err


def test_main_caps_blas_threads_unless_set(capsys, monkeypatch):
    # monkeypatch restores all three variables after the test
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert invoke(capsys, "topology", "dim", "2,0")[:2] == (0, "3\n")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["MKL_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_topology_pinch_script(capsys, tmp_path):
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps([
        {"component": 0, "kind": "nonseparating"},
        {"component": 0, "kind": "separating", "split": [[0, 2], [1, 0]]},
    ]))
    code, out, _ = invoke(capsys, "topology", "pinch", "2,0",
                          "--moves", str(moves))
    assert code == 0
    rows = csv_rows(out)
    assert [(r["statistic"], r["value"]) for r in rows] == [
        ("initial_dimension", "3"), ("dim_after[0]", "2"), ("dim_after[1]", "1")]
    # invalid move: exit 2 and the offending index in the message
    moves.write_text(json.dumps([{"component": 4, "kind": "nonseparating"}]))
    code, _, err = invoke(capsys, "topology", "pinch", "2,0",
                          "--moves", str(moves))
    assert code == 2 and "move 0" in err
    # a split of non-integers is rejected, not truncated
    moves.write_text(json.dumps([{"component": 0, "kind": "separating",
                                  "split": [[1.5, 0], [1.5, 0]]}]))
    code, out, err = invoke(capsys, "topology", "pinch", "2,0",
                            "--moves", str(moves))
    assert (code, out) == (2, "") and "split entries must be integers" in err
    # a split on a nonseparating move is refused as PinchMove refuses it
    moves.write_text(json.dumps([{"component": 0, "kind": "nonseparating",
                                  "split": [[0, 1], [1, 0]]}]))
    code, out, err = invoke(capsys, "topology", "pinch", "2,1",
                            "--moves", str(moves))
    assert (code, out) == (2, "") and "nonseparating pinch takes no split" in err


def test_collar_info(capsys):
    code, out, _ = invoke(capsys, "collar", "info", "0.1",
                          "--delta", "0.2", "--delta", "0.05")
    assert code == 0
    rows = csv_rows(out)
    stats = {r["statistic"]: r for r in rows if r["status"] == "ok"}
    assert float(stats["half_length"]["value"]) == pytest.approx(
        95.555759536713342, rel=1e-13)
    assert float(stats["boundary_cos"]["value"]) == pytest.approx(
        math.tanh(0.05), rel=1e-12)
    tb = [r for r in rows if r["statistic"] == "thin_boundary"
          and r["delta"] == "0.20000000000000001"]
    assert float(tb[0]["value"]) == pytest.approx(82.92059034774223, rel=1e-13)
    # delta = 0.05 < ell/2's injectivity floor: empty thin part
    empties = [r for r in rows if r["status"] == "empty-thin"]
    assert empties and all(r["delta"] == "0.050000000000000003"
                           for r in empties)


def test_qd_norms_dual_route(capsys, coeffs_file):
    code, out, _ = invoke(capsys, "qd", "norms", "--coeffs", coeffs_file,
                          "--ell", "0.3", "--delta", "0.35")
    assert code == 0
    stats = {r["statistic"]: float(r["value"]) for r in csv_rows(out)}
    assert stats["l2_thin"] == pytest.approx(stats["l2_thin_quadrature"],
                                             rel=1e-9)
    assert stats["l2_thin"] <= stats["l2_full"] * (1 + 1e-12)
    assert stats["lp_thin_p1"] > 0 and stats["lp_thin_p4"] > 0
    assert stats["linf_thin"] > 0


def test_qd_norms_reads_its_mode_range_off_the_file(capsys, coeffs_file):
    # --n-max is decay-sweep's number of drawn modes; qd norms ignores it
    args = ("qd", "norms", "--coeffs", coeffs_file, "--ell", "0.5",
            "--delta", "0.4")
    code, out, err = invoke(capsys, *args)
    assert code == 0 and err == ""
    for n_max in ("1", "40"):
        assert invoke(capsys, "--n-max", n_max, *args) == (0, out, "")


def test_qd_norms_keeps_a_mode_whose_square_underflows(capsys, tmp_path):
    # |b_30|^2 ~ 5e-434 underflows; the n = 30 mode still carries about a
    # fifth of the full norm
    from reference import l2_norm as mp_l2_norm
    coeffs = {1: 5.994497079968183e-08, 30: 2.150713639784616e-217}
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"n": n, "re": b, "im": 0}
                             for n, b in coeffs.items()]))
    code, out, _ = invoke(capsys, "qd", "norms", "--coeffs", str(p),
                          "--ell", "0.5", "--delta", "0.4")
    assert code == 0
    full, = (float(r["value"]) for r in csv_rows(out)
             if r["statistic"] == "l2_full")
    assert full == pytest.approx(12.8763748996072, rel=1e-13, abs=0.0)
    x = collardiff.CollarParams(0.5).half_length
    assert full == pytest.approx(mp_l2_norm(0.5, coeffs, [(-x, x)]),
                                 rel=1e-13, abs=0.0)


def test_qd_norms_empty_thin(capsys, coeffs_file):
    code, out, _ = invoke(capsys, "qd", "norms", "--coeffs", coeffs_file,
                          "--ell", "1.0", "--delta", "0.3")
    assert code == 0
    rows = csv_rows(out)
    assert {r["status"] for r in rows if r["statistic"] != "l2_full"} \
        == {"empty-thin"}


@pytest.mark.parametrize("command", ["qd norms", "cusp classify"])
def test_quadrature_failure_exit_code(monkeypatch, capsys, tmp_path,
                                      coeffs_file, command):
    # demand an impossible tolerance of the command's quadrature: its
    # honest error estimate exceeds it and the error surfaces as exit 3
    from collardiff import cusps, laurent, numerics

    def strict(f, lo, hi, **kw):
        return numerics.adaptive_quad(f, lo, hi, **{
            **kw, "tol_abs": 1e-300, "tol_rel": 1e-300})

    for module in (laurent, cusps):
        monkeypatch.setattr(module, "adaptive_quad", strict)
    if command == "qd norms":
        args = ["qd", "norms", "--coeffs", coeffs_file, "--ell", "0.3",
                "--delta", "0.35"]
    else:
        # two modes, so l1_norm integrates instead of using the closed form
        germ = tmp_path / "germ.json"
        germ.write_text(json.dumps([{"k": -1, "re": 1.0, "im": 0.0},
                                    {"k": 1, "re": 0.5, "im": 0.25}]))
        args = ["cusp", "classify", str(germ)]
    code, out, err = invoke(capsys, *args)
    assert code == 3
    assert "numerical failure" in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
def test_quadrature_tolerances_are_not_options(capsys, coeffs_file, flag):
    code, out, err = invoke(capsys, flag, "1e-6", "qd", "norms", "--coeffs",
                            coeffs_file, "--ell", "0.5")
    assert code == 2 and out == "" and "No such option" in err
    assert "--tol" not in invoke(capsys, "--help")[1]


def test_usage_errors(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and out.startswith("Usage: collardiff")
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "topology", "dim")[0] == 2  # missing argument
    assert invoke(capsys, "--seed", "-1", "topology", "dim", "2,0")[0] == 2
    assert invoke(capsys, "--n-max", "0", "topology", "dim", "2,0")[0] == 2
    # global flags belong before the subcommand
    code, _, err = invoke(capsys, "topology", "--format", "json",
                          "dim", "2,0")
    assert code == 2
    code, _, err = invoke(capsys, "qd", "decay-sweep", "--ell-grid",
                          "log:0:1:4")
    assert code == 2 and "log grids need positive endpoints" in err


def test_out_file_and_json_format(capsys, tmp_path):
    out_path = tmp_path / "dim.txt"
    code, out, _ = invoke(capsys, "--out", str(out_path),
                          "topology", "dim", "2,0")
    assert code == 0 and out == ""
    assert out_path.read_text() == "3\n"
    rep_path = tmp_path / "info.json"
    code, _, _ = invoke(capsys, "--format", "json", "--out", str(rep_path),
                        "collar", "info", "0.5", "--delta", "0.4")
    assert code == 0
    payload = json.loads(rep_path.read_text())
    assert payload[0]["statistic"] == "half_length"
    assert isinstance(payload[0]["value"], float)


def test_failed_run_leaves_no_partial_output(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out_path = tmp_path / "result.csv"
    code, _, err = invoke(capsys, "--out", str(out_path),
                          "cusp", "classify", str(bad))
    assert code == 2 and "invalid JSON" in err
    assert not out_path.exists()


def test_out_replaces_target_atomically(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    out_path.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        _write(SimpleNamespace(out=str(out_path)), "half\ud800written\n")
    assert out_path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["report.csv"]  # no temp file left
    new_path = tmp_path / "new.txt"
    code, _, _ = invoke(capsys, "--out", str(new_path), "topology", "dim",
                        "2,0")
    assert code == 0 and new_path.read_text() == "3\n"
    assert sorted(os.listdir(tmp_path)) == ["new.txt", "report.csv"]
    # same permissions as a file created by a plain open()
    assert stat.S_IMODE(new_path.stat().st_mode) \
        == stat.S_IMODE(out_path.stat().st_mode)


def _run_child(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(collardiff.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_without(modules, commands) -> subprocess.CompletedProcess:
    """Run CLI commands in one fresh interpreter where importing any of
    MODULES fails and a RuntimeWarning is an error; each prints its report
    and then its exit code."""
    return _run_child("import sys, warnings\n"
                      "warnings.simplefilter('error', RuntimeWarning)\n"
                      f"for name in {modules!r}:\n"
                      "    sys.modules[name] = None\n"
                      "import collardiff.cli\n"
                      f"for argv in {commands!r}:\n"
                      "    rc = collardiff.cli.main(argv)\n"
                      "    print('exit', rc)\n")


# the input files and commands of the "Every subcommand" step in CI's
# bare-install job, and a wider decay-sweep grid
_SMOKE_FILES = {
    "coeffs.json": [{"n": 1, "re": 1.0, "im": 0.0},
                    {"n": -2, "re": 0.0, "im": 0.5}],
    "germ.json": [{"k": -1, "re": 1.0, "im": 0.0},
                  {"k": 1, "re": 0.5, "im": 0.25}],
    "moves.json": [{"component": 0, "kind": "nonseparating"}],
    "space.json": {"collars": [0.3, 0.8], "basis": [
        [[{"n": 0, "re": 1.0, "im": 0.0}], [{"n": 1, "re": 0.3, "im": 0.0}]],
        [[{"n": 2, "re": 1.0, "im": 0.0}], [{"n": 0, "re": 0.4, "im": 0.0}]],
        [[{"n": -1, "re": 0.5, "im": 0.5}],
         [{"n": 1, "re": 1.0, "im": 0.0}]]]},
    "target.json": [[{"n": -1, "re": 1.0, "im": 0.0},
                     {"n": 0, "re": 0.2, "im": 0.0}],
                    [{"n": 1, "re": 0.5, "im": 0.0}]],
}
_SMOKE_COMMANDS = [
    ["collar", "info", "0.3", "--delta", "0.2", "--delta", "0.4"],
    ["topology", "dim", "2,1"],
    ["topology", "pinch", "2,1", "--moves", "moves.json"],
    ["qd", "norms", "--coeffs", "coeffs.json", "--ell", "0.5", "--delta",
     "0.4"],
    ["qd", "principal-mass", "--ell-grid", "log:1e-4:1:5", "--delta-grid",
     "lin:0.1:0.6:3"],
    ["qd", "bij-check", "--b0", "pow:2", "--ell-grid", "log:1e-4:1:5"],
    ["qd", "decay-sweep", "--ell-grid", "1e-3,0.1", "--delta-grid", "0.3",
     "--trials", "4"],
    ["qd", "decay-sweep", "--ell-grid", "log:1e-4:1:9", "--delta-grid",
     "lin:0.05:0.8:4", "--trials", "4"],
    ["space", "project", "space.json", "target.json"],
    ["space", "w-report", "space.json", "--delta", "0.2", "--samples", "4"],
    ["cusp", "classify", "germ.json"],
]


def test_no_command_needs_scipy(tmp_path, coeffs_file):
    # scipy is a test-only dependency: with every scipy import failing,
    # every subcommand still runs.  On these sane inputs none raises a
    # RuntimeWarning (the thin-sup bounds divide underflowed amplitudes
    # silently), and none imports numpy.ma (np.unique's first call would)
    for name, data in _SMOKE_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    commands = [[str(tmp_path / a) if a in _SMOKE_FILES else a for a in argv]
                for argv in _SMOKE_COMMANDS]
    commands += [["collar", "info", "0.5"],
                 ["qd", "norms", "--coeffs", coeffs_file, "--ell", "0.3",
                  "--delta", "0.35"]]
    proc = _run_without(("scipy", "numpy.ma"), commands)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("exit 0\n") == len(commands), \
        proc.stdout + proc.stderr
    for stat_name in ("half_length", "l2_thin_quadrature", "l1_norm"):
        assert stat_name in proc.stdout


def test_topology_commands_run_without_numpy(tmp_path):
    # dimension counts are integer bookkeeping: with every numpy import
    # failing, both topology commands still run
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps([{"component": 0, "kind": "nonseparating"}]))
    commands = [["topology", "dim", "2,1"],
                ["topology", "pinch", "2,1", "--moves", str(moves)]]
    proc = _run_without(("numpy",), commands)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("exit 0\n") == 2, proc.stdout + proc.stderr
    assert proc.stdout.startswith("4\nexit 0\n")
    assert "dim_after[0],3," in proc.stdout


# what importing collardiff.cli loads, whatever the command
_BASE = {"collardiff.cli", "collardiff.defaults", "collardiff.errors",
         "collardiff.report"}


@pytest.mark.parametrize("group, loads", [
    (None, set()),
    ("topology", {"topology"}),
    ("collar", {"collar"}),
    ("qd", {"collar", "numerics", "laurent", "sweeps"}),
    ("space", {"collar", "numerics", "laurent", "spaces"}),
    ("cusp", {"collar", "numerics", "cusps"}),
])
def test_commands_import_only_what_they_run(tmp_path, coeffs_file,
                                            space_file, group, loads):
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps([{"component": 0, "kind": "nonseparating"}]))
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps([{"k": -1, "re": 1.0, "im": 0.0}]))
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        [[{"n": 1, "re": 1.0, "im": 0.0}], [{"n": 0, "re": 0.2, "im": 0.0}]]))
    grid = ["--ell-grid", "1e-3,0.1", "--delta-grid", "lin:0.2:0.4:2"]
    commands = {
        None: [],
        "topology": [["topology", "dim", "2,1"],
                     ["topology", "pinch", "2,1", "--moves", str(moves)]],
        "collar": [["collar", "info", "0.3", "--delta", "0.2"]],
        "qd": [["qd", "norms", "--coeffs", coeffs_file, "--ell", "0.5"],
               ["qd", "decay-sweep", *grid, "--trials", "2"],
               ["qd", "principal-mass", *grid],
               ["qd", "bij-check", "--ell-grid", "1e-3,0.1", "--b0", "pow:2"]],
        "space": [["space", "project", space_file, str(target)],
                  ["space", "w-report", space_file, "--delta", "0.3",
                   "--samples", "2"]],
        "cusp": [["cusp", "classify", str(germ)]],
    }[group]
    proc = _run_child(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import collardiff.cli\n"
        f"rcs = [collardiff.cli.main(argv) for argv in {commands!r}]\n"
        "new = sorted(set(sys.modules) - before)\n"
        "print(json.dumps({'rcs': rcs, 'new': new}))\n")
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["rcs"] == [0] * len(commands)
    new = set(rec["new"])
    assert {m for m in new if m.startswith("collardiff.")} \
        == _BASE | {f"collardiff.{m}" for m in loads}
    # numpy only for the commands that compute with it; no sweep command
    # here starts a pool or builds the finite-p quadrature rule
    assert ("numpy" in new) == bool(loads - {"topology"})
    assert "concurrent.futures" not in new
    assert "numpy.polynomial" not in new


@pytest.mark.parametrize("argv", [
    ["qd", "norms", "--coeffs", "COEFFS", "--ell", "0.5", "--delta", "0.4"],
    ["qd", "decay-sweep", "--ell-grid", "1e-3,0.1", "--delta-grid", "0.3",
     "--trials", "2"],
    ["space", "w-report", "SPACE", "--delta", "0.3", "--samples", "2"],
])
def test_thin_sup_commands_do_not_load_numpy_ma(coeffs_file, space_file,
                                                argv):
    # the thin-sup s-grids are deduplicated without np.unique, whose first
    # call imports numpy.ma; each command runs in its own interpreter
    argv = [{"COEFFS": coeffs_file, "SPACE": space_file}.get(a, a)
            for a in argv]
    proc = _run_child("import sys\n"
                      "import collardiff.cli\n"
                      f"rc = collardiff.cli.main({argv!r})\n"
                      "print('exit', rc, 'numpy.ma' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("exit 0 False\n"), proc.stdout + proc.stderr


@pytest.mark.parametrize("args", [
    ["qd", "decay-sweep", "--workers", "0"],
    ["qd", "decay-sweep", "--workers", "-3"],
    ["qd", "decay-sweep", "--workers", "-1"],
    ["space", "w-report", "SPACE", "--delta", "0.3", "--samples", "-2"],
    ["space", "w-report", "SPACE", "--delta", "0.3", "--samples", "-1"],
])
def test_out_of_range_counts_are_usage_errors(capsys, tmp_path, space_file,
                                              args):
    out_path = tmp_path / "never.csv"
    args = [space_file if a == "SPACE" else a for a in args]
    code, out, err = invoke(capsys, "--out", str(out_path), *args,
                            *(["--ell-grid", "0.1", "--delta-grid", "0.3"]
                              if args[0] == "qd" else []))
    assert code == 2 and out == ""
    assert "is not in the range" in err and args[-2] in err
    assert not out_path.exists()


def test_cusp_classify_pole(capsys, tmp_path):
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps([{"k": -2, "re": 1.0, "im": 0.0}]))
    code, out, _ = invoke(capsys, "cusp", "classify", str(germ))
    assert code == 0
    stats = {r["statistic"]: r["value"] for r in csv_rows(out)}
    assert stats["pole_order"] == "2"
    assert stats["integrable"] == "0"
    assert stats["bounded"] == "0"
    assert stats["simple_pole_or_better"] == "0"
    assert stats["l1_norm"] == "inf"
    assert stats["density_sup"] == "inf"
    # an infinite L^1 norm or density sup is the answer, so its row is ok
    assert {",,l1_norm,inf,,ok", ",,density_sup,inf,,ok"} \
        <= set(out.splitlines())


def test_cusp_classify_simple_pole_json(capsys, tmp_path):
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps([{"k": -1, "re": 1.0, "im": 0.0}]))
    code, out, _ = invoke(capsys, "--format", "json",
                          "cusp", "classify", str(germ))
    assert code == 0
    stats = {row["statistic"]: row["value"] for row in json.loads(out)}
    assert stats["integrable"] == 1.0
    assert stats["l1_norm"] == pytest.approx(0.54304211260118677, rel=1e-12)
    # zero germ: pole order reported as 0 by convention
    germ.write_text("[]")
    code, out, _ = invoke(capsys, "cusp", "classify", str(germ))
    stats = {r["statistic"]: r["value"] for r in csv_rows(out)}
    assert code == 0 and stats["pole_order"] == "0"


@pytest.mark.parametrize("key, args", [
    ("n", ["qd", "norms", "--ell", "1.0", "--delta", "0.4", "--coeffs"]),
    ("k", ["cusp", "classify"])])
def test_mode_index_bound(capsys, tmp_path, key, args):
    # at the bound a file is read (the empty thin part and the one-mode
    # germ keep the run small); one past it, or 10**30, is an input error
    # that names its entry
    path = tmp_path / "modes.json"
    for mode, code in [(MODE_MAX, 0), (MODE_MAX + 1, 2), (10 ** 30, 2)]:
        path.write_text(json.dumps([{key: mode, "re": 1.0, "im": 0.0}]))
        got, out, err = invoke(capsys, *args, str(path))
        assert got == code
        if code == 2:
            assert out == ""
            assert f"entry 0: mode index beyond +-{MODE_MAX}" in err
    assert invoke(capsys, "--n-max", str(MODE_MAX + 1), "topology", "dim",
                  "2,0")[0] == 2


@pytest.mark.parametrize("text", ["[" * 100_000, "[" + "1" * 5000 + "]"],
                         ids=["deep", "huge-integer"])
def test_unparsable_json_names_the_file(capsys, tmp_path, text):
    path = tmp_path / "germ.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "cusp", "classify", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}" in err


def test_cusp_classify_radius_below_the_floor_is_an_input_error(capfd,
                                                                tmp_path):
    # the check comes before any numerics: below 2^-91 the ladder's last
    # rungs would hand LAPACK inf abscissae, and LAPACK writes its
    # complaints to file descriptor 1, which capfd sees
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps([{"k": 0, "re": 1.0, "im": 0.0}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["cusp", "classify", str(germ), "--radius", "1e-300"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert "radius must lie in [2^-91, 1)" in err


@pytest.mark.parametrize("argv, text, message", [
    (["cusp", "classify", "FILE"], '[{"k": -1, "re": 1.0}]',
     "entry 0 needs keys k/re/im"),
    (["qd", "norms", "--coeffs", "FILE", "--ell", "0.5", "--delta", "0.4"],
     '[{"n": 1, "re": "2.5", "im": 0}]', "'2.5' is not a number"),
    (["cusp", "classify", "FILE"], '[{"k": -1, "re": 1%s, "im": 0}]' % (
        "0" * 400), "an integer beyond the double range"),
    (["space", "w-report", "FILE", "--delta", "0.2"],
     '{"collars": [true], "basis": []}', "collar 0: True is not a number"),
], ids=["germ-without-im", "numeric-string", "401-digit-integer", "bool"])
def test_malformed_files_exit_2_with_nothing_on_stdout(capfd, tmp_path, argv,
                                                       text, message):
    # a missing key, a numeric string, a bool or an integer beyond the
    # double range is an input error: never a value read from it, nor an
    # OverflowError traceback (exit 1)
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([str(path) if a == "FILE" else a for a in argv])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("args", [
    ["qd", "principal-mass", "--delta0", "0.3"],
    ["qd", "principal-mass", "--workers", "2"],
    ["qd", "bij-check", "--b0", "pow:2", "--delta-grid", "0.3"],
])
def test_options_a_sweep_does_not_read_are_usage_errors(capsys, args):
    # principal-mass reads the ell and delta grids, bij-check the ell grid
    # and delta0; an option the command never reads is not accepted
    code, out, err = invoke(capsys, *args, "--ell-grid", "0.1")
    assert code == 2 and out == ""
    assert "No such option" in err and args[-2] in err


@pytest.mark.parametrize("value", [[1], None, {"a": 1}, "x"])
def test_cusp_classify_non_numeric_coefficient_is_exit_2(capsys, tmp_path,
                                                         value):
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps([{"k": 1, "re": 0.5, "im": 0.0},
                                {"k": -1, "re": value, "im": 0.0}]))
    code, out, err = invoke(capsys, "cusp", "classify", str(germ))
    assert (code, out) == (2, "")
    assert "entry 1: bad coefficient" in err and "Traceback" not in err


def test_decay_sweep_workers_byte_identical(capsys, tmp_path):
    args = ["--n-max", "4", "qd", "decay-sweep",
            "--ell-grid", "0.4,0.7", "--delta-grid", "0.35,0.5",
            "--trials", "2"]
    f1, f8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(args[:2] + ["--out", str(f1)] + args[2:]
                + ["--workers", "1"]) == 0
    assert main(args[:2] + ["--out", str(f8)] + args[2:]
                + ["--workers", "8"]) == 0
    b1, b8 = f1.read_bytes(), f8.read_bytes()
    assert b1 == b8
    assert b1.startswith(CSV_SCHEMA.encode())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, present, absent", [
    # X - X_delta0 is ~4.5 at ell 1e-16, not an input error, but every
    # thick weight underflows to 0, and at ell 1e-200 (2 pi / ell)^2
    # overflows as well: the trials are NaN before any division
    (["--n-max", "2", "qd", "decay-sweep", "--ell-grid", "1e-16",
      "--delta-grid", "0.3", "--trials", "1"],
     "linf_ratio,nan,nan,non-converged$", None),
    (["--n-max", "2", "qd", "decay-sweep", "--ell-grid", "1e-200",
      "--delta-grid", "0.3", "--trials", "1"],
     "linf_ratio,nan,nan,non-converged$", None),
    # at delta 0.001 the sup underflows to 0 and 0 * e^{pi/delta} is NaN
    (["qd", "decay-sweep", "--ell-grid", "1e-4", "--delta-grid", "0.001",
      "--trials", "2"], None, ",nan,ok$"),
    # below delta ~ 0.00435 delta^2 e^{pi/delta} alone overflows, while its
    # product with a trial's sup (~1e-312 here) is ~20
    (["qd", "decay-sweep", "--ell-grid", "1e-4", "--delta-grid", "0.0043",
      "--trials", "3"], ",max_normalized,.*,ok$", ",inf,ok$"),
], ids=["ell-1e-16", "ell-1e-200", "delta-0.001", "delta-0.0043"])
def test_decay_sweep_rows_past_the_double_range(capsys, argv, present,
                                                absent):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    if present:
        assert re.search(present, out, re.M), out
    if absent:
        assert not re.search(absent, out, re.M), out


@pytest.mark.parametrize("ell", ["1e-307", "6e-308"])
@pytest.mark.parametrize("argv, code, message", [
    (["qd", "norms", "--coeffs", "COEFFS", "--ell", "ELL"], 3,
     "numerical failure"),
    (["qd", "principal-mass", "--ell-grid", "ELL", "--delta-grid", "0.3"],
     0, ""),
    (["qd", "bij-check", "--ell-grid", "ELL", "--b0", "pow:1"], 0, ""),
    (["--n-max", "2", "qd", "decay-sweep", "--ell-grid", "ELL",
      "--delta-grid", "0.3", "--trials", "2"], 0, ""),
    (["space", "project", "SPACE", "TARGET"], 2, "non-finite L2 norm"),
    (["space", "w-report", "SPACE", "--delta", "0.3", "--samples", "2"], 2,
     "non-finite L2 norm"),
], ids=["norms", "principal-mass", "bij-check", "decay-sweep", "project",
        "w-report"])
def test_collars_past_half_dbl_max(capsys, tmp_path, coeffs_file, ell, argv,
                                   code, message):
    # X > DBL_MAX/2: the window kernel's full width 2X overflows, and no
    # command may report that as bad input
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"collars": [float(ell), 0.8], "basis": [
        [[{"n": 0, "re": 1.0, "im": 0.0}, {"n": 1, "re": 0.5, "im": 0.0}],
         [{"n": 1, "re": 0.3, "im": 0.0}]],
        [[{"n": 0, "re": 1.0, "im": 0.0}, {"n": -1, "re": 0.2, "im": 0.0}],
         [{"n": 2, "re": 1.0, "im": 0.0}]]]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps([[{"n": 0, "re": 1.0, "im": 0.0}],
                                  [{"n": 1, "re": 1.0, "im": 0.0}]]))
    files = {"ELL": ell, "COEFFS": coeffs_file, "SPACE": str(space),
             "TARGET": str(target)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got, out, err = invoke(capsys, *[files.get(a, a) for a in argv])
    assert got == code and "math domain error" not in err
    assert message in err
    assert (out != "") == (code == 0)


def test_bij_check_cli(capsys):
    code, out, _ = invoke(capsys, "qd", "bij-check", "--ell-grid",
                          "log:1e-4:0.1:6", "--b0", "pow:2")
    assert code == 0
    rows = csv_rows(out)
    verdict = [r for r in rows if r["statistic"] == "b0_vanishing"]
    assert len(verdict) == 1 and verdict[0]["normalized"] == "1"
    # explicit list with mismatched length
    code, _, err = invoke(capsys, "qd", "bij-check", "--ell-grid", "0.1,0.2",
                          "--b0", "1.0")
    assert code == 2 and "does not match" in err


def test_bij_check_delta0_is_a_thin_threshold(capsys):
    # bij-check has no thick part, so only the thin range (0, DELTA_MAX)
    # bounds --delta0, not the decay sweep's thick-gap constraint
    code, out, err = invoke(capsys, "qd", "bij-check", "--b0", "pow:2",
                            "--delta0", "0.8", "--ell-grid", "0.01,0.1")
    assert (code, err) == (0, "")
    rows = [r for r in csv_rows(out) if r["statistic"] == "b0_thin_norm"]
    assert [float(r["delta"]) for r in rows] == [0.8, 0.8]
    assert float(rows[0]["value"]) == pytest.approx(9.8957714057340826,
                                                    rel=1e-12)
    code, out, err = invoke(capsys, "qd", "bij-check", "--b0", "pow:2",
                            "--delta0", "0.9", "--ell-grid", "0.01,0.1")
    assert (code, out) == (2, "")
    assert "thin-part threshold must lie in (0, 0.88137358702), got 0.9" \
        in err


def test_bij_check_checks_the_grid_before_pow(capsys):
    # pow:-1 on an unchecked ell = 0 would raise ZeroDivisionError
    code, out, err = invoke(capsys, "qd", "bij-check", "--b0", "pow:-1",
                            "--ell-grid", "0,0.1")
    assert (code, out) == (2, "")
    assert "core lengths must lie in" in err and "Traceback" not in err


def test_bij_check_overflowing_pow_is_a_usage_error(capsys):
    # 0.01 ** -1000 raises OverflowError, which must not reach the user
    code, out, err = invoke(capsys, "qd", "bij-check", "--b0", "pow:-1000",
                            "--ell-grid", "0.01,0.1")
    assert (code, out) == (2, "")
    assert "the b0 sequence ell^K overflows" in err and "Traceback" not in err


def test_bij_check_nan_b0_is_non_converged(capsys):
    code, out, err = invoke(capsys, "qd", "bij-check", "--b0", "pow:nan",
                            "--ell-grid", "0.01,0.1")
    assert (code, err) == (0, "")
    assert [(r["statistic"], r["value"], r["status"])
            for r in csv_rows(out)] \
        == [("b0_thin_norm", "nan", "non-converged")] * 2 \
        + [("b0_vanishing", "nan", "non-converged")]


@pytest.mark.parametrize("args", [
    ["qd", "principal-mass", "--ell-grid", "0.01,0.1", "--delta-grid", "0.3"],
    ["qd", "bij-check", "--ell-grid", "0.01,0.1", "--b0", "pow:2"],
])
def test_closed_form_sweeps_read_neither_seed_nor_n_max(capsys, args):
    code, out, err = invoke(capsys, *args)
    assert (code, err) == (0, "")
    assert invoke(capsys, "--n-max", "4", "--seed", "9", *args) \
        == (0, out, "")


def test_principal_mass_cli(capsys):
    code, out, _ = invoke(capsys, "qd", "principal-mass",
                          "--ell-grid", "0.001,0.1", "--delta-grid", "0.2,0.4")
    assert code == 0
    rows = csv_rows(out)
    hit = [r for r in rows if r["statistic"] == "principal_thin_mass"
           and r["ell"] == "0.001" and r["delta"].startswith("0.4")]
    assert float(hit[0]["value"]) == pytest.approx(9792.6299056325103,
                                                   rel=1e-12)


def test_space_project_cli(capsys, tmp_path, space_file):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        [[{"n": 1, "re": 1.0, "im": 0.0}], [{"n": 0, "re": 0.2, "im": 0.0}]]))
    code, out, _ = invoke(capsys, "space", "project", space_file, str(target))
    assert code == 0
    stats = {r["statistic"]: float(r["value"]) for r in csv_rows(out)}
    assert stats["space_dimension"] == 3.0
    assert stats["w_dimension"] == 1.0
    # orthogonality: Pythagoras between projection and residual
    assert stats["projection_norm"] ** 2 + stats["residual_norm"] ** 2 \
        == pytest.approx(stats["target_norm"] ** 2, rel=1e-9)


# perfbench's cli seed 5 space and target: collars 0.251372 and 0.743345,
# where the n = +-2 modes have full-collar L^2 norms near 1e32
_SEED5_COLLARS = [0.251372, 0.743345]
_SEED5_BASIS = [
    [[(-2, 0.20746382676533098, -0.41075584285141925), (-1, -0.128365063182747, -0.49037367802200627), (0, -0.17315522486203205, -1.2894187467538587), (1, 0.0103451970187956, -0.018942870522034114), (2, -0.07608443773962224, -0.26198162628006155)],
     [(-2, -0.09904758261827318, -0.27283222542392727), (-1, -0.6776043731023698, 0.11239286622994657), (0, -1.109349937891366, 1.1702961011782933), (1, 0.35829382793691805, -0.9989083462248606), (2, 0.068032217353122, -0.2754291568952612)]],
    [[(-2, 0.008264305039567299, 0.010907998142355402), (-1, -0.9942148941155604, -0.11671126188288501), (0, -0.255790031399391, 0.9620005318430944), (1, -0.5907234039781079, 0.36902094892284204), (2, -0.2747431907591016, -0.08282272317497918)],
     [(-2, -0.21011829210555277, 0.362182822230418), (-1, 0.28410654989414663, 1.2158662514226062), (0, 0.6419163790823205, 0.8449927337191754), (1, 0.42034143813267005, -0.3033057679547758), (2, -0.01750711165959552, 0.3375972169361565)]],
    [[(-2, -0.0991376912932429, 0.047199882822774666), (-1, -0.010611730208644898, 0.30460824641637035), (0, -0.3649087419473726, -0.15236188875684828), (1, 0.12119071433607521, 0.051511569243403846), (2, -0.21624318657045502, 0.22394576079736095)],
     [(-2, -0.324620302061728, -0.30027888720088164), (-1, -0.641245897370231, 0.4834861394666074), (0, -0.36060836889927, -0.9710363785210655), (1, -0.5680106970948233, 0.21056556873120308), (2, -0.26371016564445876, -0.31801955252441055)]],
    [[(-2, 0.15349826561721522, -0.29917693179814264), (-1, -0.16121907537569863, -0.0033807701732608926), (0, -0.4453353669298123, -0.05409396159544828), (1, 0.6693867495273857, -0.2584470762946375), (2, -0.3148267897195569, -0.4591864262984199)],
     [(-2, -0.051191529208466764, -0.08806425260280762), (-1, 0.13254545346516175, -0.2321222958187408), (0, -0.4786384630527245, -0.7213157478486046), (1, -0.2598798861850894, 0.08011335315871215), (2, -0.0950881818037847, 0.025110463208126627)]],
]
_SEED5_TARGET = [
    [(-2, 0.4752968000083142, 0.11977953769923587), (-1, -0.7880449227176131, 0.8667647928065534), (0, 0.34781036998853543, -0.9414132864509847), (1, 0.4535244788429051, 0.008827805454919485), (2, -0.15380463325876728, -0.1583772313584041)],
    [(-2, -0.24835794756296434, 0.012029745997459644), (-1, 0.5344083468747829, -0.16252604940318935), (0, 0.42082412505635486, 1.875646053775279), (1, -0.6072953164899249, 0.12876116196174586), (2, -0.07660923171296859, -0.26481402495696116)],
]


def _coeff_json(parts):
    return [[{"n": n, "re": re, "im": im} for n, re, im in part]
            for part in parts]


@pytest.mark.parametrize("modes, noise", [(range(-2, 3), True),
                                          (range(-1, 2), False)])
def test_space_project_residual_names_its_rounding_floor(capsys, tmp_path,
                                                         modes, noise):
    # On the seed 5 target (n = -2..2) the target and the projection are
    # ~1.1e32 and agree to ~1e-15, so residual_norm (~1.4e17) is rounding
    # of their difference, at or below the floor in its normalized column.
    # Without the n = +-2 modes the target (its principal parts and n =
    # +-1 modes, ~8e16) lies almost wholly outside the 2-dimensional W,
    # and the residual is the target's size, far above the floor.
    space, target = tmp_path / "space.json", tmp_path / "target.json"
    space.write_text(json.dumps({"collars": _SEED5_COLLARS,
                                 "basis": [_coeff_json(e)
                                           for e in _SEED5_BASIS]}))
    target.write_text(json.dumps(_coeff_json(
        [[m for m in part if m[0] in modes] for part in _SEED5_TARGET])))
    code, out, err = invoke(capsys, "space", "project", str(space),
                            str(target))
    assert (code, err) == (0, "")
    row = {r["statistic"]: r for r in csv_rows(out)}["residual_norm"]
    value, floor = float(row["value"]), float(row["normalized"])
    assert row["status"] == "ok"
    if noise:
        assert 0.0 < value <= floor, (value, floor)
    else:
        assert value > 1e6 * floor, (value, floor)


def test_space_w_report_cli(capsys, space_file):
    code, out, _ = invoke(capsys, "--seed", "5", "space", "w-report",
                          space_file, "--delta", "0.2", "--delta", "0.5",
                          "--samples", "4")
    assert code == 0
    rows = csv_rows(out)
    assert [r["statistic"] for r in rows] == ["w_linf_ratio_max"] * 2
    assert all(r["ell"] == "" for r in rows)  # no single collar applies
    assert float(rows[0]["value"]) > 0.0


def test_space_w_report_names_an_element_whose_norm_overflows(capsys,
                                                               tmp_path):
    # ||e^{6w} dw^2|| overflows at ell 0.05; the element cannot be
    # normalized, which is an input error, not a rank deficiency
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"collars": [0.05], "basis": [
        [[{"n": 6, "re": 1, "im": 0}]], [[{"n": 1, "re": 1, "im": 0}]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = invoke(capsys, "space", "w-report", str(p),
                                "--delta", "0.2")
    assert (code, out) == (2, "")
    assert "W element 0 has a non-finite L2 norm inf" in err


def test_main_keeps_a_commands_exit_code():
    @cli.command("exit-three")
    @click.pass_context
    def exit_three(ctx):
        ctx.exit(3)

    try:
        assert main(["exit-three"]) == 3
    finally:
        del cli.commands["exit-three"]


# --- the exit-code and row-status contract, fuzzed -----------------------------

# float arguments as the shell passes them: each draw is in-domain or odd
# (extreme, non-finite or garbage) about half the time
_SANE_ARGS = ("1e-4", "0.001", "0.01", "0.1", "0.3", "0.5", "0.79")
_ODD_ARGS = ("1e-300", "5e-324", "1e-200", "1e308", "nan", "inf", "-inf",
             "0", "-0.0", "-1", "1.7", "2.5", "x", "")
# numbers inside JSON files (json writes NaN/Infinity and reads them back)
_JSON_FLOATS = (0.0, -1.5, 0.5, 1.0, 1e-300, 5e-324, 1e200, 1e308,
                math.nan, math.inf, -math.inf)

_float_arg = st.one_of(st.sampled_from(_SANE_ARGS),
                       st.sampled_from(_ODD_ARGS))
# every size is bounded: never a large --n-max, --trials or grid
_grid = st.one_of(
    st.lists(st.sampled_from(_SANE_ARGS), min_size=1, max_size=3,
             unique=True).map(lambda xs: ",".join(sorted(xs, key=float))),
    st.lists(_float_arg, max_size=3).map(",".join),
    st.tuples(st.sampled_from(("log", "lin")), _float_arg, _float_arg,
              st.sampled_from(("-1", "0", "1", "3", "x"))).map(":".join))
_count = st.sampled_from(("1", "2", "4", "-1", "0", "x"))
_bad_json = st.sampled_from((
    "{", "", "null", "5", '"x"', "{}", "[1]", "[null]", '[{"a": 1}]', "[[]]",
    '{"x": []}', '[{"n": 1.5, "re": 1, "im": 0}]',
    '[{"k": true, "re": 1, "im": 0}]', '[{"n": 1, "re": [1], "im": 0}]',
    '[{"k": -1, "re": "x", "im": 0}]', '[{"component": "0", "kind": "x"}]',
    '{"collars": [0.3], "basis": [[[{"n": 0, "re": 1, "im": 0}], []]]}'))


def _json(strategy):
    """File text: JSON of the strategy's values, or a malformed file."""
    return st.one_of(strategy.map(json.dumps), _bad_json)


_json_num = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(_JSON_FLOATS))
_coeffs = st.lists(st.fixed_dictionaries(
    {"n": st.integers(-8, 8), "re": _json_num, "im": _json_num}),
    max_size=3, unique_by=lambda c: c["n"])
_germ = st.lists(st.fixed_dictionaries(
    {"k": st.integers(-4, 4), "re": _json_num, "im": _json_num}),
    max_size=3, unique_by=lambda c: c["k"])
_collars = st.lists(st.sampled_from((0.3, 0.8, 0.05, 1e-4, 1e-300, 5e-324,
                                      2.0, math.nan)), min_size=1, max_size=2)
_space = _collars.flatmap(lambda cs: st.fixed_dictionaries({
    "collars": st.just(cs),
    "basis": st.lists(st.lists(_coeffs, min_size=len(cs),
                               max_size=len(cs)), max_size=3)}))
_target = st.lists(_coeffs, min_size=1, max_size=2)
_surface = st.one_of(
    st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), min_size=1,
             max_size=2).map(lambda cs: ";".join(f"{g},{k}" for g, k in cs)),
    st.sampled_from(("banana", "", "1", "1,2,3")))
_surface_file = _json(st.fixed_dictionaries({"components": st.lists(
    st.fixed_dictionaries({"genus": st.integers(-1, 3),
                           "punctures": st.one_of(st.integers(-1, 3),
                                                  st.just(1.5))}),
    max_size=2)}))
_moves = st.lists(st.fixed_dictionaries(
    {"component": st.integers(-1, 2),
     "kind": st.sampled_from(("nonseparating", "separating", "x")),
     "split": st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2),
                       max_size=2)}), max_size=2)


def _one(values):
    return values.map(lambda v: [v])


def _opt(name, values):
    """An optional ``name value`` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _cmd(*parts):
    """Concatenated argv pieces: strings stay, lists of strings splice."""
    return st.tuples(*[st.just([p]) if isinstance(p, str) else p
                       for p in parts]).map(lambda xs: sum(xs, []))


def _repeat(name, min_size=0):
    return st.lists(_float_arg, min_size=min_size, max_size=3).map(
        lambda ds: [a for d in ds for a in (name, d)])


_FILE = "FILE"   # a placeholder; the test writes the file and puts its path


def _file(text):
    return st.tuples(st.just(_FILE), text).map(list)


_COMMANDS = st.one_of(
    _cmd("collar", "info", _one(_float_arg), _repeat("--delta")),
    _cmd(_opt("--n-max", st.sampled_from(("1", "2", "8"))), "qd", "norms",
         "--coeffs", _file(_json(_coeffs)), "--ell", _one(_float_arg),
         _opt("--delta", _float_arg)),
    _cmd(_opt("--n-max", st.sampled_from(("1", "8"))),
         _opt("--seed", st.sampled_from(("0", "7", str(2 ** 64 - 1), "-1",
                                         str(2 ** 64)))),
         "qd", "decay-sweep", "--ell-grid", _one(_grid), "--delta-grid",
         _one(_grid), _opt("--delta0", _float_arg), "--trials", _one(_count),
         _opt("--workers", st.sampled_from(("0", "1", "2")))),
    _cmd("qd", "principal-mass", "--ell-grid", _one(_grid), "--delta-grid",
         _one(_grid)),
    _cmd("qd", "bij-check", "--ell-grid", _one(_grid),
         _opt("--delta0", _float_arg), "--b0", _one(st.one_of(
             st.sampled_from(("1e308", "-1e308", "1e20", "-1e20", "-1000",
                              "400", "nan", "inf", "-inf", "0", "1.5", "x"))
             .map(lambda k: "pow:" + k),
             st.lists(st.sampled_from(("1", "0", "1e308", "nan", "inf",
                                       "1+2j", "x")), max_size=3)
             .map(",".join)))),
    _cmd("space", "project", _file(_json(_space)), _file(_json(_target))),
    _cmd(_opt("--seed", st.sampled_from(("0", "3"))), "space", "w-report",
         _file(_json(_space)), _repeat("--delta", 1), "--samples",
         _one(_count)),
    _cmd("topology", "dim", st.one_of(_one(_surface), _file(_surface_file))),
    _cmd("topology", "pinch", _one(_surface), "--moves",
         _file(_json(_moves))),
    _cmd("cusp", "classify", _file(_json(_germ)),
         _opt("--radius", _float_arg)),
)


def _by_rule(statistic, value, normalized):
    """The row-status rule: ok iff the value is finite or its statistic's
    answer (an inf L^1 norm or density sup, a b0_vanishing row with a
    finite verdict), and the normalized column is not NaN."""
    answer = {"l1_norm": value == math.inf, "density_sup": value == math.inf,
              "b0_vanishing": normalized is not None
              and math.isfinite(normalized)}.get(statistic, False)
    ok = (math.isfinite(value) or answer) \
        and not (normalized is not None and math.isnan(normalized))
    return "ok" if ok else "non-converged"


def _emitted_rows(text, fmt):
    """(statistic, value, normalized, status) of each emitted row."""
    num = lambda x: None if x in (None, "") else float(x)  # noqa: E731
    if fmt == "json":
        return [(r["statistic"], num(r["value"]), num(r["normalized"]),
                 r["status"]) for r in json.loads(text)]
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA
    return [(r["statistic"], num(r["value"]), num(r["normalized"]),
             r["status"]) for r in csv.DictReader(lines[1:])]


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=_COMMANDS, fmt=st.sampled_from(("csv", "json")),
       to_file=st.booleans())
@example(argv=["qd", "bij-check", "--b0", "pow:0", "--ell-grid",
               "1e-300,0.1"], fmt="csv", to_file=True)
@example(argv=["qd", "bij-check", "--b0", "pow:0", "--ell-grid",
               "1e-200,0.1"], fmt="csv", to_file=False)
@example(argv=["qd", "principal-mass", "--ell-grid", "1e-200,0.1",
               "--delta-grid", "0.3"], fmt="json", to_file=False)
@example(argv=["qd", "norms", "--coeffs", _FILE,
               '[{"n": 1, "re": 1.0, "im": 0.0}]', "--ell", "1e-300"],
         fmt="csv", to_file=True)
@example(argv=["qd", "norms", "--coeffs", _FILE,
               '[{"n": 1, "re": 1.0, "im": 0.0}, {"n": -2, "re": 0.0, '
               '"im": 0.5}]', "--ell", "1e-300"], fmt="csv", to_file=False)
@example(argv=["collar", "info", "5e-324"], fmt="csv", to_file=True)
@example(argv=["qd", "bij-check", "--ell-grid", "1e-300", "--delta0",
               "1e-300", "--b0", "nan"], fmt="csv", to_file=False)
@example(argv=["qd", "decay-sweep", "--ell-grid", "1e-4", "--delta-grid",
               "0.001", "--delta0", "5e-324", "--trials", "1"], fmt="csv",
         to_file=False)
@example(argv=["cusp", "classify", _FILE, '[{"k": -2, "re": 1, "im": 0}]'],
         fmt="json", to_file=False)
def test_cli_contract_fuzz(capsys, tmp_path, argv, fmt, to_file):
    # each command holds the exit-code contract (0, 2 usage or input, 3
    # numerical; never an escaping exception), leaves --out untouched when
    # it fails, and every row it emits carries the status the rule derives
    argv, files = list(argv), 0
    while _FILE in argv:
        i = argv.index(_FILE)
        path = tmp_path / f"input{files}.json"
        path.write_text(argv.pop(i + 1))
        argv[i], files = str(path), files + 1
    out_path = tmp_path / "out.txt"
    out_path.write_text("untouched\n")
    head = ["--format", fmt] + (["--out", str(out_path)] if to_file else [])
    code, out, err = invoke(capsys, *head, *argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    text = out_path.read_text() if to_file else out
    if code != 0:
        assert text == ("untouched\n" if to_file else "")
        return
    if argv[:2] == ["topology", "dim"]:
        assert text.strip().isdigit()
        return
    for statistic, value, normalized, status in _emitted_rows(text, fmt):
        assert status == STATUS_EMPTY \
            or status == _by_rule(statistic, value, normalized), \
            (statistic, value, normalized, status)
