"""Command-line surface: grids, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

from mbhalf import cli, equilibrium, specfun
from mbhalf.cli import (MAX_EQ_CELLS, MAX_GRID_POINTS, UsageError, main,
                        parse_grid)


def test_parse_grid_forms():
    assert parse_grid("2.5") == [mpf("2.5")]
    g = parse_grid("0:1:5")
    assert len(g) == 5
    assert g[0] == 0 and g[-1] == 1
    assert g[2] == mpf("0.5")
    for bad in ("1:2", "1:2:1", "1:2:x", "a:b:c:d"):
        with pytest.raises((UsageError, ValueError)):
            parse_grid(bad)


def test_kernel_single_value(capsys):
    rc = main(["kernel", "--alpha", "0", "--x-grid", "1", "--y-grid", "2",
               "--route", "integral"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x,y,value"
    x, y, v = out[1].split(",")
    assert float(v) == pytest.approx(0.15533228594863747, abs=1e-14)


def test_kernel_both_routes_grid(capsys):
    rc = main(["kernel", "--alpha", "0.3", "--x-grid", "0.5:1.5:2",
               "--y-grid", "0.5:1.5:2", "--route", "both"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,integral,meijer,rel_diff"
    assert len(lines) == 5
    for line in lines[1:]:
        x, y, vi, vm, rel = line.split(",")
        if x == y:
            assert rel == ""  # no independent second route on the diagonal
        else:
            assert float(rel) < 1e-8


def test_usage_errors(capsys):
    assert main(["kernel", "--alpha", "-1.5", "--x-grid", "1",
                 "--y-grid", "2"]) == 2
    assert "-1" in capsys.readouterr().err
    assert main(["kernel", "--alpha", "0", "--x-grid", "1:2",
                 "--y-grid", "2"]) == 2
    assert main(["kernel", "--alpha", "0", "--x-grid", "-1",
                 "--y-grid", "2"]) == 2
    assert main(["converge", "--alpha", "0", "--x", "1", "--y", "2",
                 "--ns", "4,2"]) == 2
    # values that are not real numbers are usage errors too, not tracebacks
    for argv in (["kernel", "--alpha", "x", "--x-grid", "1", "--y-grid", "2"],
                 ["kernel", "--alpha", "0", "--x-grid", "abc", "--y-grid", "2"],
                 ["meijer", "--z-grid", "1:abc:3"],
                 ["converge", "--alpha", "0", "--x", "abc", "--y", "1"]):
        assert main(argv) == 2, argv
        assert "usage error" in capsys.readouterr().err
    # so are non-finite values: they ended in tracebacks (exit 1), in a
    # series running out of terms or a failed solve (exit 3), or in a
    # value (exit 0)
    for argv in (["kernel", "--alpha", "inf", "--x-grid", "1", "--y-grid", "2"],
                 ["kernel", "--alpha", "0", "--x-grid", "inf", "--y-grid", "2"],
                 ["kernel", "--alpha", "0", "--x-grid", "1:inf:3", "--y-grid", "2"],
                 ["converge", "--alpha", "0", "--x", "inf", "--y", "1"],
                 ["converge", "--alpha", "inf", "--x", "1", "--y", "2"],
                 ["meijer", "--z-grid", "inf"],
                 ["meijer", "--z-grid", "nan"],
                 ["meijer", "--b", "nan,0,0", "--z-grid", "1"],
                 ["meijer", "--b", "0,inf,0", "--z-grid", "1", "--route", "loop"],
                 ["eqsolve", "--box", "inf"],
                 ["eqsolve", "--v", "0,inf", "--m", "20"]):
        assert main(argv) == 2, argv
        assert "finite" in capsys.readouterr().err, argv
    # malformed or out-of-range values of each subcommand's own flags
    for argv in (["eqsolve", "--v", "a,b"],
                 ["eqsolve", "--v", "5"],
                 ["converge", "--alpha", "0", "--x", "1", "--y", "2",
                  "--ns", "4,x"],
                 ["converge", "--alpha", "0", "--x", "0", "--y", "1"],
                 ["meijer", "--b", "1,2", "--z-grid", "1"],
                 ["meijer", "--z-grid", "0"],
                 ["meijer", "--z-grid", "1", "--route", "series", "--m", "2"]):
        assert main(argv) == 2, argv
        assert "usage error" in capsys.readouterr().err, argv
    # sizes that allocate are refused before anything is built: eqsolve's
    # m x m float64 matrices, and one mpf per grid point
    over = "1:2:%d" % (MAX_GRID_POINTS + 1)
    for argv, cap in (
            (["eqsolve", "--m", str(MAX_EQ_CELLS + 1)], MAX_EQ_CELLS),
            (["density", "--grid", str(MAX_GRID_POINTS + 1)], MAX_GRID_POINTS),
            (["kernel", "--alpha", "0", "--x-grid", over, "--y-grid", "1"],
             MAX_GRID_POINTS),
            (["meijer", "--z-grid", over], MAX_GRID_POINTS)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "usage error" in err and str(cap) in err, argv


def test_removed_options_are_usage_errors(capsys):
    # rhcheck's tolerances, eqsolve's pivot cap and density's field tag are
    # fixed; setting one is refused by the parser
    for argv in (["rhcheck", "--alpha", "0", "--tol-det", "1"],
                 ["eqsolve", "--max-iter", "5"],
                 ["density", "--v", "laguerre"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_numerical_failure_exit_code(capsys, monkeypatch):
    # parameters resonant to 8 digits but not exactly break the series
    # route; the loop is not tried when the route is forced
    rc = main(["meijer", "--b", "0,1e-8,0.5", "--z-grid", "1",
               "--route", "series"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "meijer" in err
    # at exact resonance the series takes its logarithmic form
    values = {}
    for route in ("series", "loop"):
        rc = main(["meijer", "--b", "0,0,0.5", "--z-grid", "1",
                   "--route", route])
        assert rc == 0
        values[route] = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert values["series"] == pytest.approx(values["loop"], rel=1e-15)
    # too few pivot iterations for the minimizer's KKT solve
    minimize = equilibrium.equilibrium_minimize
    monkeypatch.setattr(equilibrium, "equilibrium_minimize",
                        lambda V, Q, m: minimize(V, Q, m, max_iter=1))
    rc = main(["eqsolve", "--m", "60"])
    assert rc == 3
    assert "eqsolve" in capsys.readouterr().err


def test_kernel_near_the_origin(capsys):
    # the matrix route raises its digits by its loss bound near the origin
    # (it printed -796203.0 here with exit 0), and refuses with exit 3 a
    # point whose bound exceeds its cap
    rc = main(["kernel", "--alpha", "0", "--route", "meijer", "--x-grid",
               "1e-100", "--y-grid", "2", "--precision", "30"])
    assert rc == 0
    v = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert v == pytest.approx(0.154364970356107, rel=1e-14)
    rc = main(["kernel", "--alpha", "0.3", "--route", "meijer", "--x-grid",
               "1e-300", "--y-grid", "1e-299", "--precision", "30"])
    assert rc == 3
    assert "matrix route" in capsys.readouterr().err


def test_series_budget_exit_code(capsys, monkeypatch):
    # a series that runs out of terms is a numerical failure, not a value
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    rc = main(["kernel", "--alpha", "0.3", "--x-grid", "1", "--y-grid", "2",
               "--route", "integral"])
    assert rc == 3
    assert "kernel" in capsys.readouterr().err


def test_log_series_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    rc = main(["meijer", "--b", "0,0,0.5", "--z-grid", "1",
               "--route", "series"])
    assert rc == 3
    assert "meijer" in capsys.readouterr().err


def test_log_series_large_gap_exit_code(capsys):
    # an integer gap of 10^9 would need 10^9 simple-pole coefficients before
    # the first term; the series refuses it instead of building them
    for b in ("1e9,0,0.5", "-1e9,0,0.5"):
        rc = main(["meijer", "--b=" + b, "--z-grid", "1"])
        assert rc == 3, b
        err = capsys.readouterr().err
        assert "meijer" in err and "1000000000" in err, b


def test_meijer_large_lower_parameter_takes_the_series(capsys):
    # b = 800.3 gives the 0F2 sums a lower parameter near -800, where the
    # tail bound's weights once outgrew the fixed-point guard and the series
    # ran out of terms (exit 3); the loop is the independent check
    values = {}
    for route in ("series", "loop"):
        rc = main(["meijer", "--b", "800.3,0,0.5", "--z-grid", "1",
                   "--route", route])
        assert rc == 0, route
        row = capsys.readouterr().out.splitlines()[1]
        values[route] = mpf(row.split(",")[2])
    assert abs(values["series"] / values["loop"] - 1) < mpf("1e-15")


def test_meijer_auto_route_reported(capsys):
    for b, route in (("0,1e-8,0.5", "loop"), ("0,0,0.5", "series")):
        rc = main(["meijer", "--b", b, "--z-grid", "1", "--route", "auto",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["route"] == route, b
    rc = main(["meijer", "--b", "0,-0.3,-0.8", "--z-grid", "1",
               "--route", "auto", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["route"] == "series"
    assert float(doc["rows"][0]["im"]) == pytest.approx(0.0, abs=1e-30)


def test_meijer_roundoff_imaginary_part_is_zero(capsys):
    # G is real on sheet 0 at real z; the loop's imaginary roundoff (about
    # 1e-79 here) is printed as 0.  One sheet up G is complex, and its
    # imaginary part stays.
    rows = {}
    for sheet in ("0", "1"):
        rc = main(["meijer", "--b", "0,-0.3,-0.8", "--z-grid", "1",
                   "--route", "loop", "--m", "2", "--precision", "50",
                   "--sheet", sheet])
        assert rc == 0
        rows[sheet] = capsys.readouterr().out.splitlines()[1].split(",")
    assert rows["0"][3] == "0.0"
    assert abs(float(rows["1"][3])) > 1e-3


def test_meijer_decimal_resonance_takes_the_series(capsys):
    # 0.2 - (-2.8) = 3 only in decimal; the series still takes its
    # logarithmic form, and agrees with the loop to gate 01's 1e-20
    values = {}
    for route in ("series", "loop", "auto"):
        rc = main(["meijer", "--b", "0.2,-2.8,0.45", "--z-grid", "0.5:3:3",
                   "--route", route, "--format", "json"])
        assert rc == 0, route
        doc = json.loads(capsys.readouterr().out)
        values[route] = [mpf(r["re"]) for r in doc["rows"]]
        if route == "auto":
            assert doc["meta"]["route"] == "series"
    assert values["auto"] == values["series"]
    for vs, vl in zip(values["series"], values["loop"]):
        assert abs(vs - vl) <= mpf("1e-20") * abs(vl)


def test_density_both_routes(capsys):
    rc = main(["density", "--route", "both", "--grid", "20"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,rho_explicit,rho_cardano,abs_diff"
    assert len(lines) == 21
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-12


def test_eqsolve_artifact(tmp_path, capsys):
    out = tmp_path / "eq.json"
    rc = main(["eqsolve", "--m", "60", "--box", "6.0", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    assert "q=" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 60
    for key in ("q", "ell", "c0", "c1", "cV", "mass"):
        assert key in doc["meta"], key
    assert float(doc["meta"]["mass"]) == pytest.approx(1.0, abs=1e-12)
    assert float(doc["meta"]["q"]) == pytest.approx(3.375, abs=0.3)


def test_converge_table(capsys):
    rc = main(["converge", "--alpha", "0", "--x", "1", "--y", "2",
               "--ns", "1,2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,rel_err"
    assert len(lines) == 3


def test_converge_on_the_diagonal(capsys):
    # at x = y the matrix route refuses its 1/(x-y); the reference comes
    # from the diagonal limit instead
    rc = main(["converge", "--alpha", "0", "--x", "1", "--y", "1",
               "--ns", "1,2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,rel_err"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_converge_bytes_pinned(capsys):
    # the errors come from the closed-form sums at 30 digits and matched
    # the n = 32 LDU system built at 320 digits to all 17 printed digits;
    # no change to the rounding of the sums may move them
    rc = main(["converge", "--alpha", "0.23", "--x", "1", "--y", "2",
               "--ns", "4,8,16,32", "--precision", "30"])
    assert rc == 0
    assert capsys.readouterr().out == ("n,rel_err\n"
                                       "4,0.0076864254002872418\n"
                                       "8,0.059099479667238228\n"
                                       "16,0.048374256499645382\n"
                                       "32,0.029048717607717241\n")


def test_converge_envelope(capsys):
    # kernel sizes run up to 256; beyond that --ns is a usage error, named
    # in the help text, not a request for an n-digit computation
    for ns in ("4,257", "1000"):
        assert main(["converge", "--alpha", "0", "--x", "1", "--y", "2",
                     "--ns", ns]) == 2, ns
        assert "up to 256" in capsys.readouterr().err
    rc = main(["converge", "--alpha", "0", "--x", "1", "--y", "2",
               "--ns", "256", "--precision", "30"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("n,rel_err\n256,0.00314716")
    with pytest.raises(SystemExit):
        main(["converge", "--help"])
    assert "1 to 256" in capsys.readouterr().out


def test_csv_determinism(tmp_path):
    args = ["kernel", "--alpha", "0.7", "--x-grid", "0.2:3:3",
            "--y-grid", "1", "--route", "both"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# the x, y, integral and meijer columns of two 50-digit `kernel --route
# both` grids: the README's and test_csv_determinism's
_PINNED_GRIDS = {
    ("0", "0.5:2.5:3", "0.5:2.5:3"): [
        "0.5,0.5,0.56450418680601861,0.56450418680601861",
        "0.5,1.5,0.22585901572958156,0.22585901572958156",
        "0.5,2.5,0.10846989626696439,0.10846989626696439",
        "1.5,0.5,0.43174649743421205,0.43174649743421205",
        "1.5,1.5,0.20634226741208991,0.20634226741208991",
        "1.5,2.5,0.11951989235890688,0.11951989235890688",
        "2.5,0.5,0.31420075506741146,0.31420075506741146",
        "2.5,1.5,0.18718850088514679,0.18718850088514679",
        "2.5,2.5,0.12748533526823664,0.12748533526823664",
    ],
    ("0.7", "0.2:3:3", "1"): [
        "0.2,1.0,0.28573011556097675,0.28573011556097675",
        "1.6,1.0,0.23157681916742221,0.23157681916742221",
        "3.0,1.0,0.18321035686805944,0.18321035686805944",
    ],
}


def test_kernel_grids_keep_their_value_columns(tmp_path):
    out = tmp_path / "k.csv"
    for (alpha, xs, ys), rows in _PINNED_GRIDS.items():
        assert main(["kernel", "--alpha", alpha, "--x-grid", xs,
                     "--y-grid", ys, "--route", "both",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,integral,meijer,rel_diff"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == rows


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert main(["kernel", "--alpha", "0", "--x-grid", "1", "--y-grid", "2",
                 "--route", "integral"]) == 0
    assert main(["density", "--grid", "2"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the shared parser still reports usage errors with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--alpha", "0"])
    assert exc.value.code == 2
    assert main(["kernel", "--alpha", "-2", "--x-grid", "1",
                 "--y-grid", "2"]) == 2
    assert main(["density", "--grid", "1"]) == 0
    capsys.readouterr()


def test_json_meta_schema(capsys):
    rc = main(["kernel", "--alpha", "0", "--x-grid", "1", "--y-grid", "2",
               "--route", "integral", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"meta", "rows"}
    assert doc["meta"]["precision"] == 50
    assert doc["meta"]["version"]
    assert doc["meta"]["flags"]["alpha"] == "0"
    assert list(doc["rows"][0]) == sorted(doc["rows"][0])


def test_precision_resolution(monkeypatch, capsys):
    monkeypatch.setenv("MB_PRECISION", "35")
    rc = main(["kernel", "--alpha", "0", "--x-grid", "1", "--y-grid", "2",
               "--route", "integral", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["meta"]["precision"] == 35
    # explicit flag wins over the environment
    rc = main(["kernel", "--alpha", "0", "--x-grid", "1", "--y-grid", "2",
               "--route", "integral", "--format", "json", "--precision", "40"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["meta"]["precision"] == 40
    monkeypatch.setenv("MB_PRECISION", "10")
    assert main(["kernel", "--alpha", "0", "--x-grid", "1",
                 "--y-grid", "2"]) == 2
    monkeypatch.setenv("MB_PRECISION", "abc")
    assert main(["kernel", "--alpha", "0", "--x-grid", "1",
                 "--y-grid", "2"]) == 2
    capsys.readouterr()


def test_rhcheck_report(tmp_path, capsys):
    out = tmp_path / "rh.csv"
    rc = main(["rhcheck", "--alpha", "0.3", "--out", str(out)])
    report = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in report.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 16
    assert all(l.startswith("PASS") for l in lines)
    # the artifact pins the 16 checks, where each is taken and its fixed
    # tolerance
    lines = out.read_text().splitlines()
    assert lines[0] == "check,where,residual,tolerance,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == [
        ("det", "Q1", "1e-18", "PASS"), ("det", "Q2", "1e-18", "PASS"),
        ("det", "Q3", "1e-18", "PASS"), ("det", "Q4", "1e-18", "PASS"),
        ("jump_phi", "pos", "1e-18", "PASS"),
        ("jump_phi", "ipos", "1e-18", "PASS"),
        ("jump_phi", "ineg", "1e-18", "PASS"),
        ("jump_phi", "neg", "1e-18", "PASS"),
        ("jump_psi", "pos", "1e-18", "PASS"),
        ("jump_psi", "ipos", "1e-18", "PASS"),
        ("jump_psi", "ineg", "1e-18", "PASS"),
        ("jump_psi", "neg", "1e-18", "PASS"),
        ("inverse", "r=0.7", "1e-16", "PASS"),
        ("inverse", "r=2.0", "1e-16", "PASS"),
        ("frame", "L.Lt^T=3I", "1e-25", "PASS"),
        ("frame", "Tt^T.T=C", "1e-25", "PASS")]


def test_rhcheck_failure_exit(capsys, monkeypatch):
    # an impossible tolerance forces a FAIL report and exit code 3
    monkeypatch.setitem(cli.RH_TOLERANCES, "det", "1e-80")
    rc = main(["rhcheck", "--alpha", "0.3"])
    cap = capsys.readouterr()
    assert rc == 3
    assert any(l.startswith("FAIL") for l in cap.out.splitlines())
    assert "rhcheck" in cap.err


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_kernel_run_leaves_numpy_unloaded():
    # only density and eqsolve import the equilibrium module, and with it
    # numpy: importing the command line and running a kernel grid do not
    out = _fresh_python(
        "import sys\n"
        "import mbhalf.cli\n"
        "rc = mbhalf.cli.main(['kernel', '--alpha', '0.3', '--x-grid', '1', "
        "'--y-grid', '2', '--route', 'both', '--precision', '30'])\n"
        "print(rc, 'numpy' in sys.modules)\n")
    assert out.stdout.splitlines()[-1] == "0 False", out.stderr


def test_loop_refuses_sheet_12_for_one_gamma():
    # for m = 1 the loop's terms grow like e^(theta u) along the parabola:
    # at |z| = 2 sheet 8 still answers, after three passes, and from sheet
    # 12 on the walk runs past its node budget, a typed failure (exit 3)
    # rather than a wrong value.  A fresh process keeps what it builds out
    # of this session's caches
    out = _fresh_python(
        "import sys\n"
        "from mbhalf.cli import main\n"
        "sys.exit(main(['meijer', '--b', '0.1,-0.3,-0.8', '--z-grid', '2', "
        "'--sheet', '12', '--m', '1', '--route', 'loop', '--precision', "
        "'30']))\n")
    assert out.returncode == 3, out.stderr
    assert "2000 nodes a side" in out.stderr
