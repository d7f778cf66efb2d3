import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymg import Stencil, build_fem_tri_laplace, cli, reproduce_table
from polymg.cli import main

from oracles import DIAGONAL_STENCIL, LOW_PEAK_STENCIL, Q1_STENCIL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smoothing_factor_json(capsys):
    code, out, err = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd2d", "--k", "2",
        "--family", "cheb", "--degree", "6")
    assert code == 0, err
    report = json.loads(out)
    assert report["mu"] == pytest.approx(0.041, abs=1e-3)
    assert report["lambda0"] == pytest.approx(0.1464, abs=1e-3)
    assert report["lambda1"] == pytest.approx(2.0)
    # echo completeness: every resolved parameter present
    for key in ("stencil", "smoother", "k", "preconditioner",
                "samples_per_axis", "lambda0_star"):
        assert key in report


def test_smoothing_factor_opt_lambda0_3d(capsys):
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd3d", "--k", "1",
        "--family", "ba1x", "--degree", "3", "--lambda0", "opt")
    assert code == 0
    report = json.loads(out)
    assert report["mu"] == pytest.approx(0.097, abs=1.5e-3)
    assert report["smoother"]["lambda0"] == pytest.approx(0.419, abs=2e-3)


def test_smoothing_factor_degree_zero_has_no_optimal_lambda0(capsys):
    # a degree-0 Chebyshev smoother is damped Jacobi: mu is defined, the
    # min-max lambda0 is not, unless the user asks for it
    argv = ("smoothing-factor", "--stencil", "fd2d", "--family", "cheb",
            "--degree", "0", "--samples", "16")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["lambda0_star"] is None
    assert 0.0 < report["mu"] < 1.0
    code, out, err = run_cli(capsys, *argv, "--lambda0", "opt")
    assert code == 2 and out == ""
    assert "degree m >= 1" in json.loads(err)["message"]


def test_smoothing_factor_zero_lambda0_has_no_optimal_lambda0(tmp_path,
                                                             capsys):
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(DIAGONAL_STENCIL))
    argv = ("smoothing-factor", "--stencil-file", str(path), "--family",
            "cheb", "--degree", "2", "--samples", "16")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["lambda0_auto"] == 0.0
    assert report["lambda0_star"] is None
    code, out, err = run_cli(capsys, *argv, "--lambda0", "opt")
    assert code == 2 and out == ""
    assert "0 < lambda0 < lambda1" in json.loads(err)["message"]


def test_smoothing_factor_triangular_preset(capsys):
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--stencil", "tri", "--preset",
        "equilateral", "--k", "1", "--family", "cheb", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["lambda1"] == pytest.approx(1.5, abs=1e-6)
    assert 0.0 < report["mu"] < 1.0


def test_two_grid_both_modes(capsys):
    code, out, _ = run_cli(
        capsys, "two-grid", "--stencil", "fd2d", "--k", "1",
        "--family", "cheb", "--degree", "2", "--lambda0", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["rho_lfa"]["rediscretized"] == pytest.approx(0.125, abs=5e-3)
    assert set(report["rho_lfa"]) == {"galerkin", "rediscretized"}


def test_stencil_file_round_trip(tmp_path, capsys):
    path = tmp_path / "iso.json"
    build_fem_tri_laplace(4 * math.pi / 9, 4 * math.pi / 9).save(path)
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--stencil-file", str(path), "--k", "1",
        "--family", "cheb", "--degree", "8")
    assert code == 0
    report = json.loads(out)
    assert report["lambda1"] == pytest.approx(1.8880706, abs=1e-6)
    assert report["lambda0"] == pytest.approx(0.112, abs=2e-3)


def test_solve_roundtrip_bitwise(capsys):
    args = ("solve", "--stencil", "fd2d", "--cycle", "v", "--k", "1",
            "--family", "cheb", "--degree", "2", "--lambda0", "0.5",
            "--n", "31", "--iterations", "30", "--seed", "77")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    first = json.loads(out)
    assert first["seed"] == 77
    # the echoed report alone must suffice to rerun the measurement
    sm = first["spec"]["smoother"]
    rebuilt = ("solve", "--stencil", "fd2d",
               "--cycle", {"two-grid": "tg", "v": "v", "w": "w"}[first["spec"]["kind"]],
               "--k", str(first["spec"]["k"]),
               "--family", sm["family"], "--degree", str(sm["degree"]),
               "--lambda0", repr(sm["lambda0"]), "--lambda1", repr(sm["lambda1"]),
               "--preconditioner", first["spec"]["preconditioner"],
               "--pre", str(first["spec"]["pre"]),
               "--post", str(first["spec"]["post"]),
               "--coarse", first["spec"]["coarse_mode"],
               "--n", str(first["n"]), "--iterations", str(first["iterations"]),
               "--seed", str(first["seed"]))
    code, out, _ = run_cli(capsys, *rebuilt)
    assert code == 0
    second = json.loads(out)
    assert first["rate"] == second["rate"]  # bitwise for a fixed seed
    assert first["ratios"] == second["ratios"]


def test_solve_reports_loop_time_and_tail_spread(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--stencil", "fd2d", "--cycle", "v", "--k", "1",
        "--family", "cheb", "--degree", "2", "--lambda0", "0.5",
        "--n", "31", "--iterations", "30")
    assert code == 0, err
    report = json.loads(out)
    assert report["seconds"] > 0.0
    logs = [math.log(r) for r in report["ratios"][-10:]]
    assert report["tail_log_spread"] == pytest.approx(max(logs) - min(logs))
    assert report["tail_log_spread"] >= 0.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("flags,solver,shape", [
    (("--stencil", "fd2d", "--lambda0", "0.5"), "sine", "15x15"),
    (("--stencil", "tri", "--preset", "equilateral"), "superlu", "15x15")],
    ids=["fd2d", "equilateral"])
def test_solve_reports_coarsest_solver_and_shape(capsys, flags, solver, shape,
                                                 fmt):
    code, out, err = run_cli(
        capsys, "solve", *flags, "--cycle", "tg", "--pre", "1", "--post",
        "0", "--k", "1", "--family", "cheb", "--degree", "2", "--n", "31",
        "--iterations", "30", "--format", fmt)
    assert code == 0, err
    report = json.loads(out) if fmt == "json" else _csv_row(out)
    assert report["coarsest_solver"] == solver
    assert report["coarsest_shape"] == shape


def test_lfa_paths_leave_scipy_sparse_unimported():
    # SciPy is imported by SuperLU and the Galerkin probe only
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, polymg; before = 'scipy.sparse' in sys.modules; "
            "from polymg.cli import main; code = main(['smoothing-factor', "
            "'--stencil', 'fd3d', '--k', '2', '--family', 'cheb', "
            "'--degree', '9', '--lambda0', 'opt']); "
            "print(code, before, 'scipy.sparse' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
            None, [src, os.environ.get("PYTHONPATH")])))).stdout
    assert out.splitlines()[-1] == "0 False False"


def test_solve_triangular_preset(capsys):
    # the triangular solver transfers with the P1 pyramid the LFA analyses,
    # so its two-grid rate meets the LFA factor 0.1295 of this smoother
    code, out, err = run_cli(
        capsys, "solve", "--stencil", "tri", "--preset", "equilateral",
        "--cycle", "tg", "--pre", "1", "--post", "0", "--k", "1",
        "--family", "cheb", "--degree", "1", "--n", "127",
        "--iterations", "60")
    assert code == 0, err
    report = json.loads(out)
    assert report["stencil"]["geometry"]["kind"] == "triangular"
    assert report["rate"] == pytest.approx(0.1295, abs=5e-3)


def test_solve_rejects_low_iterations(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--stencil", "fd2d", "--family", "cheb",
        "--degree", "2", "--lambda0", "0.5", "--n", "31",
        "--iterations", "10")
    assert code == 2
    payload = json.loads(err)
    assert "30" in payload["message"]


def test_solve_divergence_is_a_json_error(capsys, monkeypatch):
    # a run-time error such as a divergence is reported like every other
    # failure
    def diverge(*args, **kwargs):
        raise RuntimeError("divergence at iteration 6: ratio 1.500000 > 1")

    monkeypatch.setattr(cli, "measure_asymptotic_rate", diverge)
    code, out, err = run_cli(
        capsys, "solve", "--stencil", "fd2d", "--family", "ba1x",
        "--degree", "2", "--n", "31", "--k", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "RuntimeError"
    assert "divergence" in payload["message"]


def test_solve_rejects_lambda1_below_spectrum(capsys):
    # fd2d has LFA lambda1 = 2; an interval ending at 1 would diverge
    code, out, err = run_cli(
        capsys, "solve", "--stencil", "fd2d", "--family", "ba1x",
        "--degree", "2", "--lambda0", "0.9", "--lambda1", "1.0",
        "--n", "31", "--k", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "CliError"
    assert "1.0" in payload["message"] and "2.0" in payload["message"]


def test_optimize_degree_objective(capsys):
    kappa, lam1, m = 9.0, 2.0, 7
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    rho = delta**m * (kappa - 1) / 2 * 1.0000001
    code, out, _ = run_cli(
        capsys, "optimize", "--objective", "degree",
        "--rho", f"{rho}", "--kappa", f"{kappa}", "--lambda1", f"{lam1}")
    assert code == 0
    assert json.loads(out)["degree"] == m


@pytest.mark.parametrize("flags", [
    ("--lambda1", "0"), ("--lambda1", "-1"), ("--kappa", "inf"),
    ("--lambda1", "auto"), ("--lambda1", "1e-320"), ("--kappa", "1e+308")],
    ids=["lambda1-0", "lambda1-1", "kappa-inf", "lambda1-auto",
         "lambda1-subnormal", "kappa-huge"])
def test_optimize_degree_rejects_bad_values(capsys, flags):
    values = {"--rho": "0.1", "--kappa": "13.66", "--lambda1": "2"}
    values[flags[0]] = flags[1]
    code, out, err = run_cli(capsys, "optimize", "--objective", "degree",
                             *(x for item in values.items() for x in item))
    assert code == 2 and out == "" and err.count("\n") == 1
    message = json.loads(err)["message"]
    assert flags[0][2:] in message and flags[1] in message


def test_optimize_twogrid_refuses_sa(capsys):
    # SA ignores lambda0, so there is nothing for the search to tune
    code, out, err = run_cli(
        capsys, "optimize", "--objective", "twogrid", "--stencil", "fd2d",
        "--k", "1", "--family", "sa", "--degree", "2", "--samples", "16")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "lambda0" in json.loads(err)["message"]


def test_optimize_smoothing_objective(capsys):
    # the min-max lambda0* and its mu come from smoothing-factor
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--lambda0", "opt", "--stencil", "fd2d",
        "--k", "2", "--family", "ba1x", "--degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["lambda0_star"] == pytest.approx(0.202, abs=2e-3)
    assert report["mu"] == pytest.approx(0.086, abs=2e-3)


@pytest.mark.parametrize("k", [1, 2])
def test_solve_runs_the_stencil_file(tmp_path, capsys, k):
    path = tmp_path / "q1.json"
    path.write_text(json.dumps(Q1_STENCIL))
    flags = ("--stencil-file", str(path), "--k", str(k), "--family", "cheb",
             "--degree", "2")
    code, out, err = run_cli(capsys, "two-grid", *flags)
    assert code == 0, err
    rho = json.loads(out)["rho_lfa"]
    for mode in ("rediscretized", "galerkin"):
        code, out, err = run_cli(capsys, "solve", *flags, "--cycle", "tg",
                                 "--pre", "1", "--post", "0", "--n", "127",
                                 "--coarse", mode)
        assert code == 0, err
        report = json.loads(out)
        assert Stencil.from_dict(report["stencil"]) == \
            Stencil.from_dict(Q1_STENCIL)
        assert report["rate"] == pytest.approx(rho[mode], abs=1e-2), mode


def test_solve_rejects_wide_stencil(tmp_path, capsys):
    wide = {"geometry": {"kind": "rectangular", "h": [1.0, 1.0]},
            "entries": [{"offset": [0, 0], "coefficient": 5.0},
                        {"offset": [2, 0], "coefficient": -1.0},
                        {"offset": [-2, 0], "coefficient": -1.0},
                        {"offset": [0, 1], "coefficient": -1.0},
                        {"offset": [0, -1], "coefficient": -1.0}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    code, out, err = run_cli(capsys, "solve", "--stencil-file", str(path),
                             "--k", "1", "--family", "cheb", "--degree", "4",
                             "--n", "31", "--iterations", "30")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "{-1, 0, 1}" in error["message"]


def test_reproduce_table_five_lfa_only():
    result = reproduce_table(5, experiments=False)
    tolerances = result.tolerances
    for row, want in zip(result.computed, result.reference):
        assert row[2:] == [None, None, None]
        for col, got, ref in zip(result.columns[:2], row, want):
            assert abs(got - ref) <= tolerances[col], col


def test_reproduce_table_five_passes_iterations(monkeypatch, capsys):
    # 2D V-cycles run N iterations and 3D ones min(N, 60)
    from types import SimpleNamespace

    from polymg import tables

    calls = []

    def stub(cyc, n, dimension, iterations, **kwargs):
        calls.append((dimension, iterations))
        return SimpleNamespace(rate=0.1, ratios=[0.1])

    monkeypatch.setattr(tables, "measure_asymptotic_rate", stub)
    for run, want in ((lambda: reproduce_table(5, iterations=30), (30, 30)),
                      (lambda: reproduce_table(5), (100, 60)),
                      (lambda: run_cli(capsys, "reproduce", "--table", "5",
                                       "--iterations", "80"), (80, 60))):
        calls.clear()
        run()
        assert sorted(calls) == [(2, want[0])] * 9 + [(3, want[1])] * 9


def test_reproduce_bounds_check(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--table", "0")
    assert code == 2
    assert json.loads(err)["error"] == "CliError"


def test_reproduce_table_one(tmp_path, capsys):
    out_csv = tmp_path / "table1.csv"
    code, _, _ = run_cli(capsys, "reproduce", "--table", "1",
                         "--output", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("row,chebyshev,sa,ba,ba_opt")
    assert len(lines) == 4
    compare = json.loads((tmp_path / "table1.csv.compare.json").read_text())
    cells = {(c["row"], c["column"]): c for c in compare["cells"]}
    assert cells[("k=1", "chebyshev")]["within_tolerance"]
    assert cells[("k=1", "lambda0")]["within_tolerance"]
    assert "documented_discrepancy" in cells[("k=3", "sa")]


def _csv_row(out):
    """The one data row of a CSV report, by column."""
    header, values = out.strip().splitlines()
    return dict(zip(header.split(","), values.split(",")))


def test_csv_format_output(capsys):
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd2d", "--k", "1",
        "--family", "cheb", "--degree", "2", "--format", "csv")
    assert code == 0
    row = _csv_row(out)
    mu = float(row["mu"])
    assert mu == pytest.approx(0.074, abs=1e-3)
    assert "." in row["mu"]  # locale-independent decimal point
    # nested objects flatten under dotted keys; lists stay JSON-only
    assert row["smoother.degree"] == "2"
    assert "stencil.entries" not in row
    # a null is an empty cell, so the header does not depend on the value
    code, out, _ = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd2d", "--k", "1",
        "--family", "cheb", "--degree", "0", "--format", "csv")
    assert code == 0
    degree0 = _csv_row(out)
    assert degree0.keys() == row.keys()
    assert degree0["lambda0_star"] == "" and float(row["lambda0_star"]) > 0
    flags = ("two-grid", "--stencil", "fd2d", "--family", "cheb", "--degree",
             "2", "--samples", "16")
    code, out, _ = run_cli(capsys, *flags, "--format", "csv")
    assert code == 0
    row = _csv_row(out)
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0
    for mode, rho in json.loads(out)["rho_lfa"].items():
        assert row[f"rho_lfa.{mode}"] == f"{rho:.10g}"


@pytest.mark.parametrize("flags,message", [
    (("--lambda0", "nan"), "finite"),
    (("--lambda1", "inf"), "finite"),
    (("--k", "0"), "k must be >= 1"),
    (("--k", "-1"), "k must be >= 1"),
    (("--iterations", "0"), "iterations"),
    (("--iterations", "-1"), "iterations"),
], ids=["lambda0-nan", "lambda1-inf", "k0", "k-1", "iterations0",
        "iterations-1"])
def test_smoothing_factor_rejects_bad_values(capsys, flags, message):
    code, out, err = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd2d", "--family", "cheb",
        "--degree", "3", *flags)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert message in json.loads(err)["message"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_never_prints_nan(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "smoothing_factor",
                        lambda *args, **kwargs: math.nan)
    code, out, err = run_cli(
        capsys, "smoothing-factor", "--stencil", "fd2d", "--family", "cheb",
        "--degree", "3", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"


def test_stencil_file_maximum_off_the_high_range(tmp_path, capsys):
    path = tmp_path / "low-peak.json"
    path.write_text(json.dumps(LOW_PEAK_STENCIL))
    code, out, err = run_cli(
        capsys, "smoothing-factor", "--stencil-file", str(path), "--k", "1",
        "--family", "cheb", "--degree", "3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "not attained on the high range" in json.loads(err)["message"]


def test_optimize_twogrid_from_a_zero_lambda0(tmp_path, capsys):
    # the bracket cannot grow from a zero seed; the fallback scan covers
    # [1e-6 lambda1, lambda1) and finds the minimum near 0.03
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(DIAGONAL_STENCIL))
    code, out, err = run_cli(
        capsys, "optimize", "--objective", "twogrid", "--family", "cheb",
        "--degree", "2", "--k", "1", "--samples", "16",
        "--stencil-file", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["lambda0_auto"] == 0.0
    assert report["used_scan_fallback"]
    assert report["lambda0"] == pytest.approx(0.0302, abs=1e-3)
    assert report["rho_lfa"] == pytest.approx(0.7771, abs=1e-3)


def test_optimize_twogrid_ba1x_from_a_zero_lambda0(tmp_path, capsys):
    # ba1x has no finite kappa at lambda0 = 0, so the seed smoother starts
    # at the search's floor instead of failing before the search
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(DIAGONAL_STENCIL))
    argv = ("optimize", "--objective", "twogrid", "--family", "ba1x",
            "--degree", "2", "--k", "1", "--samples", "16",
            "--stencil-file", str(path))
    code, out, err = run_cli(capsys, *argv, "--coarse", "galerkin")
    assert code == 0, err
    report = json.loads(out)
    assert report["lambda0_auto"] == 0.0
    assert report["lambda0"] > 0.0
    assert math.isfinite(report["rho_lfa"]) and report["rho_lfa"] < 1.0
    # the rediscretized coarse symbol of this stencil also vanishes at the
    # corners of the low box, where the two-grid factor grows without bound
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "singular coarse symbol" in json.loads(err)["message"]


def test_missing_stencil_flag(capsys):
    code, _, err = run_cli(capsys, "smoothing-factor", "--family", "cheb",
                           "--degree", "2")
    assert code == 2
    assert "stencil" in json.loads(err)["message"]


def _with(doc, mutate):
    doc = copy.deepcopy(doc)
    mutate(doc)
    return doc


def _five_point(centre, neighbour):
    """A 5-point stencil document with unit mesh width."""
    axes = ([1, 0], [-1, 0], [0, 1], [0, -1])
    return {"geometry": {"kind": "rectangular", "h": [1.0, 1.0]},
            "entries": [{"offset": [0, 0], "coefficient": centre}]
            + [{"offset": o, "coefficient": neighbour} for o in axes]}


@pytest.mark.parametrize("document,message", [
    ({}, "geometry"),
    (_with(Q1_STENCIL, lambda d: d.pop("entries")), "entries"),
    ([], "JSON object"),
    (_with(Q1_STENCIL, lambda d: d["entries"][1].update(coefficient=None)),
     "entries[1].coefficient"),
    (_with(Q1_STENCIL, lambda d: d["entries"][1].update(coefficient="inf")),
     "finite"),
    (_with(Q1_STENCIL, lambda d: d["geometry"].update(h=[float("nan"), 1.0])),
     "finite"),
    (_with(Q1_STENCIL, lambda d: d["entries"][2].update(offset=[1.5, 0])),
     "entries[2].offset"),
    (_five_point(1.6e308, -4e307), "overflow"),
    (_five_point(1e308, -1e308), "overflow"),
    (_five_point(1e-300, -1e10), "relative to the center"),
], ids=["empty-object", "no-entries", "array", "null-coefficient",
        "inf-coefficient", "nan-h", "fractional-offset",
        "coefficient-sum-overflow", "coefficient-sum-overflow-1e308",
        "center-ratio-overflow"])
def test_malformed_stencil_file_is_a_json_error(tmp_path, capsys, document,
                                                message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(
        capsys, "smoothing-factor", "--stencil-file", str(path),
        "--family", "cheb", "--degree", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert message in error["message"]


def test_tiny_mesh_width_stencil_file(tmp_path, capsys):
    # phases carry no mesh width: h = 1e-200 reproduces the h = 1 report
    mu = {}
    for w in (1.0, 1e-200):
        path = tmp_path / f"q1-{w}.json"
        path.write_text(json.dumps(
            _with(Q1_STENCIL, lambda d: d["geometry"].update(h=[w, w]))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "smoothing-factor", "--stencil-file", str(path),
                "--family", "cheb", "--degree", "2")
        assert code == 0 and err == ""
        mu[w] = json.loads(out)["mu"]
    assert mu[1e-200] == mu[1.0]


def test_subnormal_stencil_file_gives_the_unscaled_rho(tmp_path, capsys):
    # the analysis reads the stencil scaled by a power of four, so subnormal
    # coefficients keep their precision
    rho = {}
    for centre, neighbour in ((4.0, -1.0), (4e-320, -1e-320)):
        path = tmp_path / f"five-point-{centre}.json"
        path.write_text(json.dumps(_five_point(centre, neighbour)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "two-grid", "--stencil-file", str(path), "--family",
                "cheb", "--degree", "2", "--samples", "16")
        assert code == 0 and err == ""
        rho[centre] = json.loads(out)["rho_lfa"]
    for mode, want in rho[4.0].items():
        assert rho[4e-320][mode] == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("flags", [
    ("--h", "1"), ("--stencil", "fd4d"), ("--k", "abc"), ("--sten", "fd2d"),
], ids=["unknown-flag", "bad-choice", "bad-type", "abbreviation"])
def test_usage_error_is_a_json_error(capsys, flags):
    argv = ["smoothing-factor", "--stencil", "fd2d", "--family", "cheb",
            "--degree", "2"]
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "CliError"


@pytest.mark.parametrize("argv", [["--version"], ["two-grid", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)

VALID_DOCUMENTS = (Q1_STENCIL,
                   build_fem_tri_laplace(4 * math.pi / 9,
                                         4 * math.pi / 9).to_dict())


def _slots(node):
    """Every (container, key) pair of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    return doc


@st.composite
def symmetric_documents(draw):
    """A valid document with coefficients redrawn in symmetric pairs."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    by_offset = {tuple(e["offset"]): e for e in doc["entries"]}
    for offset, entry in by_offset.items():
        if draw(st.booleans()):
            value = draw(st.floats(-10.0, 10.0))
            entry["coefficient"] = value
            by_offset[tuple(-o for o in offset)]["coefficient"] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "stencil.json"


def _check_stencil_file(path, document, *command):
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, "--stencil-file", str(path),
                     "--family", "cheb", "--degree", "2", "--samples", "8"])
    assert code in (0, 2)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert "error" in json.loads(err.getvalue())


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_fuzz_arbitrary_json_stencil_file(fuzz_path, document):
    _check_stencil_file(fuzz_path, document, "smoothing-factor")


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_fuzz_mutated_stencil_file(fuzz_path, document):
    _check_stencil_file(fuzz_path, document, "smoothing-factor")


@settings(max_examples=150, deadline=None)
@given(mutated_documents() | symmetric_documents())
def test_fuzz_mutated_stencil_file_two_grid(fuzz_path, document):
    # the rho polish evaluates trial points a one-at-a-time search may
    # never visit; none of them may turn an answer into a crash.  Most
    # mutations break the symmetry the analysis requires, so symmetric
    # redraws keep the polish reached
    _check_stencil_file(fuzz_path, document, "two-grid", "--k", "1",
                        "--coarse", "both")
