"""Command-line surface: wire formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spinmetro
from spinmetro import NumericalFailure, ModelPoint, bounds
from spinmetro.models import bloch_vector, make_probe, qubit2p_closed
from spinmetro import analysis, cli
from spinmetro.analysis import (
    MAX_GRID_CELLS,
    MAX_TABLE_PROBES,
    MAX_RANK_OUTCOMES,
    MAX_RANK_PARAMS,
    metrics_report,
)
from spinmetro.cli import build_parser, main
from spinmetro.models import MAX_DIM, ProbeSpec

from conftest import fim_rank_loop, force_scan_threads, workload_ops


def run(argv):
    return main(argv)


def run_python(args, cwd, **env_vars):
    """Run a new interpreter with ``args`` and ``env_vars`` added to the
    environment; return the finished process."""
    env = dict(os.environ, **env_vars)
    src = str(Path(spinmetro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def run_fresh(argv, cwd, **env_vars):
    """Run the command line in a new interpreter; return the finished process."""
    return run_python(["-m", "spinmetro.cli", *argv], cwd, **env_vars)


class TestScanCommand:
    def test_writes_csv_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scan", "--model", "two", "--dim", "2", "--alpha", "0.7853981633974483",
                "--time", "5", "--grid", "11x9", "--out"]
        assert run(argv + [str(out1)]) == 0
        assert run(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "theta,B,R,Delta,T,det_q,singular"
        assert len(lines) == 1 + 11 * 9

    def test_ill_conditioned_qubit_scan_is_maximally_incompatible(self, tmp_path):
        # This probe puts regular cells close to the singular threshold, where
        # the eigenvalues of the non-normal 1j Q^-1 D picked up imaginary
        # parts and the scan exited 1.  R = 1 holds for every pure qubit
        # probe; it is checked to 1e3 * eps * cond(Q), with Q from the Bloch
        # closed form.
        alpha, phi = 0.37158525549893223, 5.2500698813462865
        out = tmp_path / "scan.csv"
        assert run(["scan", "--model", "two", "--dim", "2", "--alpha", repr(alpha),
                    "--phi", repr(phi), "--time", "5.0", "--grid", "51x51",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        regular = [row for row in rows if row[6] == "0"]
        assert len(regular) == 2499
        r0 = bloch_vector(make_probe(ProbeSpec(dim=2, alpha=alpha, phi=phi)))
        eps = np.finfo(float).eps
        for row in regular:
            point = ModelPoint(b=float(row[1]), theta=float(row[0]), t=5.0)
            w = np.linalg.eigvalsh(qubit2p_closed(r0, point).qfim)
            assert abs(float(row[2]) - 1.0) <= 1e3 * eps * w[-1] / w[0]

    def test_three_param_scan(self, tmp_path):
        out = tmp_path / "scan3.csv"
        code = run(["scan", "--model", "three", "--dim", "4", "--alpha", "1.884955592153876",
                    "--time", "5", "--grid", "7x7", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        r_values = [float(r[2]) for r in rows if r[2]]
        assert r_values and max(abs(v - abs(np.cos(2 * 1.884955592153876))) for v in r_values) < 1e-8

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run(["scan", "--grid", "11by9", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_dim_is_usage_error(self, tmp_path):
        assert run(["scan", "--dim", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_time_is_usage_error(self, tmp_path):
        assert run(["scan", "--time", "-5", "--out", str(tmp_path / "x.csv")]) == 2
        assert run(["metrics", "--time", "0", "--out", str(tmp_path / "x.json")]) == 2

    def test_unwritable_output(self):
        assert run(["scan", "--grid", "3x3", "--out", "/nonexistent/dir/x.csv"]) == 1


class TestMetricsCommand:
    def test_json_fields_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["metrics", "--model", "three", "--dim", "6", "--alpha", "1.0471975511965976",
                "--time", "5", "--b", "0.9", "--theta", "0.6", "--model-phi", "0.4", "--out"]
        assert run(argv + [str(out1)]) == 0
        assert run(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        for key in ("Q", "D", "det_q", "c_sld", "c_h", "delta", "r_ai", "singular",
                    "generator_route_residuals"):
            assert key in doc
        assert doc["r_ai"] == pytest.approx(0.5, abs=1e-6)

    def test_ill_conditioned_point_matches_its_scan_cell(self, tmp_path):
        # cond(Q) is about 9e8 at this cell of the 51x51 qubit scan, so a
        # correct inverse leaves ||Q Q^-1 - I|| near 2e-7; the single-point
        # report must accept the cell, as the scan does, and agree with it.
        probe = ["--model", "two", "--dim", "2", "--alpha", "0.37158525549893223",
                 "--phi", "5.2500698813462865", "--time", "5.0"]
        theta, b = 4.272566008882119, 0.6283185307179586
        scan_out, point_out = tmp_path / "scan.csv", tmp_path / "point.json"
        assert run(["scan", *probe, "--grid", "51x51", "--out", str(scan_out)]) == 0
        assert run(["metrics", *probe, "--b", repr(b), "--theta", repr(theta),
                    "--out", str(point_out)]) == 0
        row = next(r for r in (line.split(",") for line in scan_out.read_text().split("\n")[1:])
                   if float(r[0]) == theta and float(r[1]) == b)
        doc = json.loads(point_out.read_text())
        w = np.linalg.eigvalsh(np.array(doc["Q"]))
        assert row[6] == "0" and not doc["singular"]
        assert w[-1] / w[0] > 1e8
        assert abs(doc["r_ai"] - float(row[2])) <= 1e3 * np.finfo(float).eps * w[-1] / w[0]

    @pytest.mark.parametrize("argv", [
        ["metrics", "--tol", "0"],
        ["metrics", "--tol", "-1"],
        ["scaling", "--tol", "0"],
    ])
    def test_tolerance_that_is_not_positive_is_usage_error(self, tmp_path, argv):
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 2

    @pytest.mark.parametrize("model", ["two", "three"])
    def test_default_point_at_large_dimension(self, tmp_path, capsys, model):
        # The report forms no N x N matrix, and it takes the route residuals
        # from su(2) vectors, where they do not depend on N.  The dense routes
        # at large N are checked in tests/test_encoding.py.
        for n in (60, 100, 400, 100_000):
            out = tmp_path / f"m{n}.json"
            assert run(["metrics", "--model", model, "--dim", str(n), "--out", str(out)]) == 0
            assert "Traceback" not in capsys.readouterr().err
            residuals = json.loads(out.read_text())["generator_route_residuals"]
            assert residuals["series_vs_closed"] <= 1e-14
            assert residuals["numeric_vs_closed"] <= 1e-14

    # The oracle routes work on the exact spin-1/2 U, so every decade of |B|
    # up to 1e300 exits 0.  The complex-step route stays at rounding there.
    # Far past the field period the series route can disagree completely,
    # and a route row that points against the closed one reads up to 2, but
    # never NaN.
    @pytest.mark.parametrize("model", ["two", "three"])
    @pytest.mark.parametrize("b", [f"{sign}1e{k}" for sign in ("", "-") for k in range(0, 301, 10)])
    def test_huge_field_exits_zero(self, tmp_path, model, b):
        out = tmp_path / "m.json"
        assert run(["metrics", "--model", model, f"--b={b}", "--out", str(out)]) == 0
        residuals = json.loads(out.read_text())["generator_route_residuals"]
        assert 0.0 <= residuals["series_vs_closed"] <= 2.0
        assert residuals["numeric_vs_closed"] <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("model", ["two", "three"])
    def test_memory_at_large_dimension(self, tmp_path, model):
        # One complex N x N matrix at N = 10^5 would take 160 GB; the
        # report needs a few O(N) vectors.
        out = tmp_path / "m.json"
        tracemalloc.start()
        try:
            code = run(["metrics", "--model", model, "--dim", "100000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 40_000_000

    # A report takes the probe's moments from its support, so its cost does
    # not grow with N: at N = 10^6 it took 160 ms and 207 MB of traced memory
    # when the probe was an N-vector, against about 1 ms at N = 12.
    @pytest.mark.parametrize("model", ["two", "three"])
    def test_cost_does_not_grow_with_dimension(self, tmp_path, model):
        def argv(n):
            return ["metrics", "--model", model, "--dim", str(n),
                    "--out", str(tmp_path / "m.json")]

        # the sizes take turns, so that a burst of load hits both
        seconds = {12: [], MAX_DIM: []}
        for _ in range(7):
            for n, times in seconds.items():
                start = time.perf_counter()
                assert run(argv(n)) == 0
                times.append(time.perf_counter() - start)
        peaks = {}
        for n in seconds:
            tracemalloc.start()
            try:
                assert run(argv(n)) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert min(seconds[MAX_DIM]) <= 2 * min(seconds[12])
        assert peaks[MAX_DIM] <= 2 * peaks[12]

    def test_qubit_default_point(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["metrics", "--model", "two", "--dim", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["r_ai"] == pytest.approx(1.0, abs=1e-6)

    # N < d: a qubit's three-parameter QFIM has rank 2, so det Q is 0 exactly;
    # a determinant by LU used to print it as -4.36e-15.
    def test_three_param_qubit_has_nonnegative_det_q(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["metrics", "--model", "three", "--dim", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["singular"] is True
        assert 0.0 <= doc["det_q"] <= 1e-12


class TestScalingCommand:
    def test_table_written(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = run(["scaling", "--model", "two", "--alphas", "0.7853981633974483",
                    "--dims", "4-8", "--b", "0.6283185307179586",
                    "--theta", "1.5707963267948966", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,N,Gamma,slope"
        assert len(lines) == 1 + 5
        slope = float(lines[1].split(",")[3])
        # at this point the ratio is exactly x^2 + x in x = N - 1
        x = np.arange(3, 8)
        expected = np.polyfit(np.log(x), np.log(x**2 + x), 1)[0]
        assert slope == pytest.approx(expected, abs=1e-6)

    def test_dims_list_form(self, tmp_path):
        out = tmp_path / "scaling.csv"
        assert run(["scaling", "--dims", "4,6,8", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 3

    def test_bad_dims_usage_error(self, tmp_path):
        assert run(["scaling", "--dims", "4..8", "--out", str(tmp_path / "x.csv")]) == 2

    # A LO-HI range is held to the dimension rule at both ends before it is
    # expanded: 4-20000000 built a 2 * 10^7 tuple (hundreds of MB) first.
    def test_range_past_the_cap_allocates_nothing(self, tmp_path):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = run(["scaling", "--dims", "4-20000000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1_000_000
        assert not out.exists()

    # The probe count of a table is checked before its range is expanded:
    # two angles over 4-1000000 is two probes past the cap.
    def test_table_past_the_cap_allocates_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = run(["scaling", "--alphas", "0.3,0.4", "--dims", f"4-{MAX_DIM}",
                        "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"at most {MAX_TABLE_PROBES}" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not out.exists()

    # A slope needs two distinct dimensions and at least one probe angle.
    # The empty --alphas is rejected before the --tol 0 check is reached.
    @pytest.mark.parametrize("argv", [
        ["--dims", "4"],
        ["--dims", "4,4,4"],
        ["--alphas", "", "--tol", "0"],
    ])
    def test_table_without_a_slope_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert run(["scaling", *argv, "--out", str(out)]) == 2
        assert not out.exists()


# A non-finite number is a usage error: exit 2, no traceback, no output.
# So is a non-finite --model-phi under --model two, which does not read it.
@pytest.mark.parametrize("argv", [
    ["metrics", "--b", "nan"],
    ["metrics", "--time", "inf"],
    ["metrics", "--alpha", "nan"],
    ["metrics", "--theta", "inf"],
    ["metrics", "--model", "three", "--model-phi", "nan"],
    ["metrics", "--model", "two", "--model-phi", "nan"],
    ["scan", "--alpha", "nan"],
    ["scan", "--time", "inf"],
    ["scan", "--dim", "3", "--phi", "inf"],
    ["scan", "--model", "three", "--model-phi", "inf"],
    ["scaling", "--b", "nan"],
    ["scaling", "--time", "inf"],
    ["scaling", "--alphas", "nan"],
    ["scaling", "--phi", "inf"],
    ["scaling", "--model", "two", "--model-phi", "inf"],
])
def test_non_finite_input_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# An empty CSV field or JSON null means "singular" and nothing else.  So a
# --tol outside (0, 1), which would flag (almost) every cell, is a usage
# error, and an input that overflows Q, D or Gamma is a numerical failure;
# neither leaves a traceback or an output file.  A negative fim-rank seed,
# which numpy's generator rejects, is a usage error too, and so is a size
# above its cap (probe dimension, scan grid cells, fim-rank parameters,
# outcomes and draws), before anything is allocated.
@pytest.mark.parametrize("argv, code", [
    *(([command, "--tol", tol], 2)
      for command in ("scan", "metrics", "scaling") for tol in ("inf", "1", "2")),
    *(([command, "--model", model, "--time", "1e300"], 1)
      for command in ("scan", "metrics", "scaling") for model in ("two", "three")),
    (["scaling", "--time", "1e152", "--tol", "1e-310", "--dims", "4,240"], 1),
    (["fim-rank", "--params", "2", "--outcomes", "3", "--trials", "1", "--seed", "-1"], 2),
    (["metrics", "--dim", "1000001"], 2),
    (["metrics", "--model", "three", "--dim", "1000001"], 2),
    (["scan", "--dim", "1000001"], 2),
    (["scaling", "--dims", "4,1000001"], 2),
    (["scan", "--grid", "101x9901"], 2),  # MAX_GRID_CELLS + 1 cells
    (["fim-rank", "--params", str(MAX_RANK_PARAMS + 1), "--trials", "1"], 2),
    (["fim-rank", "--outcomes", str(MAX_RANK_OUTCOMES + 1), "--trials", "1"], 2),
    (["fim-rank", "--trials", "100000000000000000000"], 2),  # past MAX_RANK_DRAWS
    (["scaling", "--dims", "4-1000001"], 2),
    (["scaling", "--dims", "4-99999999999"], 2),  # its range was built, then rejected
    (["scaling", "--model", "three", "--dims", "3-12"], 2),
])
def test_out_of_range_input_leaves_no_output(tmp_path, capsys, argv, code):
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# Inputs where only an oracle route overflows: the closed frame's B t / 2 is
# finite, but the series route's B t (|B| = 5e307 at t = 5) is not.  The
# route raises NumericalFailure: exit 1, with no traceback and no output.
# Everywhere else the routes are finite: at t = 1 and |B| near the largest
# float, at an angle near it (the complex-step route shifts no real point),
# and at t = 1e100, where the complex step stays at rounding.  These exit 0,
# with the complex-step route within a few eps of the closed frame.
@pytest.mark.parametrize("argv, code", [
    *((["metrics", "--model", model, f"--b={b}"], 1)
      for model in ("two", "three") for b in ("5e307", "-5e307")),
    *((["metrics", "--model", model, "--time=1", f"--b={b}"], 0)
      for model in ("two", "three") for b in ("1.7976e308", "-1.7976e308")),
    (["metrics", "--model", "two", "--time=1", "--b=1.79769e308"], 0),
    (["metrics", "--model", "three", "--theta=1.79769e308"], 0),
    (["metrics", "--model", "three", "--model-phi=-1.79769e308"], 0),
    (["metrics", "--model", "three", "--dim", "6", "--alpha", "0.5", "--b", "0.9", "--theta",
      "0.6", "--model-phi", "0.4", "--time", "1e100"], 0),
], ids=lambda row: " ".join(row) if isinstance(row, list) else str(row))
def test_oracle_route_overflow_exit_code(tmp_path, capsys, argv, code):
    out = tmp_path / "x.json"
    assert run([*argv, "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code == 0:
        residuals = json.loads(out.read_text())["generator_route_residuals"]
        assert residuals["numeric_vs_closed"] <= 4 * np.finfo(float).eps


# At a subnormal time, halving t first underflows it to 0: the closed frame's
# theta row read 0 where the series route's read 6.4e-16, a residual of
# 4.4e-4.  Every route takes B t / 2 by one rule, encoding._half_phase.
@pytest.mark.parametrize("model", ["two", "three"])
def test_subnormal_time_routes_agree(tmp_path, model):
    out = tmp_path / "m.json"
    argv = ["metrics", "--model", model, "--time=5e-324", "--b=1.7976e308", "--out", str(out)]
    assert run(argv) == 0
    residuals = json.loads(out.read_text())["generator_route_residuals"]
    assert residuals["series_vs_closed"] <= 1e-12
    assert residuals["numeric_vs_closed"] <= 1e-12


# Any numpy linear-algebra or floating-point error that escapes the library's
# own checks is a numerical failure too.
@pytest.mark.parametrize("error", [np.linalg.LinAlgError("SVD did not converge"),
                                   FloatingPointError("overflow encountered")])
def test_stray_numpy_error_is_numerical_failure(tmp_path, capsys, monkeypatch, error):
    def fail(**kwargs):
        raise error

    monkeypatch.setattr(cli, "metrics_report", fail)
    assert run(["metrics", "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "numerical consistency failure" in err and str(error) in err
    assert "Traceback" not in err


def test_non_finite_report_writes_nothing(tmp_path, capsys, monkeypatch):
    def report(config):
        return {"max_decomposition_residual": float("inf")}

    monkeypatch.setattr(cli, "fim_rank_experiment", report)
    out = tmp_path / "x.json"
    assert run(["fim-rank", "--trials", "1", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_singular_baseline_writes_no_warning(tmp_path):
    # Q_BB is about 1e200 here: the baseline is singular at every alpha, and
    # the symmetry check in sym_inverse no longer overflows to a numpy warning.
    done = run_fresh(["scaling", "--time", "1e100", "--dims", "4,5", "--out", "x.csv"],
                     cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "x.csv").read_text() == (
        "alpha,N,Gamma,slope\n0.78539816339744828,4,,\n0.78539816339744828,5,,\n"
    )


# Overflow inside a command is raised, not warned about: the process exits 1
# with the contract's one-line message and no raw numpy RuntimeWarning.
@pytest.mark.parametrize("argv", [
    ["scaling", "--model", "three", "--time", "1e300"],
    ["scaling", "--time", "1e152", "--tol", "1e-310", "--dims", "4,240"],
])
def test_overflow_exits_without_raw_warning(tmp_path, argv):
    done = run_fresh([*argv, "--out", "x.csv"], cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("spinmetro: numerical consistency failure")
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "x.csv").exists()


class TestFimRankCommand:
    def test_report_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["fim-rank", "--params", "2", "--outcomes", "2", "--trials", "300",
                "--seed", "7", "--out"]
        assert run(argv + [str(out1)]) == 0
        assert run(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["rank_violations"] == 0
        assert doc["full_rank_fraction"] == 0.0

    def test_bad_trials_usage_error(self, tmp_path):
        assert run(["fim-rank", "--trials", "0", "--out", str(tmp_path / "x.json")]) == 2


# Primary outputs are the same bytes under one and two BLAS threads.  Each
# run is a new interpreter, since OpenBLAS reads its thread count when numpy
# is imported.  The ops are the benchmark's heaviest of each command: the
# scan at N = 40, the scaling table up to N = 240; and a table of each model
# up to N = 20000, whose slopes each sum 19997 dimensions.  With one CPU both
# runs would use one thread and show nothing.
THREAD_OPS = {
    "scan": ["scan", "--model", "three", "--dim", "40", "--alpha", "0.4", "--phi", "1.3",
             "--model-phi", "2.2", "--time", "5", "--grid", "51x51"],
    "metrics": ["metrics", "--model", "three", "--dim", "12", "--alpha", "0.4", "--phi", "1.3",
                "--b", "0.8", "--theta", "0.6", "--model-phi", "2.2", "--time", "5"],
    "scaling": ["scaling", "--model", "three", "--alphas", "0.7853981633974483,0.3",
                "--dims", ",".join(map(str, range(4, 241, 4))), "--b", "0.8", "--theta", "0.6",
                "--model-phi", "2.2", "--time", "5"],
    "fim-rank": ["fim-rank", "--params", "8", "--outcomes", "16", "--trials", "1000",
                 "--seed", "3"],
    "scaling-4-20000-two": ["scaling", "--model", "two", "--alphas", "0.7853981633974483,0.3",
                            "--dims", "4-20000", "--b", "0.8", "--theta", "0.6", "--time", "5"],
    "scaling-4-20000-three": ["scaling", "--model", "three", "--alphas", "0.7853981633974483,0.3",
                              "--dims", "4-20000", "--b", "0.8", "--theta", "0.6",
                              "--model-phi", "2.2", "--time", "5"],
}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
class TestBlasThreads:
    @pytest.mark.parametrize("command", sorted(THREAD_OPS))
    def test_command_output_bytes(self, tmp_path, command):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.out"
            done = run_fresh([*THREAD_OPS[command], "--out", str(out)], cwd=tmp_path,
                             OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# A subcommand rejects flags it does not read.  (scaling --dim and --alpha
# are absent: argparse reads them as abbreviations of --dims and --alphas.)
IGNORED_FLAG_ROWS = [
    ["scan", "--seed", "1"],
    ["metrics", "--seed", "1"],
    ["metrics", "--grid", "3x3"],
    ["scaling", "--seed", "1"],
    ["scaling", "--grid", "3x3"],
    ["fim-rank", "--model", "two"],
    ["fim-rank", "--dim", "4"],
    ["fim-rank", "--alpha", "0.5"],
    ["fim-rank", "--phi", "0.5"],
    ["fim-rank", "--time", "5"],
    ["fim-rank", "--grid", "3x3"],
    ["fim-rank", "--tol", "1"],
]


class TestParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path):
        # Non-default flags, then a usage error, then the defaults: the last
        # report must not see anything of the first two.
        assert run(["metrics", "--model", "three", "--dim", "5", "--alpha", "0.3",
                    "--b", "0.2", "--tol", "1e-8", "--out", str(tmp_path / "a.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--dim", "three", "--out", str(tmp_path / "b.json")])
        assert exc.value.code == 2
        assert run(["metrics", "--out", str(tmp_path / "c.json")]) == 0
        fresh = run_fresh(["metrics", "--out", "d.json"], cwd=tmp_path)
        assert fresh.returncode == 0
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_option_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--nope", "--out", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", IGNORED_FLAG_ROWS)
    def test_ignored_flags_are_gone(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x.out")])
        assert exc.value.code == 2


# Every output goes through one writer that overwrites an existing --out in
# place and cuts it to length.
OPS = {
    "scan": ["scan", "--model", "three", "--dim", "3", "--grid", "9x7"],
    "metrics": ["metrics", "--model", "three", "--dim", "6"],
    "scaling": ["scaling", "--alphas", "0,0.7853981633974483", "--dims", "4,6,8"],
    "fim-rank": ["fim-rank", "--trials", "10"],
}


class TestOutputWriter:
    @pytest.mark.parametrize("command", sorted(OPS))
    def test_overwrite_of_longer_file_matches_fresh_file(self, tmp_path, command):
        fresh, stale = tmp_path / "fresh.out", tmp_path / "stale.out"
        stale.write_bytes(b"9" * 100_000 + b"\n")
        assert run([*OPS[command], "--out", str(fresh)]) == 0
        assert run([*OPS[command], "--out", str(stale)]) == 0
        assert 0 < len(fresh.read_bytes()) < 100_000
        assert stale.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", sorted(OPS))
    def test_dev_null_output(self, command):
        assert run([*OPS[command], "--out", "/dev/null"]) == 0

    def test_pipe_output_matches_file(self, tmp_path):
        # A CSV larger than a pipe's 64 KiB buffer, so the writer blocks
        # until the reader drains it.
        argv = ["scan", "--model", "three", "--dim", "3", "--grid", "41x41"]
        fifo, regular = tmp_path / "scan.fifo", tmp_path / "scan.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = run([*argv, "--out", str(fifo)])
        finally:
            # unblock a reader still waiting for a writer to open the pipe
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
        assert code == 0 and not reader.is_alive()
        assert run([*argv, "--out", str(regular)]) == 0
        assert len(received[0]) > 64 * 1024
        assert received[0] == regular.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", sorted(OPS))
    def test_full_device_is_file_system_error(self, capsys, command):
        assert run([*OPS[command], "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinmetro: ") and "Traceback" not in err

    # A scan that fails does so in run_scan, before its writer, which makes
    # the file's bytes as it writes them, is handed the path: run_scan
    # computes every block of the grid before it returns, so a failure in
    # a later block than the first opens no file either, and an existing
    # file keeps its bytes.  The failing block is the one that holds a
    # given theta row, whichever thread computes it: on one thread the
    # second block, after which no block starts.
    @pytest.mark.parametrize("model", ["two", "three"])
    def test_failed_scan_opens_no_file(self, tmp_path, monkeypatch, capsys, model):
        opened, write_text = [], analysis._write_text
        monkeypatch.setattr(analysis, "_write_text",
                            lambda *args: opened.append(args) or write_text(*args))
        out = tmp_path / "x.csv"
        argv = ["scan", "--model", model, "--grid", "101x101"]
        message = "spinmetro: numerical consistency failure: a bound is not finite on a regular QFIM\n"
        second = list(analysis._grid_blocks(101, 101))[1][0]
        failing_theta = np.linspace(0.0, 2 * np.pi, 101)[second.start]
        for threads in (1, 2):
            with monkeypatch.context() as patch:
                force_scan_threads(patch, threads)
                assert run(["scan", "--model", model, "--time", "1e300", "--out", str(out)]) == 1
                assert opened == [] and not out.exists()
                calls, frame = [], analysis.closed_frame

                def block_fails(b, theta, *args):
                    calls.append(theta)
                    if (theta == failing_theta).any():
                        raise NumericalFailure("a bound is not finite on a regular QFIM")
                    return frame(b, theta, *args)

                patch.setattr(analysis, "closed_frame", block_fails)
                capsys.readouterr()
                assert run([*argv, "--out", str(out)]) == 1
                assert capsys.readouterr().err == message
                assert opened == [] and not out.exists()
                assert len(calls) == 2 or threads == 2
                out.write_bytes(b"earlier result\n" * 100)
                calls.clear()
                assert run([*argv, "--out", str(out)]) == 1
                assert capsys.readouterr().err == message
                assert len(calls) == 2 or threads == 2
                assert opened == []
                assert out.read_bytes() == b"earlier result\n" * 100
                out.unlink()

    # Every thread of a scan computes under the command's numpy error
    # state, which a new thread does not inherit: an overflow in the helper
    # thread's blocks raises, as in the calling thread's, and is reported
    # as a numerical failure, with no RuntimeWarning, whichever block fails
    # first.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_scan_thread_has_the_error_state(self, monkeypatch, capsys, threads):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 4)
        scans = force_scan_threads(monkeypatch, threads)
        states, frame = [], analysis.closed_frame

        def recorded_frame(*args):
            states.append(np.geterr())
            return frame(*args)

        monkeypatch.setattr(analysis, "closed_frame", recorded_frame)
        argv = ["scan", "--model", "three", "--dim", "4", "--grid", "4x4", "--time", "1e300",
                "--out", "/dev/null"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 1
        assert capsys.readouterr().err == (
            "spinmetro: numerical consistency failure: overflow encountered in matmul\n")
        assert len(set(scans[-1])) == threads
        assert states and all(state["over"] == state["invalid"] == "raise" for state in states)

    # At a time whose field period 2 pi / t is not a finite float, the scan
    # failed with numpy's "invalid value encountered in multiply" from its
    # B axis; it fails now on the period itself, before any axis is built
    # or any file opened.
    @pytest.mark.parametrize("model", ["two", "three"])
    def test_period_overflow_opens_no_file(self, tmp_path, monkeypatch, capsys, model):
        opened = []
        monkeypatch.setattr(analysis, "_write_text", lambda *args: opened.append(args))
        out = tmp_path / "x.csv"
        argv = ["scan", "--model", model, "--grid", "2x2", "--time", "1e-320"]
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinmetro: numerical consistency failure: field period")
        assert "invalid value" not in err and "Traceback" not in err
        assert opened == [] and not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["scan", "--tol", "0"], 2),
        (["scan", "--time", "1e300"], 1),
        (["metrics", "--dim", "1000001"], 2),
        (["metrics", "--model", "three", "--time", "1e300"], 1),
        (["scaling", "--dims", "4"], 2),
        (["scaling", "--model", "three", "--time", "1e300"], 1),
        (["fim-rank", "--seed", "-1"], 2),
    ])
    def test_failed_op_leaves_existing_file_unchanged(self, tmp_path, argv, code):
        out = tmp_path / "x.out"
        out.write_bytes(b"earlier result\n" * 100)
        assert run([*argv, "--out", str(out)]) == code
        assert out.read_bytes() == b"earlier result\n" * 100

    def test_non_finite_report_leaves_existing_file_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "fim_rank_experiment", lambda config: {"x": float("nan")})
        out = tmp_path / "x.json"
        out.write_bytes(b"{}\n")
        assert run(["fim-rank", "--trials", "1", "--out", str(out)]) == 1
        assert out.read_bytes() == b"{}\n"

    # A metrics report is written from its template, which refuses a NaN or
    # an infinity in any field before the file is opened.
    @pytest.mark.parametrize("field, value", [("c_sld", float("nan")), ("det_q", float("inf")),
                                              ("r_ai", float("-inf"))])
    def test_non_finite_metrics_report_leaves_existing_file_unchanged(
            self, tmp_path, capsys, monkeypatch, field, value):
        def report(**kwargs):
            return {**metrics_report(**kwargs), field: value}

        monkeypatch.setattr(cli, "metrics_report", report)
        out = tmp_path / "x.json"
        out.write_bytes(b"{}\n")
        assert run(["metrics", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert out.read_bytes() == b"{}\n"


# The exit-code contract over every numeric flag of every command: each
# value exits 0, 1 or 2, with no traceback or warning, and a failed op
# leaves no file.  A value is passed as --flag=value, so that argparse
# reads -inf as a value and not as an option.  A size cap is tried only at
# cap + 1, which is rejected before anything is allocated.  --trials has
# no cap: a huge count is bounded in memory (one block of trials at a
# time) but not in time, so it gets only 0, -1 and a non-integer.
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300")
FUZZ_CAPS = {
    "--dim": str(MAX_DIM + 1),
    "--dims": str(MAX_DIM + 1),
    "--grid": "101x9901",
    "--params": str(MAX_RANK_PARAMS + 1),
    "--outcomes": str(MAX_RANK_OUTCOMES + 1),
}
FUZZ_FLAGS = {
    "scan": ("--dim", "--alpha", "--phi", "--time", "--tol", "--model-phi", "--grid"),
    "metrics": ("--dim", "--alpha", "--phi", "--time", "--tol", "--b", "--theta",
                "--model-phi"),
    "scaling": ("--phi", "--time", "--tol", "--b", "--theta", "--model-phi", "--alphas",
                "--dims"),
    "fim-rank": ("--params", "--outcomes", "--seed"),
}


def _fuzz_rows():
    for command, flags in FUZZ_FLAGS.items():
        models = ((),) if command == "fim-rank" else (("--model", "two"), ("--model", "three"))
        for model in models:
            # a small grid keeps the scans that run fast; --grid rows set their own
            base = [command, *model, *(["--grid", "5x5"] if command == "scan" else [])]
            for flag in flags:
                values = FUZZ_VALUES + ((FUZZ_CAPS[flag],) if flag in FUZZ_CAPS else ())
                for value in values:
                    if flag == "--grid" and value in FUZZ_VALUES:
                        value = f"{value}x{value}"
                    yield [*base, f"{flag}={value}"]
    for value in ("0", "-1", "1.5"):
        yield ["fim-rank", f"--trials={value}"]


@pytest.mark.parametrize("argv", list(_fuzz_rows()), ids=" ".join)
def test_fuzz_exit_code_contract(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    assert code == 0 or not out.exists()


# cli.main reads a known subcommand's plain argv from its flag table and
# hands every other argv to the parser.  Over the fuzz table, the parser
# tests above and the parser's own cases (no subcommand, an unknown one, -h,
# "--", leftover and abbreviated arguments), it gives the namespace of the
# full parser, or exits with its code, stdout and stderr.
PARSE_ROWS = [
    *([*argv, "--out", "x.out"] for argv in (*_fuzz_rows(), *IGNORED_FLAG_ROWS)),
    ["metrics", "--model", "three", "--dim", "5", "--alpha", "0.3", "--b", "0.2",
     "--tol", "1e-8", "--out", "a.json"],
    ["metrics", "--dim", "three", "--out", "b.json"],
    ["metrics", "--out", "c.json"],
    ["scan", "--nope", "--out", "x.csv"],
    [], ["-h"], ["--help"], ["nope"], ["nope", "--out", "x"], ["-x", "metrics"],
    ["--", "metrics", "--out", "x"], ["metrics", "--help"], ["metrics", "--he"],
    ["metrics", "-h", "extra"], ["metrics", "--", "x"], ["metrics", "--out", "x", "--", "y"],
    ["metrics", "--out", "x", "extra"], ["metrics", "--ou", "x", "extra", "-z"],
    ["metrics", "--out=x", "--model=three"], ["fim-rank", "--out", "x", "--seed", "-1"],
    ["scan", "--dim", "-1", "--out", "x"], ["scaling", "--di", "4,5", "--out", "x"],
    # the plain form, which the flag table reads or declines
    ["metrics", "--model", "four", "--out", "x"], ["metrics", "--dim", "2.0", "--out", "x"],
    ["metrics", "--model", "three", "--dim", "3", "--model", "two", "--out", "x", "--out", "y"],
    ["metrics", "--alpha", "nan", "--b", "1e400", "--dim", " 3", "--out", ""],
    ["fim-rank", "--seed", "1_0", "--out", "x"], ["scan", "--out", "-h"],
    ["scan", "--out", "x", "--grid"], ["scaling", "--out", "--", "x"],
]


def _parse_outcome(parse, argv):
    # a namespace as its sorted (name, repr) pairs, so that NaN values compare
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = sorted((name, repr(value)) for name, value in vars(parse(list(argv))).items())
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_ROWS, ids=lambda argv: " ".join(argv) or "(none)")
def test_subcommand_parse_matches_full_parse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(build_parser().parse_args, argv)


# The flag table takes a subcommand's argv of the plain form (--flag VALUE)*
# and hands any other to the parser; either way the outcome is the full
# parser's.  Argvs are drawn from canonical pairs of each
# subcommand, in random order and with repeats, and half of them perturbed
# the ways the table must decline: an abbreviated flag, --flag=value, an odd
# value (some of which convert), no --out, an inserted --, -h, unknown flag
# or leftover, and a dropped word.
CANONICAL = {
    "--model": ("two", "three"), "--dim": ("2", "5"), "--alpha": ("0.3", "1e-4"),
    "--phi": ("0.1",), "--time": ("5.0",), "--tol": ("1e-8",), "--b": ("0.6", "3"),
    "--theta": ("0.8",), "--model-phi": ("0.4",), "--out": ("x.out", "y"),
    "--grid": ("5x5",), "--alphas": ("0.1,0.2",), "--dims": ("4-8", "4,6"),
    "--params": ("3",), "--outcomes": ("4",), "--trials": ("10",), "--seed": ("7", "0"),
}
PLAIN_FLAGS = {
    "scan": ("--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out",
             "--model-phi", "--grid"),
    "metrics": ("--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out", "--b",
                "--theta", "--model-phi"),
    "scaling": ("--model", "--phi", "--time", "--tol", "--out", "--b", "--theta",
                "--model-phi", "--alphas", "--dims"),
    "fim-rank": ("--out", "--params", "--outcomes", "--trials", "--seed"),
}
ODD_VALUES = ("-0.5", "nan", "1_0", " 3", "", "1e400")
INSERTED = ("--", "-h", "--help", "--nope", "x")


@st.composite
def table_argvs(draw):
    command = draw(st.sampled_from(sorted(PLAIN_FLAGS)))
    pair = st.sampled_from(PLAIN_FLAGS[command]).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(CANONICAL[flag])))
    pairs = draw(st.lists(pair, max_size=8)) + [("--out", "x.out")] * draw(st.integers(1, 2))
    pairs = [list(p) for p in draw(st.permutations(pairs))]
    if draw(st.booleans()):  # half the draws are plain
        return [command, *(word for p in pairs for word in p)]
    kinds = st.sampled_from(["abbreviate", "join", "odd value", "no --out"])
    for i, kind in draw(st.dictionaries(st.integers(0, len(pairs) - 1), kinds,
                                        max_size=2)).items():
        flag, value = pairs[i]
        if kind == "abbreviate":
            pairs[i] = [flag[:draw(st.integers(2, len(flag) - 1))], value]
        elif kind == "join":
            pairs[i] = [f"{flag}={value}"]
        elif kind == "odd value":
            pairs[i] = [flag, draw(st.sampled_from(ODD_VALUES))]
        else:
            pairs = [p for p in pairs if p[0] != "--out"]
            break
    words = [word for p in pairs for word in p]
    for kind in draw(st.lists(st.sampled_from(["insert", "drop"]), max_size=2)):
        i = draw(st.integers(0, len(words)))
        if kind == "insert":
            words.insert(i, draw(st.sampled_from(INSERTED)))
        elif i < len(words):
            del words[i]
    return [command, *words]


@settings(max_examples=400, deadline=None)
@given(argv=table_argvs())
def test_flag_table_matches_full_parse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(build_parser().parse_args, argv)


# Every op of the benchmark's workloads takes the flag table: the argparse
# parser is not asked.  A silent fall-back to argparse would leave every
# output as it is and only cost time.
def test_workload_argvs_take_the_flag_table(monkeypatch):
    ops = [argv for _, argv in workload_ops()]
    want = [vars(build_parser().parse_args(argv)) for argv in ops]
    asked = []

    def counted():
        asked.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert [vars(cli._parse(argv)) for argv in ops] == want
    assert len(ops) == 554 and asked == []


# The contract between the table's values: each float flag of scan, metrics
# and scaling (scaling's probe angle is --alphas), on both models, at
# magnitudes log-uniform over 1e-310..1e308 with both signs.  Sizes stay at
# their defaults and scans at 5x5, so no draw allocates more than a default
# op, and the ops run in this process.
FLOAT_FLAGS = {
    "scan": ("--alpha", "--phi", "--time", "--tol", "--model-phi"),
    "metrics": ("--alpha", "--phi", "--time", "--tol", "--b", "--theta", "--model-phi"),
    "scaling": ("--alphas", "--phi", "--time", "--tol", "--b", "--theta", "--model-phi"),
}
FLOAT_ROWS = [
    (command, model, flag)
    for command, flags in FLOAT_FLAGS.items()
    for model in ("two", "three")
    for flag in flags
]
MAGNITUDES = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                       st.sampled_from((1.0, -1.0)), st.floats(-310.0, 308.0))


@pytest.mark.parametrize("command, model, flag", FLOAT_ROWS, ids=map(" ".join, FLOAT_ROWS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=MAGNITUDES)
def test_float_flags_keep_exit_code_contract(tmp_path, command, model, flag, value):
    out = tmp_path / "x.out"
    argv = [command, "--model", model, *(["--grid", "5x5"] if command == "scan" else []),
            f"{flag}={value!r}", "--out", str(out)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert code == 0 or not out.exists()
    out.unlink(missing_ok=True)


# The contract between the table's values for fim-rank's integer flags:
# --seed log-uniform over [0, 2^256), so seeds of one to eight 32-bit words,
# and negative a quarter of the time; --params and --outcomes up to their
# cap + 1 and --trials up to 64, so no draw allocates more than one block at
# the caps.  An accepted run must equal the per-trial oracle.
SEEDS = st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from((1, 1, 1, -1)),
                  st.integers(0, 256).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS, params=st.integers(0, MAX_RANK_PARAMS + 1),
       outcomes=st.integers(0, MAX_RANK_OUTCOMES + 1), trials=st.integers(0, 64))
def test_fim_rank_integer_flags_keep_exit_code_contract(tmp_path, seed, params, outcomes,
                                                        trials):
    out = tmp_path / "x.json"
    argv = ["fim-rank", f"--params={params}", f"--outcomes={outcomes}",
            f"--trials={trials}", f"--seed={seed}", "--out", str(out)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    valid = (1 <= params <= MAX_RANK_PARAMS and 2 <= outcomes <= MAX_RANK_OUTCOMES
             and trials >= 1 and seed >= 0)
    assert code == (0 if valid else 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if not valid:
        assert not out.exists()
        return
    got = json.loads(out.read_text())
    out.unlink()
    want = fim_rank_loop(spinmetro.RankExperimentConfig(n_params=params, n_outcomes=outcomes,
                                                        trials=trials, seed=seed))
    floats = ("max_normalized_det", "max_decomposition_residual")
    assert {k: v for k, v in got.items() if k not in floats} == {
        k: v for k, v in want.items() if k not in floats
    }
    assert got["max_normalized_det"] == pytest.approx(want["max_normalized_det"],
                                                      rel=1e-12, abs=1e-300)
    assert got["max_decomposition_residual"] <= 1e-13
    assert want["max_decomposition_residual"] <= 1e-13


# The contract between the table's values for the size flags of metrics,
# scan and scaling, on both models: metrics --dim, scan --dim and --grid, and
# scaling --dims in its N,N and LO-HI forms.  Each size is small (-3 to 300)
# or above every cap (10^6 + 1 to 2^40), so a valid grid has at most
# 200 x 200 cells and a valid table fewer than 300 dimensions, and a size
# above a cap is drawn only where it is rejected before anything is
# allocated.  The ops run in this process.
SIZES = st.one_of(st.integers(-3, 200), st.integers(MAX_DIM + 1, 1 << 40))
RANGE_ENDS = st.one_of(st.integers(0, 300), st.integers(MAX_DIM + 1, 1 << 40))
SIZE_CASES = {
    "metrics --dim": st.builds(
        lambda dim: (["metrics", f"--dim={dim}"], 2 <= dim <= MAX_DIM), SIZES),
    "scan --dim --grid": st.builds(
        lambda dim, a, b: (["scan", f"--dim={dim}", f"--grid={a}x{b}"],
                           2 <= dim <= MAX_DIM and 2 <= a and 2 <= b
                           and a * b <= MAX_GRID_CELLS),
        SIZES, SIZES, SIZES),
    "scaling --dims N,N": st.builds(
        lambda dims: (["scaling", "--dims=" + ",".join(map(str, dims))],
                      len(set(dims)) == len(dims) >= 2 and all(4 <= n <= MAX_DIM for n in dims)),
        st.lists(SIZES, min_size=1, max_size=4)),
    "scaling --dims LO-HI": st.builds(
        lambda lo, hi: (["scaling", f"--dims={lo}-{hi}"], 4 <= lo < hi <= MAX_DIM),
        RANGE_ENDS, RANGE_ENDS),
}


@pytest.mark.parametrize("model", ["two", "three"])
@pytest.mark.parametrize("case", list(SIZE_CASES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_size_flags_keep_exit_code_contract(tmp_path, model, case, data):
    (command, *flags), valid = data.draw(SIZE_CASES[case])
    out = tmp_path / "x.out"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, "--model", model, *flags, "--out", str(out)])
    assert code == (0 if valid else 2)
    if valid:
        assert err.getvalue() == ""
        out.unlink()
    else:
        assert err.getvalue().startswith("spinmetro: ") and err.getvalue().count("\n") == 1
        assert not out.exists()
