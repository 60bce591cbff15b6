"""Experiment drivers: grid scans, scaling, rank experiment, reports."""

import collections
import functools
import json
import math
import os
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmetro import (
    InvalidInput,
    NumericalFailure,
    ModelPoint,
    RankExperimentConfig,
    ScanConfig,
    bounds,
    closed_frame,
    closed_generators,
    fim_rank_experiment,
    frame_qfim_uhlmann,
    incompat_report,
    make_probe,
    metrics_report,
    run_scan,
    scaling_table,
    spin_moments,
)
from spinmetro import analysis, encoding, linalg, models
from spinmetro.analysis import (
    MAX_GRID_CELLS,
    MAX_TABLE_PROBES,
    MAX_RANK_OUTCOMES,
    MAX_RANK_PARAMS,
    RANK_BLOCK,
    _route_residuals,
)
from spinmetro.models import MAX_DIM, ProbeSpec

from conftest import (
    MODELS,
    csv_text_loop,
    fim_rank_loop,
    haar_state,
    points_for,
    rep,
    scaling_table_loop,
)
from oracles import shrinkage_fractions


def small_scan(dim=2, alpha=np.pi / 4, phi=0.0, t=5.0, counts=(21, 21), model_phi=None):
    return ScanConfig(
        probe=ProbeSpec(dim=dim, alpha=alpha, phi=phi),
        t=t,
        model_phi=model_phi,
        theta_count=counts[0],
        b_count=counts[1],
    )


class TestRunScan:
    def test_qubit_incompatibility_column_is_one(self):
        res = run_scan(small_scan())
        regular = ~res.singular
        assert regular.sum() > 300
        assert np.abs(res.r_ai[regular] - 1.0).max() < 1e-8

    def test_balanced_qudit_collapses_to_zero(self):
        res = run_scan(small_scan(dim=4, alpha=np.pi / 4))
        regular = ~res.singular
        assert regular.any()
        assert np.abs(res.r_ai[regular]).max() < 1e-8
        assert np.abs(res.delta[regular]).max() < 1e-8

    def test_three_param_r_column_is_one_number_per_probe(self, rng):
        # D = 2 A [<J>]x A^T up to sign and Q = 4 A Cov A^T, so Q^-1 D is
        # similar to Cov^-1 [<J>]x / 2 whatever the (invertible) frame A:
        # R = 1/2 sqrt(<J>^T Cov <J> / det Cov) on every regular cell.
        psi = haar_state(rng, 5)
        config = ScanConfig(probe=psi, t=5.0, model_phi=0.7, theta_count=21, b_count=21)
        res = run_scan(config)
        regular = ~res.singular
        assert regular.sum() > 300
        mean, cov = spin_moments(psi)
        want = 0.5 * np.sqrt(mean @ cov @ mean / np.linalg.det(cov))
        frame = closed_frame(res.b[regular], res.theta[regular], config.t, config.model_phi)
        w = np.linalg.eigvalsh(frame_qfim_uhlmann(frame, mean, cov)[0])
        tol = 1e3 * np.finfo(float).eps * w[:, -1] / w[:, 0] * want
        assert (np.abs(res.r_ai[regular] - want) <= tol).all()

    # The anticoherent tetrahedral spin-2 state (|2,2> + sqrt(2)|2,-1>)/sqrt(3)
    # has <J> = 0 and Cov = 2 I, so D = 0 and the three-parameter model is
    # compatible at every regular cell, outside the extreme-state family.  Its
    # support {0, 3} at N = 5 has windows that touch.
    def test_tetrahedral_state_is_compatible_everywhere(self):
        psi = np.zeros(5, dtype=complex)
        psi[[0, 3]] = [1 / np.sqrt(3), np.sqrt(2 / 3)]
        mean, cov = spin_moments(psi)
        assert np.abs(mean).max() <= 1e-15
        assert np.abs(cov - 2 * np.eye(3)).max() <= 4 * np.finfo(float).eps * 2
        config = ScanConfig(probe=psi, t=5.0, model_phi=0.7, theta_count=21, b_count=21)
        res = run_scan(config)
        regular = ~res.singular
        assert regular.sum() > 300
        assert res.r_ai[regular].max() <= 1e-15
        assert res.delta[regular].max() <= 1e-15

    def test_gap_ordering_cellwise(self):
        for config in (small_scan(t=5.0), small_scan(dim=4, alpha=np.pi / 2, t=10.0),
                       small_scan(dim=4, alpha=2 * np.pi / 3, model_phi=0.0)):
            res = run_scan(config)
            regular = ~res.singular
            assert (res.delta[regular] <= res.r_ai[regular] + 1e-9).all()
            assert (res.t_gap[regular] >= -1e-9).all()
            assert (res.delta[regular] >= -1e-12).all()

    def test_matches_pointwise_route(self, rng):
        config = small_scan(dim=4, alpha=2 * np.pi / 3, model_phi=0.4)
        res = run_scan(config)
        probe = make_probe(config.probe)
        for idx in rng.choice(res.theta.size, size=12, replace=False):
            point = ModelPoint(b=res.b[idx], theta=res.theta[idx], t=config.t,
                               phi=config.model_phi)
            report = incompat_report(
                closed_generators(rep(4), point), probe, rel_tol=config.rel_tol
            )
            assert report["singular"] == bool(res.singular[idx])
            assert report["det_q"] == pytest.approx(res.det_q[idx], rel=1e-9, abs=1e-12)
            if not report["singular"]:
                assert report["r_ai"] == pytest.approx(res.r_ai[idx], rel=1e-9, abs=1e-12)
                assert report["delta"] == pytest.approx(res.delta[idx], rel=1e-9, abs=1e-12)

    def test_csv_format_and_determinism(self, tmp_path):
        res = run_scan(small_scan(counts=(5, 4)))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res.write_csv(out1)
        run_scan(small_scan(counts=(5, 4))).write_csv(out2)
        data1, data2 = out1.read_bytes(), out2.read_bytes()
        assert data1 == data2
        lines = data1.decode().strip().split("\n")
        assert lines[0] == "theta,B,R,Delta,T,det_q,singular"
        assert len(lines) == 1 + 5 * 4
        # B = 0 column is singular: empty bound fields, flag set
        first = lines[1].split(",")
        assert first[2] == first[3] == first[4] == ""
        assert first[6] == "1"

    # det_q is the product of Q's eigenvalues clipped at 0, so a singular
    # cell that rounding leaves indefinite still reports det Q >= 0.
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [2, 3, 4, 12, 40])
    def test_det_q_is_never_negative(self, rng, model, n):
        for _ in range(3):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            model_phi = rng.uniform(0.0, 2 * np.pi)
            config = ScanConfig(probe=z / np.linalg.norm(z), t=5.0,
                                model_phi=model_phi if model == "three" else None,
                                theta_count=31, b_count=31)
            assert (run_scan(config).det_q >= 0.0).all()

    def test_period_default_range(self):
        res = run_scan(small_scan(t=10.0))
        assert res.b.max() == pytest.approx(2 * np.pi / 10.0)

    def test_row_major_order(self):
        res = run_scan(small_scan(counts=(3, 4)))
        assert np.allclose(res.theta[:4], res.theta[0])  # theta outer
        assert np.all(np.diff(res.b[:4]) > 0)  # B inner, increasing

    def test_memory_does_not_grow_with_dimension(self):
        # At N = 200 a dense (G, d, N, N) generator stack for this 5x5 grid
        # would take 25 * 3 * 200**2 * 16 B = 48 MB; the moment kernel never
        # forms an N x N matrix.
        config = small_scan(dim=200, alpha=0.4, counts=(5, 5), model_phi=0.3)
        tracemalloc.start()
        try:
            res = run_scan(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.theta.size == 25
        assert peak < 1_000_000

    # linalg.eigh_inverse returns the inverses of the regular cells alone;
    # with a NaN-padded (G, 3, 3) inverse stack this scan peaked at 794 B a
    # cell.  MAX_GRID_CELLS rests on this figure.
    def test_memory_per_cell(self):
        config = small_scan(dim=4, alpha=0.4, phi=0.3, counts=(101, 101), model_phi=1.0)
        tracemalloc.start()
        try:
            run_scan(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700 * 101**2

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            small_scan(counts=(1, 5))
        with pytest.raises(InvalidInput):
            ScanConfig(probe=ProbeSpec(dim=2, alpha=0.2), t=-1.0)

    # A float count used to reach linspace and raise its TypeError.
    @pytest.mark.parametrize("counts", [(5.5, 5), (5, 5.0), (True, 5), (5, np.True_)])
    def test_grid_counts_must_be_integers(self, counts):
        with pytest.raises(InvalidInput, match="must be an integer"):
            small_scan(counts=counts)

    def test_numpy_grid_counts_are_stored_as_ints(self, tmp_path):
        config = small_scan(counts=(np.int64(3), np.uint8(4)))
        assert type(config.theta_count) is int and type(config.b_count) is int
        run_scan(config).write_csv(tmp_path / "scan.csv")
        assert len((tmp_path / "scan.csv").read_text().splitlines()) == 1 + 3 * 4

    # Only the configurations are built here: no scan runs at the cap.
    def test_grid_cap(self):
        assert 1000 * 1000 == MAX_GRID_CELLS == 101 * 9901 - 1
        small_scan(counts=(1000, 1000))
        with pytest.raises(InvalidInput, match=str(MAX_GRID_CELLS)):
            small_scan(counts=(101, 9901))

    def test_tolerance_that_is_not_positive_is_rejected(self):
        with pytest.raises(InvalidInput):
            run_scan(replace(small_scan(counts=(3, 3)), rel_tol=0.0))

    def test_results_compare_by_identity(self):
        # Fields of arrays have no single truth value: == of two equal
        # results once raised ValueError and hash raised TypeError.
        point = ModelPoint(b=0.6, theta=0.8, t=5.0)
        for make in (lambda: run_scan(small_scan(counts=(3, 3))),
                     lambda: scaling_table([0.4], [4, 5], point)):
            a, b = make(), make()
            assert a == a and a != b and not (a == b)
            assert hash(a) == hash(a) and len({a, b, a}) == 2


# Every entry point reaches the tolerance rule of linalg.singular_mask: a
# string, None, a bool or a NaN is invalid input, not a raw TypeError.
@pytest.mark.parametrize("rel_tol", ["1e-10", None, True, math.nan, math.inf, 1.0])
@pytest.mark.parametrize("entry", ["metrics_report", "run_scan", "scaling_table"])
def test_tolerance_rule_at_every_entry_point(entry, rel_tol):
    point = ModelPoint(b=0.6, theta=0.8, t=5.0)
    calls = {
        "metrics_report": lambda: metrics_report(ProbeSpec(dim=3, alpha=0.4), point,
                                                 rel_tol=rel_tol),
        "run_scan": lambda: run_scan(replace(small_scan(counts=(3, 3)), rel_tol=rel_tol)),
        "scaling_table": lambda: scaling_table([0.4], [4, 5], point, rel_tol=rel_tol),
    }
    with pytest.raises(InvalidInput, match="singularity tolerance"):
        calls[entry]()


# Calls that once escaped as a raw AttributeError, TypeError or ValueError,
# each against the rule that now holds it: the model is the point's (a
# stray model name lands where a probe or point belongs), a point and a
# probe spec must be of their types, a time or a step is a positive number,
# an array argument an array of real numbers, and arrays that combine must
# broadcast together.  Only the library's own errors may escape.
POINT = ModelPoint(b=0.6, theta=0.8, t=5.0)
SPEC = ProbeSpec(dim=3, alpha=0.4)
LIBRARY_ERROR_CALLS = {
    "metrics_report-model-name": lambda: metrics_report("two", SPEC, POINT),
    "metrics_report-spec-array": lambda: metrics_report(make_probe(SPEC), POINT),
    "metrics_report-no-point": lambda: metrics_report(SPEC, None),
    "scaling_table-model-name": lambda: scaling_table("two", [0.3], [4, 5], POINT),
    "scaling_table-no-point": lambda: scaling_table([0.3], [4, 5], None),
    "run_scan-model-name": lambda: run_scan(ScanConfig(probe=SPEC, t=5.0, model_phi="two")),
    "frame_qfim_uhlmann-strings": lambda: frame_qfim_uhlmann("ab", np.zeros(3), np.eye(3)),
    "bounds-strings": lambda: bounds("ab", "cd"),
    "bounds-complex": lambda: bounds(np.eye(2), np.array([[0, 1j], [-1j, 0]])),
    "frame_qfim_uhlmann-ragged": lambda: frame_qfim_uhlmann([[1.0], [1.0, 2.0]], np.zeros(3),
                                                            np.eye(3)),
    "rank-lam-strings": lambda: RankExperimentConfig(2, 3, lam=["a", "b"]),
    "closed_frame-time-string": lambda: closed_frame(0.6, 0.8, t="x"),
    "closed_frame-field-string": lambda: closed_frame("a", 0.8, 5.0),
    "closed_frame-no-broadcast": lambda: closed_frame([1.0, 2.0], [1.0, 2.0, 3.0], 5.0),
    "frame_qfim_uhlmann-no-broadcast": lambda: frame_qfim_uhlmann(np.ones((2, 2, 3)),
                                                                  np.zeros((3, 3)),
                                                                  np.zeros((3, 3, 3))),
    "numeric_frame-step-string": lambda: encoding.numeric_frame(POINT, step="x"),
    "numeric_generators-step-string": lambda: encoding.numeric_generators(rep(2), POINT,
                                                                          step="x"),
    "write_json-numpy-scalar": lambda: analysis.write_json(os.devnull, {"a": np.int64(1)}),
    "write_json-mixed-keys": lambda: analysis.write_json(os.devnull, {1: 2, "a": 3}),
    # An int too large for a float is not a finite number.
    "ModelPoint-huge-int": lambda: ModelPoint(b=10**400, theta=0.1, t=5.0),
    "ProbeSpec-huge-int": lambda: ProbeSpec(3, 10**400),
    "ScanConfig-huge-int": lambda: ScanConfig(ProbeSpec(3, 0.1), t=10**400),
    "scaling_table-huge-int": lambda: scaling_table([10**400], [4, 5], POINT),
    # Python floats overflow to inf silently, so the oracle routes raise
    # NumericalFailure themselves: at B t, at a point lambda + h_l, at 2 h_l
    # and at the norm of a difference quotient.
    "series_frame-overflow": lambda: encoding.series_frame(ModelPoint(b=5e307, theta=0.8, t=5.0)),
    "numeric_frame-point-overflow":
        lambda: encoding.numeric_frame(ModelPoint(b=1.79769e308, theta=0.8, t=1.0)),
    "numeric_frame-step-overflow":
        lambda: encoding.numeric_frame(ModelPoint(b=0.6, theta=0.8, t=1e-10), step=1e308),
    "numeric_frame-norm-overflow":
        lambda: encoding.numeric_frame(ModelPoint(b=0.0, theta=0.8, t=1e300), step=1e-200),
    "metrics_report-route-overflow":
        lambda: metrics_report(SPEC, ModelPoint(b=5e307, theta=0.8, t=5.0)),
    **{f"{name}-no-point": functools.partial(fn, None)
       for name, fn in [("direction_vectors_2p", encoding.direction_vectors_2p),
                        ("direction_vectors_3p", encoding.direction_vectors_3p),
                        ("series_frame", encoding.series_frame),
                        ("numeric_frame", encoding.numeric_frame)]},
    **{f"{name}-no-point": functools.partial(fn, rep(2), None)
       for name, fn in [("hamiltonian", encoding.hamiltonian),
                        ("closed_generators", encoding.closed_generators),
                        ("series_generators", encoding.series_generators),
                        ("numeric_generators", encoding.numeric_generators)]},
    "qubit2p_closed-no-point": lambda: models.qubit2p_closed([0.0, 0.0, 1.0], None),
    "qudit2p_closed-no-point": lambda: models.qudit2p_closed(ProbeSpec(dim=5, alpha=0.3), None),
    "threeparam_uhlmann_closed-no-point":
        lambda: models.threeparam_uhlmann_closed(rep(2), np.array([1.0, 0.0]), None),
}


@pytest.mark.parametrize("call", LIBRARY_ERROR_CALLS.values(), ids=LIBRARY_ERROR_CALLS.keys())
def test_only_library_errors_escape(call):
    with pytest.raises((InvalidInput, NumericalFailure)):
        call()


def read_csv(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


def same_bits(fields, values) -> bool:
    return np.array([float(x) for x in fields]).tobytes() == np.asarray(values, float).tobytes()


class TestCsvWriter:
    # Columns are written from their arrays: every float field reads back to
    # the same bits, NaN is the empty field and flags are 1/0.

    def test_scan_columns_round_trip(self, tmp_path):
        res = run_scan(small_scan(counts=(9, 7)))
        assert res.singular.any() and not res.singular.all()
        out = tmp_path / "scan.csv"
        res.write_csv(out)
        header, rows = read_csv(out)
        assert header == list(res.HEADER)
        theta, b, r, delta, t_gap, det_q, flags = map(np.array, zip(*rows))
        assert same_bits(theta, res.theta) and same_bits(b, res.b)
        assert theta[-1] == "6.2831853071795862"  # 17 significant digits of 2 pi
        assert same_bits(det_q, res.det_q)
        assert set(flags) == {"0", "1"}
        assert ((flags == "1") == res.singular).all()
        regular = ~res.singular
        for fields, values in ((r, res.r_ai), (delta, res.delta), (t_gap, res.t_gap)):
            assert ((fields == "") == res.singular).all()
            assert same_bits(fields[regular], values[regular])

    def test_scaling_columns_round_trip(self, tmp_path):
        # alpha = 0 at theta = pi/2 has a singular qubit baseline.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table([0.0, np.pi / 4], [4, 5, 7], point)
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        header, rows = read_csv(out)
        assert header == list(table.HEADER)
        expected = [(a, n) for a in table.alphas for n in table.dims]
        assert len(rows) == len(expected)
        cells = [(k, j) for k in range(len(table.alphas)) for j in range(len(table.dims))]
        for (alpha_f, n_f, gamma_f, slope_f), (alpha, n), (k, j) in zip(rows, expected, cells):
            assert same_bits([alpha_f], [alpha])
            assert n_f == str(n)
            gamma, slope = table.gamma[k, j], table.slope[k]
            if alpha == 0.0:
                assert np.isnan(gamma) and np.isnan(slope)
                assert gamma_f == slope_f == ""
            else:
                assert same_bits([gamma_f, slope_f], [gamma, slope])

    # The grid writer writes exactly what the per-field formatter does, for
    # the values whose text is special as row values, as axis values and as
    # values of a column that holds one value per outer axis value.
    def test_row_format_matches_field_formatter(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                            -1e300, 2 * np.pi, 0.1, 12345678901234567.0, 1e-7])
        outer, inner = special, np.roll(special[:-1], 4)
        cells = outer.size * inner.size
        columns = [np.resize(np.roll(special, k), cells) for k in range(3)]
        columns += [np.full(cells, np.nan), np.arange(cells) % 3 == 0]
        per_outer = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1], outer.size)
        header = ("outer", "inner", "a", "nan_count", "c", "d", "flag", "per_outer")
        out = tmp_path / "x.csv"
        analysis._write_csv(out, header, outer, inner, columns, (per_outer,))
        axes = [np.repeat(outer, inner.size), np.tile(inner, outer.size)]
        repeated = [np.repeat(per_outer, inner.size)]
        assert out.read_text() == csv_text_loop(header, axes + columns + repeated)

    # Each result type writes the text of its columns in full, one field at
    # a time; non-square grids catch a swap of the outer and inner axes.
    @pytest.mark.parametrize("config", [
        small_scan(counts=(3, 7)),
        small_scan(counts=(7, 3)),
        small_scan(counts=(2, 2)),
        small_scan(dim=2, counts=(5, 4), model_phi=0.3),
    ], ids=["3x7", "7x3", "2x2", "three-qubit-all-singular"])
    def test_scan_matches_field_formatter(self, tmp_path, config):
        res = run_scan(config)
        if config.model_phi is not None:
            assert res.singular.all()
        out = tmp_path / "scan.csv"
        res.write_csv(out)
        columns = (res.theta, res.b, res.r_ai, res.delta, res.t_gap, res.det_q, res.singular)
        assert out.read_text() == csv_text_loop(res.HEADER, columns)

    def test_scaling_matches_field_formatter(self, tmp_path):
        # alpha = 0 at theta = pi/2 has a singular qubit baseline.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table([0.0, np.pi / 4, 1.2], [4, 5, 1000], point)
        assert np.isnan(table.slope[0])
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        rows = [(a, n, table.gamma[k, j], table.slope[k])
                for k, a in enumerate(table.alphas) for j, n in enumerate(table.dims)]
        assert out.read_text() == csv_text_loop(table.HEADER, np.array(rows, dtype=float).T)


class TestWriteText:
    # Every output goes through analysis._write_text: an existing file is
    # overwritten in place and cut to length, and a path that is not a
    # regular file is written without being cut.

    def test_overwrite_leaves_no_stale_tail(self, tmp_path):
        out = tmp_path / "x.txt"
        out.write_text("stale " * 1000)
        analysis._write_text(out, "short\n")
        assert out.read_bytes() == b"short\n"
        analysis._write_text(out, "longer text\n")
        assert out.read_bytes() == b"longer text\n"

    def test_pipe(self):
        read_end, write_end = os.pipe()
        try:
            analysis._write_text(f"/dev/fd/{write_end}", "through a pipe\n")
            assert os.read(read_end, 100) == b"through a pipe\n"
        finally:
            os.close(read_end)
            os.close(write_end)


class TestShrinkage:
    def test_identical_grids(self):
        res = run_scan(small_scan())
        f1, f2 = shrinkage_fractions(res, res)
        assert f1 == f2

    def test_qubit_small_gap_region_shrinks_with_time(self):
        res5 = run_scan(small_scan(t=5.0, counts=(41, 41)))
        res10 = run_scan(small_scan(t=10.0, counts=(41, 41)))
        f5, f10 = shrinkage_fractions(res5, res10)
        assert f10 < f5

    def test_all_singular_grid_reports_none(self):
        res = run_scan(small_scan(dim=2, counts=(7, 7), model_phi=0.0))
        assert res.singular.all()
        f1, f2 = shrinkage_fractions(res, res)
        assert f1 is None and f2 is None

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            shrinkage_fractions(run_scan(small_scan(counts=(5, 4))),
                                run_scan(small_scan(counts=(4, 5))))


class TestScalingTable:
    def test_two_param_table(self, tmp_path):
        point = ModelPoint(b=np.pi / 5, theta=np.pi / 2, t=5.0)
        table = scaling_table([np.pi / 4], range(4, 13), point)
        assert table.gamma.shape == (1, 9) and table.slope.shape == (1,)
        x = np.arange(3, 12)
        assert np.allclose(table.gamma[0], x**2 + x, rtol=1e-9)
        assert table.slope[0] == pytest.approx(1.8494, abs=5e-4)
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,N,Gamma,slope"
        assert len(lines) == 1 + 9

    def test_three_param_closed_form(self):
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=1.0)
        table = scaling_table([np.pi / 4], [4, 6, 9, 12], point)
        for j, n in enumerate((4, 6, 9, 12)):
            assert table.gamma[0, j] == pytest.approx((n - 1) + (n - 1) * (n - 4) / 9, rel=1e-10)

    def test_singular_baseline_flag_row(self, tmp_path):
        # alpha = 0 probe at theta = pi/2 makes the qubit reference singular.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table([0.0, np.pi / 4], [4, 5], point)
        assert np.isnan(table.slope[0])
        assert np.isnan(table.gamma[0, 0])
        assert not np.isnan(table.slope[1])
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        rows = out.read_text().strip().split("\n")[1:]
        assert rows[0].split(",")[2] == ""  # empty Gamma for the flagged alpha

    def test_dimension_validation(self):
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput):
            scaling_table([0.3], [2, 4], point)

    # Float dimensions were truncated (4.7 ran as 4) and strings were taken.
    @pytest.mark.parametrize("dims", [[4.7, 8.2], [4.0, 8], ["4", "8"], [4, True]])
    def test_dimensions_must_be_integers(self, dims):
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput, match="must be an integer"):
            scaling_table([0.3], dims, point)

    def test_numpy_dimensions_are_stored_as_ints(self):
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        table = scaling_table([0.3], np.array([4, 8]), point)
        assert table.dims == (4, 8) and all(type(n) is int for n in table.dims)
        assert table.gamma.shape == (1, 2)

    def test_dimension_cap_is_checked_before_any_probe(self, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "extreme_moments", lambda *args: built.append(args))
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput, match=str(MAX_DIM)):
            scaling_table([0.3], [4, MAX_DIM + 1], point)
        assert built == []

    # Each angle and the phase are held to the float rule: a string of
    # angles raised a plain ValueError, None a TypeError, and "0.3" was
    # taken as 0.3.
    @pytest.mark.parametrize("alphas, probe_phi", [
        ("ab", 0.0), ([None], 0.0), (["0.3"], 0.0), ([0.3, math.nan], 0.0), ([True], 0.0),
        (0.3, 0.0), ([0.3], "0.7"), ([0.3], math.inf),
    ])
    def test_angles_must_be_finite_numbers(self, alphas, probe_phi):
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput):
            scaling_table(alphas, [4, 8], point, probe_phi=probe_phi)

    # The probe count is checked from the lengths before a dimension is
    # expanded or checked, so a range past the cap allocates nothing.
    def test_probe_cap_is_checked_before_anything_is_allocated(self, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "extreme_moments", lambda *args: built.append(args))
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        dims = range(4, 4 + MAX_TABLE_PROBES // 2)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match=str(MAX_TABLE_PROBES)):
                scaling_table([0.3, 0.4], dims, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [] and peak < 100_000

    # The cap keeps a table's traced peak within 1 GB: the peak per probe,
    # measured on a table of 20 000 probes, times the cap.
    @pytest.mark.parametrize("alphas, count", [(1, 20_000), (40, 500)])
    def test_probe_cap_fits_the_memory_budget(self, alphas, count):
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=1.0)
        tracemalloc.start()
        try:
            table = scaling_table(np.linspace(0.2, 1.2, alphas),
                                  range(4, 4 + count), point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(table.gamma).all()
        assert peak / (alphas * (1 + count)) * MAX_TABLE_PROBES <= 1e9

    # alpha = 0 makes the baseline singular at the first and last points: the
    # qubit reference at theta = pi/2, and the N = 4 three-parameter one
    # everywhere (its spin covariance has rank 2).
    @pytest.mark.parametrize("point", [
        pytest.param(ModelPoint(b=0.9, theta=np.pi / 2, t=5.0), id="ModelKind.TWO_PARAM-point0"),
        pytest.param(ModelPoint(b=1.1, theta=2.6, t=5.0), id="ModelKind.TWO_PARAM-point1"),
        pytest.param(ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.1),
                     id="ModelKind.THREE_PARAM-point2"),
    ])
    def test_stacked_table_equals_per_probe_loop(self, point):
        alphas, dims = (0.0, np.pi / 4, 0.3, 1.2), (4, 5, 9, 40, 240)
        table = scaling_table(alphas, dims, point, probe_phi=0.7)
        gamma, slope = scaling_table_loop(alphas, dims, point, probe_phi=0.7)
        np.testing.assert_array_equal(table.gamma, gamma, strict=True)
        np.testing.assert_array_equal(table.slope, slope, strict=True)
        if point.theta == np.pi / 2 or point.n_params == 3:
            assert np.isnan(slope[0])
        assert not np.isnan(slope[1:]).any()

    # Each slope against a 50-digit fit of the same float logs, within the
    # first-order rounding bound of the centered formula derived in README:
    # (k + 4) u (kappa + 1) + n (k + 1)^2 u^2 (X Y / |Sxy| + X^2 / Sxx), with
    # k = 16 + ceil(log2 n) bounding numpy's pairwise sum, u = 2^-53,
    # kappa = sum|dx dy| / |Sxy| and X, Y the largest |log x|, |log Gamma|.
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("dims", [tuple(range(4, 241, 4)), (4, 5, 9, 40, 240, 5000),
                                      (7, 4)], ids=["every-fourth", "sparse", "two"])
    def test_slopes_match_a_50_digit_fit(self, model, dims):
        u, n = 2.0**-53, len(dims)
        k = 16 + math.ceil(math.log2(n))
        lx = np.log(np.array(dims, dtype=float) - (1.0 if model == "two" else 0.0))
        big_x = np.abs(lx).max()
        for point in points_for(model):
            table = scaling_table((0.3, np.pi / 4, 1.2), dims, point, probe_phi=0.7)
            for slope, gamma in zip(table.slope.tolist(), table.gamma):
                ly = np.log(gamma)
                big_y = np.abs(ly).max()
                with mpmath.workdps(50):
                    mx, my = (mpmath.fsum(map(mpmath.mpf, v)) / n for v in (lx, ly))
                    dx = [mpmath.mpf(v) - mx for v in lx.tolist()]
                    dy = [mpmath.mpf(v) - my for v in ly.tolist()]
                    sxy = mpmath.fsum(a * b for a, b in zip(dx, dy))
                    sxx = mpmath.fsum(a * a for a in dx)
                    kappa = mpmath.fsum(abs(a * b) for a, b in zip(dx, dy)) / abs(sxy)
                    rel = float(abs(slope - sxy / sxx) / abs(sxy / sxx))
                    bound = float((k + 4) * u * (kappa + 1) + n * (k + 1)**2 * u * u
                                  * (big_x * big_y / abs(sxy) + big_x**2 / sxx))
                assert rel <= bound

    # A slope is fitted from its own row alone: the slope of a one-alpha
    # table is bitwise that alpha's slope in any larger table.
    @pytest.mark.parametrize("model", MODELS)
    def test_slope_does_not_depend_on_the_other_alphas(self, model, rng):
        for _ in range(25):
            point = ModelPoint(b=rng.uniform(0.1, 1.2), theta=rng.uniform(0.0, np.pi), t=5.0,
                               phi=None if model == "two" else rng.uniform(0.0, 2 * np.pi))
            alphas = rng.uniform(0.05, 1.5, rng.integers(2, 41))
            dims = rng.choice(np.arange(4, 400), rng.integers(2, 81), replace=False)
            k = rng.integers(alphas.size)
            table = scaling_table(alphas, dims, point)
            alone = scaling_table(alphas[k:k + 1], dims, point)
            assert alone.slope.tobytes() == table.slope[k:k + 1].tobytes()

    def test_one_kernel_call_per_table(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analysis, "frame_qfim_uhlmann",
                            counted("kernel", analysis.frame_qfim_uhlmann))
        monkeypatch.setattr(analysis, "extreme_moments",
                            counted("moments", analysis.extreme_moments))
        monkeypatch.setattr(analysis, "eigh_inverse", counted("inverse", analysis.eigh_inverse))
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        # alpha = 0 has a singular baseline; its probes are still in the one
        # moments call
        scaling_table([0.0, np.pi / 4, 0.3], [4, 8, 12, 16], point)
        assert calls == {"kernel": 1, "moments": 1, "inverse": 1}


class TestFimRankExperiment:
    def test_too_few_outcomes_always_singular(self):
        report = fim_rank_experiment(RankExperimentConfig(n_params=2, n_outcomes=2, trials=1000, seed=5))
        assert report["rank_violations"] == 0
        assert report["full_rank_fraction"] == 0.0
        assert report["max_normalized_det"] <= 1e-12
        assert report["max_rank"] <= 1

    def test_enough_outcomes_generically_full_rank(self):
        report = fim_rank_experiment(RankExperimentConfig(n_params=2, n_outcomes=3, trials=1000, seed=5))
        assert report["rank_violations"] == 0
        assert report["full_rank_fraction"] > 0.99

    def test_product_decomposition_single_trial(self):
        report = fim_rank_experiment(RankExperimentConfig(n_params=3, n_outcomes=4, trials=1, seed=11))
        assert report["max_decomposition_residual"] < 1e-10

    def test_decomposition_residual_bulk(self):
        report = fim_rank_experiment(RankExperimentConfig(n_params=3, n_outcomes=5, trials=200, seed=2))
        assert report["max_decomposition_residual"] < 1e-10

    def test_determinism_and_schedule_independence(self):
        config = RankExperimentConfig(n_params=2, n_outcomes=4, trials=50, seed=9)
        assert fim_rank_experiment(config) == fim_rank_experiment(config)
        # a shorter run's draws are a prefix of a longer one's, so the
        # longer run extends it without changing its head statistics
        short = fim_rank_experiment(RankExperimentConfig(n_params=2, n_outcomes=4, trials=10, seed=9))
        assert short["max_rank"] <= fim_rank_experiment(config)["max_rank"]

    def test_nondefault_evaluation_point(self):
        config = RankExperimentConfig(
            n_params=2, n_outcomes=4, trials=20, seed=3, lam=np.array([0.4, -1.2])
        )
        report = fim_rank_experiment(config)
        assert report["lam"] == [0.4, -1.2]
        assert report["rank_violations"] == 0

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            RankExperimentConfig(n_params=0, n_outcomes=3)
        with pytest.raises(InvalidInput):
            RankExperimentConfig(n_params=2, n_outcomes=1)

    # Only the configurations are built here: no experiment runs at a cap.
    def test_size_caps(self):
        RankExperimentConfig(n_params=MAX_RANK_PARAMS, n_outcomes=MAX_RANK_OUTCOMES)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_PARAMS)):
            RankExperimentConfig(n_params=MAX_RANK_PARAMS + 1, n_outcomes=3)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_OUTCOMES)):
            RankExperimentConfig(n_params=2, n_outcomes=MAX_RANK_OUTCOMES + 1)

    # A negative seed used to escape as numpy's ValueError, and a NaN in lam
    # gave max_rank 0 and no violations, as if the bound held.
    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1),
        dict(seed=1.5),
        dict(lam=[np.nan, 1.0]),
        dict(lam=[0.0, np.inf]),
        dict(lam=[0.0, 1.0, 2.0]),
    ])
    def test_bad_seed_or_point_is_invalid(self, kwargs):
        with pytest.raises(InvalidInput):
            RankExperimentConfig(n_params=2, n_outcomes=3, trials=4, **kwargs)

    # A numpy-int count used to run the experiment and then fail in
    # write_json with a raw TypeError; a float count failed in range, and a
    # bool seed was echoed as true.
    @pytest.mark.parametrize("kwargs", [
        dict(trials=2.5),
        dict(n_outcomes=3.0),
        dict(n_params=2.0),
        dict(seed=True),
        dict(seed=np.True_),
        dict(trials=False),
        dict(seed="7"),
    ])
    def test_counts_and_seed_must_be_integers(self, kwargs):
        with pytest.raises(InvalidInput, match="must be an integer"):
            RankExperimentConfig(**{**dict(n_params=2, n_outcomes=3, trials=4), **kwargs})

    @pytest.mark.parametrize("kwargs", [
        dict(n_params=np.int64(2)),
        dict(n_outcomes=np.int16(3)),
        dict(trials=np.int32(4)),
        dict(seed=np.uint64(7)),
        dict(seed=np.int8(7)),
    ])
    def test_numpy_integers_are_stored_as_ints(self, tmp_path, kwargs):
        config = RankExperimentConfig(**{**dict(n_params=2, n_outcomes=3, trials=4, seed=7),
                                         **kwargs})
        fields = (config.n_params, config.n_outcomes, config.trials, config.seed)
        assert all(type(v) is int for v in fields)
        assert fields == (2, 3, 4, 7)
        out = tmp_path / "rank.json"
        analysis.write_json(out, fim_rank_experiment(config))
        doc = json.loads(out.read_text())
        assert doc == fim_rank_loop(RankExperimentConfig(n_params=2, n_outcomes=3, trials=4,
                                                         seed=7))
        assert type(doc["seed"]) is int

    # One stream consumed in trial order: the result is the same whatever
    # the block size, a block of one trial, a size that leaves a partial
    # last block or the default.
    @pytest.mark.parametrize("d, n", [(2, 3), (3, 4)])
    def test_block_size_does_not_change_results(self, monkeypatch, d, n):
        config = RankExperimentConfig(n_params=d, n_outcomes=n, trials=300, seed=21,
                                      lam=np.linspace(-0.5, 0.5, d))
        results = []
        for block in (1, 37, 256):
            monkeypatch.setattr(analysis, "RANK_BLOCK", block)
            results.append(fim_rank_experiment(config))
        assert results[0] == results[1] == results[2]

    def test_one_generator_per_run(self, monkeypatch):
        # Every block draws from the one generator of (seed, d, n): 1000
        # trials in four blocks build it once.
        seeds = []
        default_rng = np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        report = fim_rank_experiment(RankExperimentConfig(n_params=2, n_outcomes=3,
                                                          trials=1000, seed=5))
        assert report["trials"] == 1000
        assert seeds == [(5, 2, 3)]

    # Several blocks, the last one partial, so the stacking is exercised
    # across block boundaries.
    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 4), (4, 6)])
    def test_stacked_trials_match_per_trial_loop(self, d, n):
        config = RankExperimentConfig(n_params=d, n_outcomes=n, trials=2 * RANK_BLOCK + 37,
                                      seed=17, lam=np.linspace(-0.5, 0.5, d))
        got, want = fim_rank_experiment(config), fim_rank_loop(config)
        floats = ("max_normalized_det", "max_decomposition_residual")
        assert {k: v for k, v in got.items() if k not in floats} == {
            k: v for k, v in want.items() if k not in floats
        }
        assert got["max_normalized_det"] == pytest.approx(want["max_normalized_det"],
                                                          rel=1e-12, abs=1e-300)
        assert got["max_decomposition_residual"] <= 1e-13
        assert want["max_decomposition_residual"] <= 1e-13

    # Far from the origin some trials put p below 1e-14 on all outcomes but
    # one: their FIM vanishes, up to rounding, which must skip that trial
    # only, as the loop does, and not the rest of its block.  Enough blocks
    # run that some trials keep two or more outcomes and are informative.
    def test_vanishing_fim_skips_only_its_own_trial(self):
        config = RankExperimentConfig(n_params=2, n_outcomes=3, trials=4 * RANK_BLOCK,
                                      seed=1, lam=[40.0, -40.0])
        rng = np.random.default_rng((1, 2, 3))
        draws = rng.standard_normal((config.trials, 3 + 3 * 2))
        z = draws[:, :3] + draws[:, 3:].reshape(-1, 3, 2) @ config.lam_point()
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert ((p >= 1e-14).sum(axis=1) == 1).any()
        got, want = fim_rank_experiment(config), fim_rank_loop(config)
        assert want["max_normalized_det"] > 0.1
        assert got["max_normalized_det"] == pytest.approx(want["max_normalized_det"], rel=1e-12)
        assert got["max_rank"] == want["max_rank"]
        assert got["full_rank_fraction"] == want["full_rank_fraction"]

    # There the decomposition used to divide by those probabilities and the
    # residual of a vanishing FIM by 1e-300: it came out inf, which no JSON
    # can hold, after numpy overflow warnings.
    @pytest.mark.filterwarnings("error")
    def test_far_point_fields_are_finite(self):
        config = RankExperimentConfig(n_params=2, n_outcomes=3, trials=1000, seed=1,
                                      lam=[40.0, -40.0])
        got, want = fim_rank_experiment(config), fim_rank_loop(config)
        assert got == want
        json.dumps(got, allow_nan=False)
        assert 0 < got["max_decomposition_residual"] < 2
        assert 0.1 < got["max_normalized_det"] < 1

    def test_peak_memory_does_not_grow_with_trials(self):
        def peak(blocks):
            config = RankExperimentConfig(n_params=4, n_outcomes=6, trials=blocks * RANK_BLOCK)
            tracemalloc.start()
            try:
                fim_rank_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm caches outside the measurement
        assert peak(8) <= 1.05 * peak(2)


class TestMetricsReport:
    def test_qubit_regular_point(self):
        doc = metrics_report(ProbeSpec(dim=2, alpha=np.pi / 4), ModelPoint(b=0.9, theta=0.7, t=5.0))
        assert doc["singular"] is False
        assert doc["r_ai"] == pytest.approx(1.0, abs=1e-6)
        assert doc["c_h"] >= doc["c_sld"]
        # The numeric bound holds the central-difference truncation,
        # h^2 (t/2)^3 / 6 = 2.6e-10 at h = 1e-5 and t = 5, and the rounding
        # eps / h = 2e-11 of the exact spin-1/2 U, with room to spare.
        resid = doc["generator_route_residuals"]
        assert resid["series_vs_closed"] < 1e-14
        assert resid["numeric_vs_closed"] < 1e-8

    def test_three_param_cosine(self):
        doc = metrics_report(ProbeSpec(dim=6, alpha=np.pi / 3),
                             ModelPoint(b=0.9, theta=0.6, t=5.0, phi=0.4))
        assert doc["r_ai"] == pytest.approx(0.5, abs=1e-6)

    def test_compatible_configuration(self):
        doc = metrics_report(ProbeSpec(dim=4, alpha=np.pi / 4), ModelPoint(b=0.9, theta=0.8, t=5.0))
        assert doc["delta"] == pytest.approx(0.0, abs=1e-10)
        assert doc["c_h"] == pytest.approx(doc["c_sld"], rel=1e-10)

    def test_singular_point_partial_report(self):
        doc = metrics_report(ProbeSpec(dim=2, alpha=0.3),
                             ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.0))
        assert doc["singular"] is True
        assert doc["c_sld"] is None and doc["r_ai"] is None
        assert doc["det_q"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 40])
    def test_matches_dense_oracle(self, model, n):
        # The report takes (Q, D) from the frame kernel; the dense generators
        # and incompat_report are its oracle.
        eps = np.finfo(float).eps
        for point in points_for(model):
            for alpha, phi in ((0.3, 0.0), (np.pi / 4, 1.7), (1.2, 4.0)):
                spec = ProbeSpec(dim=n, alpha=alpha, phi=phi)
                doc = metrics_report(spec, point)
                dense = incompat_report(closed_generators(rep(n), point), make_probe(spec))
                assert doc.keys() >= dense.keys()
                assert doc["singular"] == dense["singular"]
                assert doc["labels"] == dense["labels"]
                q_dense = np.array(dense["Q"])
                scale = np.abs(q_dense).max()
                assert np.abs(np.array(doc["Q"]) - q_dense).max() <= 1e-12 * scale
                assert np.abs(np.array(doc["D"]) - np.array(dense["D"])).max() <= 1e-12 * scale
                if dense["singular"]:
                    assert doc["r_ai"] is None and doc["c_h"] is None
                    assert dense["r_ai"] is None and dense["c_h"] is None
                    continue
                w = np.linalg.eigvalsh(q_dense)
                tol = 1e3 * eps * w[-1] / w[0]
                assert abs(doc["r_ai"] - dense["r_ai"]) <= tol
                assert abs(doc["delta"] - dense["delta"]) <= tol
                assert abs(doc["c_sld"] - dense["c_sld"]) <= tol * dense["c_sld"]
                assert abs(doc["c_h"] - dense["c_h"]) <= tol * dense["c_h"]

    @pytest.mark.parametrize("model", MODELS)
    def test_closed_route_is_the_report_frame(self, model):
        # The routes are measured against the frame they are given: scaled by
        # 1 + 1e-6, it sits 1e-6 / (1 + 1e-6) from both.
        for point in points_for(model):
            frame = encoding.closed_frame(point.b, point.theta, point.t, point.phi)
            exact = _route_residuals(point, frame)
            moved = _route_residuals(point, frame * (1 + 1e-6))
            assert exact["series_vs_closed"] < 1e-14 and exact["numeric_vs_closed"] < 1e-8
            assert moved["series_vs_closed"] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-6)
            assert moved["numeric_vs_closed"] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-3)

    @pytest.mark.parametrize("model", MODELS)
    def test_short_rows_are_measured_against_the_floor(self, model):
        # At a full field period, B t = 2 pi, the angle rows of every route
        # are rounding, about 1e-16 long.  Against the 2e-12 floor their
        # differences read below 1e-3; against their own lengths, about 1.
        point = ModelPoint(b=2 * np.pi / 5, theta=0.7, t=5.0, phi=None if model == "two" else 1.1)
        frame = encoding.closed_frame(point.b, point.theta, point.t, point.phi)
        assert np.abs(frame[1:]).max() < 1e-15
        assert max(_route_residuals(point, frame).values()) < 1e-3

    @pytest.mark.parametrize("model", MODELS)
    def test_report_builds_no_dense_route(self, monkeypatch, model):
        # One eigh, of Q in bounds, and one eigvalsh, of the real tridiagonal
        # forms of both spectra of bounds at once.  The oracle routes are
        # vector forms, so a report exponentiates nothing and builds no spin
        # representation, generator set or dense route; it computes its
        # frame once.
        calls = collections.Counter()
        dtypes = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "eigvalsh":
                    dtypes.append(np.asarray(args[0]).dtype)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        for module, name in ((linalg, "expm_i"), (encoding, "expm_i"),
                             (linalg, "build_spin_rep"), (encoding, "GeneratorSet"),
                             (encoding, "series_generators"), (encoding, "numeric_generators")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        frame_fn = encoding.closed_frame
        for module in (analysis, encoding):
            monkeypatch.setattr(module, "closed_frame", counted("closed_frame", frame_fn))
        metrics_report(ProbeSpec(dim=5, alpha=0.3, phi=0.2), points_for(model)[0])
        assert calls == {"eigh": 1, "eigvalsh": 1, "closed_frame": 1}
        assert dtypes == [np.dtype(float)]

    # ModelPoint and ProbeSpec store each real field as the Python float of
    # require_float.  So a float32, int or np.float64 field gives the bytes
    # of the report of float(value): no float32 trig reaches the probe's
    # amplitudes or the oracle routes.
    @pytest.mark.parametrize("cast", [np.float32, int, np.float64], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("field", ["b", "theta", "t", "phi", "alpha", "probe_phi"])
    def test_typed_fields_give_the_float_report(self, tmp_path, field, cast):
        values = {"b": 0.6, "theta": 0.8, "t": 5.0, "phi": 1.1, "alpha": 0.3, "probe_phi": 0.2}

        def report(values, path):
            spec = ProbeSpec(4, values["alpha"], values["probe_phi"])
            point = ModelPoint(b=values["b"], theta=values["theta"], t=values["t"],
                               phi=values["phi"])
            assert {type(v) for v in (spec.alpha, spec.phi, point.b, point.theta, point.t,
                                      point.phi)} == {float}
            doc = metrics_report(spec, point)
            analysis.write_json(path, doc)
            return path.read_bytes(), doc["generator_route_residuals"]

        typed = cast(values[field])
        typed_bytes, resid = report({**values, field: typed}, tmp_path / "typed.json")
        plain_bytes, _ = report({**values, field: float(typed)}, tmp_path / "plain.json")
        assert typed_bytes == plain_bytes
        assert resid["series_vs_closed"] <= 1e-14

    def test_deterministic_serialization(self):
        args = (ProbeSpec(dim=3, alpha=0.4, phi=0.2), ModelPoint(b=0.8, theta=1.1, t=5.0))
        a = json.dumps(metrics_report(*args), sort_keys=True)
        b = json.dumps(metrics_report(*args), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("model", MODELS)
    def test_uhlmann_diagonal_is_positive_zero(self, model):
        # With every component of <J> negative, each term of D's diagonal,
        # (a_l x a_l)_k <J>_k, is -0.0.  Summed from +0.0, as numpy sums,
        # the diagonal is +0.0, and a report writes it as 0.0.
        thetas, bs = np.meshgrid(np.linspace(0.0, 2 * np.pi, 7), np.linspace(0.0, 1.3, 5))
        phi = None if model == "two" else 1.0
        frame = closed_frame(bs, thetas, 5.0, phi)
        _, d = frame_qfim_uhlmann(frame, np.array([-0.3, -0.2, -0.1]), np.eye(3))
        diagonal = np.diagonal(d, axis1=-2, axis2=-1)
        assert (diagonal == 0).all() and not np.signbit(diagonal).any()
        spec = ProbeSpec(dim=2, alpha=1.2, phi=4.0)
        assert (spin_moments(make_probe(spec))[0] < 0).all()
        point = points_for(model)[0]
        doc = metrics_report(spec, point)
        assert [math.copysign(1.0, doc["D"][l][l]) for l in range(point.n_params)] == \
            [1.0] * point.n_params


# Floats a report may hold, with the edges of the float format drawn often:
# signed zeros, subnormals and the largest finite values.
REPORT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5]),
)


@st.composite
def report_docs(draw):
    """Dicts of the shape of metrics_report's, singular ones with null bounds."""
    d = draw(st.sampled_from([2, 3]))
    singular = draw(st.booleans())
    matrix = st.lists(st.lists(REPORT_FLOATS, min_size=d, max_size=d), min_size=d, max_size=d)
    bound = st.none() if singular else REPORT_FLOATS
    return {
        "model": "two" if d == 2 else "three",
        "dim": draw(st.integers(2, MAX_DIM)),
        "probe": {"alpha": draw(REPORT_FLOATS), "phi": draw(REPORT_FLOATS)},
        "point": {"B": draw(REPORT_FLOATS), "theta": draw(REPORT_FLOATS),
                  "phi": None if d == 2 else draw(REPORT_FLOATS), "t": draw(REPORT_FLOATS)},
        "labels": ["B", "theta", "phi"][:d],
        "Q": draw(matrix),
        "D": draw(matrix),
        "det_q": draw(REPORT_FLOATS),
        "singular": singular,
        **{name: draw(bound) for name in ("c_sld", "c_h", "delta", "r_ai")},
        "generator_route_residuals": {"series_vs_closed": draw(REPORT_FLOATS),
                                      "numeric_vs_closed": draw(REPORT_FLOATS)},
    }


def json_text(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


class TestJsonWriter:
    # A report is written from a fixed template; its bytes must be those of
    # json.dumps(sort_keys=True, indent=2) and a newline.

    @settings(max_examples=300, deadline=None)
    @given(doc=report_docs())
    def test_report_template_matches_json_dumps(self, doc):
        assert doc.keys() == analysis._REPORT_KEYS
        assert analysis._report_text(doc).encode() == json_text(doc)

    @pytest.mark.parametrize("model", MODELS)
    def test_written_report_matches_json_dumps(self, tmp_path, model):
        for point in points_for(model):
            for singular_dim in (2, 5):
                doc = metrics_report(ProbeSpec(dim=singular_dim, alpha=0.3), point)
                analysis.write_json(tmp_path / "r.json", doc)
                assert (tmp_path / "r.json").read_bytes() == json_text(doc)

    # A doc with a report's keys but not a report's shape or value types is
    # written as json.dumps writes it: by the template where it fits, which
    # writes any JSON scalar, and by json.dumps where it does not.
    @pytest.mark.parametrize("change", [
        lambda doc: doc["Q"][0].__setitem__(0, 1),
        lambda doc: doc["Q"][0].__setitem__(0, np.float64(0.5)),
        lambda doc: doc["D"][1].__setitem__(1, True),
        lambda doc: doc["point"].__setitem__("x", 1.0),
        lambda doc: doc["probe"].pop("phi"),
        lambda doc: doc["labels"].append("extra"),
        lambda doc: doc["Q"][1].append(0.0),
        lambda doc: doc.__setitem__("Q", [tuple(row) for row in doc["Q"]]),
        lambda doc: doc.__setitem__("labels", []),
        lambda doc: doc.__setitem__("model", object()),
        lambda doc: doc.__setitem__("D", 1.0),
        lambda doc: doc.__setitem__("labels", "B"),
        lambda doc: doc.__setitem__("point", None),
    ])
    def test_other_docs_match_json_dumps(self, tmp_path, change):
        doc = metrics_report(ProbeSpec(dim=3, alpha=0.3), points_for("two")[0])
        change(doc)
        try:
            want = json_text(doc)
        except TypeError:
            with pytest.raises(InvalidInput, match="cannot be written as JSON"):
                analysis.write_json(tmp_path / "r.json", doc)
            return
        text = analysis._report_text(doc)
        assert text is None or text.encode() == want
        analysis.write_json(tmp_path / "r.json", doc)
        assert (tmp_path / "r.json").read_bytes() == want

    # json.dumps raises ValueError for a circular reference as for a NaN,
    # and TypeError for a value of no JSON type or keys it cannot sort: only
    # the NaN is a numerical failure, and none opens the file.
    @pytest.mark.parametrize("make, error, match", [
        (lambda doc: doc["point"].__setitem__("loop", doc["point"]), InvalidInput, "Circular"),
        (lambda doc: doc.__setitem__("extra", [doc]), InvalidInput, "Circular"),
        (lambda doc: doc.__setitem__("extra", [math.nan]), NumericalFailure, "non-finite"),
        (lambda doc: (doc.clear(), doc.update({"a": np.int64(1)})), InvalidInput, "int64"),
        (lambda doc: (doc.clear(), doc.update({1: 2, "a": 3})), InvalidInput, "not supported"),
    ], ids=["circular-dict", "circular-list", "nan", "numpy-scalar", "unsortable-keys"])
    def test_unwritable_doc_opens_no_file(self, tmp_path, monkeypatch, make, error, match):
        doc = metrics_report(ProbeSpec(dim=3, alpha=0.3), points_for("two")[0])
        make(doc)
        opened = []
        monkeypatch.setattr(analysis, "_write_text", lambda *args: opened.append(args))
        with pytest.raises(error, match=match):
            analysis.write_json(tmp_path / "r.json", doc)
        assert opened == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("path", [("Q", 0, 1), ("D", 1, 0), ("c_h",), ("det_q",),
                                      ("point", "B"), ("generator_route_residuals",
                                                       "numeric_vs_closed")])
    def test_non_finite_report_opens_no_file(self, tmp_path, monkeypatch, path, value):
        doc = metrics_report(ProbeSpec(dim=4, alpha=0.3), points_for("three")[0])
        *head, last = path
        owner = doc
        for key in head:
            owner = owner[key]
        owner[last] = value
        out = tmp_path / "r.json"
        out.write_bytes(b"earlier report\n")
        opened = []
        monkeypatch.setattr(analysis, "_write_text", lambda *args: opened.append(args))
        with pytest.raises(NumericalFailure, match="non-finite"):
            analysis.write_json(out, doc)
        assert opened == []
        monkeypatch.undo()
        with pytest.raises(NumericalFailure, match="non-finite"):
            analysis.write_json(out, doc)
        assert out.read_bytes() == b"earlier report\n"
