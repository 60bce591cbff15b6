"""Experiment drivers: grid scans, scaling, rank experiment, reports."""

import collections
import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinmetro import (
    InvalidInput,
    ModelKind,
    ModelPoint,
    RankExperimentConfig,
    ScanConfig,
    closed_generators,
    fim_rank_experiment,
    incompat_report,
    make_probe,
    metrics_report,
    run_scan,
    scaling_table,
    shrinkage_fractions,
)
from spinmetro import analysis, encoding, linalg
from spinmetro.analysis import (
    MAX_GRID_CELLS,
    MAX_RANK_OUTCOMES,
    MAX_RANK_PARAMS,
    RANK_BLOCK,
    _route_residuals,
)
from spinmetro.models import MAX_DIM, ProbeSpec

from conftest import csv_text_loop, fim_rank_loop, points_for, rep, scaling_table_loop


def small_scan(kind=ModelKind.TWO_PARAM, dim=2, alpha=np.pi / 4, phi=0.0, t=5.0,
               counts=(21, 21), model_phi=0.0):
    return ScanConfig(
        kind=kind,
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

    def test_gap_ordering_cellwise(self):
        for config in (small_scan(t=5.0), small_scan(dim=4, alpha=np.pi / 2, t=10.0),
                       small_scan(kind=ModelKind.THREE_PARAM, dim=4, alpha=2 * np.pi / 3)):
            res = run_scan(config)
            regular = ~res.singular
            assert (res.delta[regular] <= res.r_ai[regular] + 1e-9).all()
            assert (res.t_gap[regular] >= -1e-9).all()
            assert (res.delta[regular] >= -1e-12).all()

    def test_matches_pointwise_route(self, rng):
        config = small_scan(kind=ModelKind.THREE_PARAM, dim=4, alpha=2 * np.pi / 3,
                            model_phi=0.4)
        res = run_scan(config)
        probe = config.probe_state()
        for idx in rng.choice(res.theta.size, size=12, replace=False):
            point = ModelPoint(b=res.b[idx], theta=res.theta[idx], t=config.t,
                               phi=config.model_phi)
            report = incompat_report(
                closed_generators(rep(4), config.kind, point), probe, rel_tol=config.rel_tol
            )
            assert report.singular == bool(res.singular[idx])
            assert report.det_q == pytest.approx(res.det_q[idx], rel=1e-9, abs=1e-12)
            if not report.singular:
                assert report.r_ai == pytest.approx(res.r_ai[idx], rel=1e-9, abs=1e-12)
                assert report.delta == pytest.approx(res.delta[idx], rel=1e-9, abs=1e-12)

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
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n", [2, 3, 4, 12, 40])
    def test_det_q_is_never_negative(self, rng, kind, n):
        for _ in range(3):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = ScanConfig(kind=kind, probe=z / np.linalg.norm(z), t=5.0,
                                model_phi=rng.uniform(0.0, 2 * np.pi),
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
        config = small_scan(kind=ModelKind.THREE_PARAM, dim=200, alpha=0.4, counts=(5, 5),
                            model_phi=0.3)
        tracemalloc.start()
        try:
            res = run_scan(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.theta.size == 25
        assert peak < 1_000_000

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            small_scan(counts=(1, 5))
        with pytest.raises(InvalidInput):
            ScanConfig(kind=ModelKind.TWO_PARAM, probe=ProbeSpec(dim=2, alpha=0.2), t=-1.0)

    # Only the configurations are built here: no scan runs at the cap.
    def test_grid_cap(self):
        assert 1000 * 1000 == MAX_GRID_CELLS == 101 * 9901 - 1
        small_scan(counts=(1000, 1000))
        with pytest.raises(InvalidInput, match=str(MAX_GRID_CELLS)):
            small_scan(counts=(101, 9901))

    def test_tolerance_that_is_not_positive_is_rejected(self):
        with pytest.raises(InvalidInput):
            run_scan(replace(small_scan(counts=(3, 3)), rel_tol=0.0))


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
        table = scaling_table(ModelKind.TWO_PARAM, [0.0, np.pi / 4], [4, 5, 7], point)
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        header, rows = read_csv(out)
        assert header == list(table.HEADER)
        expected = [(a, n) for a in table.alphas for n in table.dims]
        assert len(rows) == len(expected)
        for (alpha_f, n_f, gamma_f, slope_f), (alpha, n) in zip(rows, expected):
            assert same_bits([alpha_f], [alpha])
            assert n_f == str(n)
            gamma, slope = table.gammas[alpha][n], table.slopes[alpha]
            if alpha == 0.0:
                assert gamma is None and slope is None
                assert gamma_f == slope_f == ""
            else:
                assert same_bits([gamma_f, slope_f], [gamma, slope])

    # The grid writer writes exactly what the per-field formatter does, for
    # the values whose text is special as row values and as axis values.
    def test_row_format_matches_field_formatter(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                            -1e300, 2 * np.pi, 0.1, 12345678901234567.0, 1e-7])
        outer, inner = special, np.roll(special[:-1], 4)
        cells = outer.size * inner.size
        columns = [np.resize(np.roll(special, k), cells) for k in range(3)]
        columns += [np.full(cells, np.nan), np.arange(cells) % 3 == 0]
        header = ("outer", "inner", "a", "nan_count", "c", "d", "flag")
        out = tmp_path / "x.csv"
        analysis._write_csv(out, header, outer, inner, columns)
        axes = [np.repeat(outer, inner.size), np.tile(inner, outer.size)]
        assert out.read_text() == csv_text_loop(header, axes + columns)

    # Each result type writes the text of its columns in full, one field at
    # a time; non-square grids catch a swap of the outer and inner axes.
    @pytest.mark.parametrize("config", [
        small_scan(counts=(3, 7)),
        small_scan(counts=(7, 3)),
        small_scan(counts=(2, 2)),
        small_scan(kind=ModelKind.THREE_PARAM, dim=2, counts=(5, 4), model_phi=0.3),
    ], ids=["3x7", "7x3", "2x2", "three-qubit-all-singular"])
    def test_scan_matches_field_formatter(self, tmp_path, config):
        res = run_scan(config)
        if config.kind is ModelKind.THREE_PARAM:
            assert res.singular.all()
        out = tmp_path / "scan.csv"
        res.write_csv(out)
        columns = (res.theta, res.b, res.r_ai, res.delta, res.t_gap, res.det_q, res.singular)
        assert out.read_text() == csv_text_loop(res.HEADER, columns)

    def test_scaling_matches_field_formatter(self, tmp_path):
        # alpha = 0 at theta = pi/2 has a singular qubit baseline.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table(ModelKind.TWO_PARAM, [0.0, np.pi / 4, 1.2], [4, 5, 1000], point)
        assert table.slopes[0.0] is None
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        rows = [(a, n, table.gammas[a][n], table.slopes[a]) for a in table.alphas
                for n in table.dims]
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
        res = run_scan(small_scan(kind=ModelKind.THREE_PARAM, dim=2, counts=(7, 7)))
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
        table = scaling_table(ModelKind.TWO_PARAM, [np.pi / 4], range(4, 13), point)
        gammas = table.gammas[np.pi / 4]
        x = np.arange(3, 12)
        assert np.allclose([gammas[n] for n in range(4, 13)], x**2 + x, rtol=1e-9)
        assert table.slopes[np.pi / 4] == pytest.approx(1.8494, abs=5e-4)
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,N,Gamma,slope"
        assert len(lines) == 1 + 9

    def test_three_param_closed_form(self):
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=1.0)
        table = scaling_table(ModelKind.THREE_PARAM, [np.pi / 4], [4, 6, 9, 12], point)
        for n in (4, 6, 9, 12):
            assert table.gammas[np.pi / 4][n] == pytest.approx(
                (n - 1) + (n - 1) * (n - 4) / 9, rel=1e-10
            )

    def test_singular_baseline_flag_row(self, tmp_path):
        # alpha = 0 probe at theta = pi/2 makes the qubit reference singular.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table(ModelKind.TWO_PARAM, [0.0, np.pi / 4], [4, 5], point)
        assert table.slopes[0.0] is None
        assert table.gammas[0.0][4] is None
        assert table.slopes[np.pi / 4] is not None
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        rows = out.read_text().strip().split("\n")[1:]
        assert rows[0].split(",")[2] == ""  # empty Gamma for the flagged alpha

    def test_dimension_validation(self):
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput):
            scaling_table(ModelKind.TWO_PARAM, [0.3], [2, 4], point)

    def test_dimension_cap_is_checked_before_any_probe(self, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "make_probe", built.append)
        point = ModelPoint(b=0.9, theta=0.5, t=5.0)
        with pytest.raises(InvalidInput, match=str(MAX_DIM)):
            scaling_table(ModelKind.TWO_PARAM, [0.3], [4, MAX_DIM + 1], point)
        assert built == []

    # alpha = 0 makes the baseline singular at the first and last points: the
    # qubit reference at theta = pi/2, and the N = 4 three-parameter one
    # everywhere (its spin covariance has rank 2).
    @pytest.mark.parametrize("kind, point", [
        (ModelKind.TWO_PARAM, ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)),
        (ModelKind.TWO_PARAM, ModelPoint(b=1.1, theta=2.6, t=5.0)),
        (ModelKind.THREE_PARAM, ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.1)),
    ])
    def test_stacked_table_equals_per_probe_loop(self, kind, point):
        alphas, dims = (0.0, np.pi / 4, 0.3, 1.2), (4, 5, 9, 40, 240)
        table = scaling_table(kind, alphas, dims, point, probe_phi=0.7)
        gammas, slopes = scaling_table_loop(kind, alphas, dims, point, probe_phi=0.7)
        assert table.gammas == gammas
        assert table.slopes == slopes
        if point.theta == np.pi / 2 or kind is ModelKind.THREE_PARAM:
            assert slopes[0.0] is None
        assert all(slopes[a] is not None for a in alphas[1:])

    def test_one_kernel_call_per_table(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(analysis, "frame_qfim_uhlmann",
                            counted("kernel", analysis.frame_qfim_uhlmann))
        monkeypatch.setattr(analysis, "spin_moments", counted("moments", analysis.spin_moments))
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        # alpha = 0 has a singular baseline; its probes are still taken once each
        scaling_table(ModelKind.TWO_PARAM, [0.0, np.pi / 4, 0.3], [4, 8, 12, 16], point)
        assert calls == {"kernel": 1, "moments": 3 * (1 + 4)}


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
        # trial draws depend only on (seed, d, n, index), so a longer run
        # extends a shorter one without changing its head statistics
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
    # one: their FIM vanishes, which must skip that trial only, as the loop
    # does, and not the rest of its block.
    def test_vanishing_fim_skips_only_its_own_trial(self):
        config = RankExperimentConfig(n_params=2, n_outcomes=3, trials=2 * RANK_BLOCK,
                                      seed=1, lam=[40.0, -40.0])
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
        doc = metrics_report(
            ModelKind.TWO_PARAM, ProbeSpec(dim=2, alpha=np.pi / 4),
            ModelPoint(b=0.9, theta=0.7, t=5.0),
        )
        assert doc["singular"] is False
        assert doc["r_ai"] == pytest.approx(1.0, abs=1e-6)
        assert doc["c_h"] >= doc["c_sld"]
        resid = doc["generator_route_residuals"]
        assert resid["series_vs_closed"] < 1e-9
        assert resid["numeric_vs_closed"] < 1e-6

    def test_three_param_cosine(self):
        doc = metrics_report(
            ModelKind.THREE_PARAM, ProbeSpec(dim=6, alpha=np.pi / 3),
            ModelPoint(b=0.9, theta=0.6, t=5.0, phi=0.4),
        )
        assert doc["r_ai"] == pytest.approx(0.5, abs=1e-6)

    def test_compatible_configuration(self):
        doc = metrics_report(
            ModelKind.TWO_PARAM, ProbeSpec(dim=4, alpha=np.pi / 4),
            ModelPoint(b=0.9, theta=0.8, t=5.0),
        )
        assert doc["delta"] == pytest.approx(0.0, abs=1e-10)
        assert doc["c_h"] == pytest.approx(doc["c_sld"], rel=1e-10)

    def test_singular_point_partial_report(self):
        doc = metrics_report(
            ModelKind.THREE_PARAM, ProbeSpec(dim=2, alpha=0.3),
            ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.0),
        )
        assert doc["singular"] is True
        assert doc["c_sld"] is None and doc["r_ai"] is None
        assert doc["det_q"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 40])
    def test_matches_dense_oracle(self, kind, n):
        # The report takes (Q, D) from the frame kernel; the dense generators
        # and incompat_report are its oracle.
        eps = np.finfo(float).eps
        for point in points_for(kind):
            for alpha, phi in ((0.3, 0.0), (np.pi / 4, 1.7), (1.2, 4.0)):
                spec = ProbeSpec(dim=n, alpha=alpha, phi=phi)
                doc = metrics_report(kind, spec, point)
                dense = incompat_report(closed_generators(rep(n), kind, point), make_probe(spec))
                assert doc["singular"] == dense.singular
                scale = np.abs(dense.qfim).max()
                assert np.abs(np.array(doc["Q"]) - dense.qfim).max() <= 1e-12 * scale
                assert np.abs(np.array(doc["D"]) - dense.uhlmann).max() <= 1e-12 * scale
                if dense.singular:
                    assert doc["r_ai"] is None and doc["c_h"] is None
                    continue
                w = np.linalg.eigvalsh(dense.qfim)
                tol = 1e3 * eps * w[-1] / w[0]
                assert abs(doc["r_ai"] - dense.r_ai) <= tol
                assert abs(doc["delta"] - dense.delta) <= tol
                assert abs(doc["c_sld"] - dense.c_sld) <= tol * dense.c_sld
                assert abs(doc["c_h"] - dense.c_h) <= tol * dense.c_h

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_closed_route_is_the_report_frame(self, monkeypatch, kind):
        # The closed route is built from the frame the report computed, and
        # still goes through GeneratorSet's Hermitian check.
        sets = []

        def recorded(*args, **kwargs):
            sets.append(encoding.GeneratorSet(*args, **kwargs))
            return sets[-1]

        monkeypatch.setattr(analysis, "GeneratorSet", recorded)
        for point in points_for(kind):
            sets.clear()
            frame = encoding.closed_frame(kind, point.b, point.theta, point.t, point.phi)
            _route_residuals(kind, point, frame)
            expected = closed_generators(rep(2), kind, point).matrices
            assert len(sets) == 1
            assert np.array_equal(sets[0].matrices, expected)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_each_route_is_one_stacked_pass(self, monkeypatch, kind):
        # One eigh each for the bounds, the series and the stack of 2d + 1
        # finite-difference unitaries; the closed route reuses the report's
        # frame, and the spin-1/2 representation is built once per process.
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        frame_fn, rep_fn = encoding.closed_frame, linalg.build_spin_rep
        for module in (analysis, encoding):
            monkeypatch.setattr(module, "closed_frame", counted("closed_frame", frame_fn))
        for module in (linalg, analysis):
            monkeypatch.setattr(module, "build_spin_rep", counted("build_spin_rep", rep_fn))
        metrics_report(kind, ProbeSpec(dim=5, alpha=0.3, phi=0.2), points_for(kind)[0])
        assert calls == {"eigh": 3, "closed_frame": 1}

    def test_deterministic_serialization(self):
        args = (
            ModelKind.TWO_PARAM, ProbeSpec(dim=3, alpha=0.4, phi=0.2),
            ModelPoint(b=0.8, theta=1.1, t=5.0),
        )
        a = json.dumps(metrics_report(*args), sort_keys=True)
        b = json.dumps(metrics_report(*args), sort_keys=True)
        assert a == b
