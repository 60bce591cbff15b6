"""Experiment drivers: grid scans, scaling, rank experiment, reports."""

import collections
import functools
import itertools
import json
import math
import os
import sys
import time
import tracemalloc
import types
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinmetro import (
    InvalidInput,
    NumericalFailure,
    ModelPoint,
    RankExperimentConfig,
    ScanConfig,
    bounds,
    closed_frame,
    fim_rank_experiment,
    frame_qfim_uhlmann,
    metrics_report,
    run_scan,
    scaling_table,
)
from spinmetro.encoding import closed_generators
from spinmetro.metrology import incompat_report
from spinmetro.models import make_probe
from spinmetro import analysis, encoding, linalg, metrology, models
from spinmetro.analysis import (
    MAX_GRID_CELLS,
    MAX_TABLE_PROBES,
    MAX_RANK_DRAWS,
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
    force_scan_threads,
    haar_state,
    points_for,
    rep,
    scaling_table_loop,
)
from oracles import dense_spin_moments, shrinkage_fractions


def small_scan(dim=2, alpha=np.pi / 4, phi=0.0, t=5.0, counts=(21, 21), model_phi=None):
    return ScanConfig(
        probe=ProbeSpec(dim=dim, alpha=alpha, phi=phi),
        t=t,
        model_phi=model_phi,
        theta_count=counts[0],
        b_count=counts[1],
    )


def moments_scan(mean, cov, model_phi, counts, t=5.0):
    """:func:`run_scan`'s pipeline on a state's spin moments: the closed
    frame of the (theta, B) grid, (Q, D) from the frame kernel, then
    :func:`bounds`.  Returns Q and the bounds, cells in the scan's order."""
    thetas = np.linspace(0.0, 2 * np.pi, counts[0])
    bs = np.linspace(0.0, 2 * np.pi / t, counts[1])
    frame = closed_frame(bs, thetas[:, None], t, model_phi)
    q, d = frame_qfim_uhlmann(frame.reshape((-1,) + frame.shape[-2:]), mean, cov)
    return q, bounds(q, d)


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
        mean, cov = dense_spin_moments(haar_state(rng, 5))
        q, (singular, r_ai, *_) = moments_scan(mean, cov, 0.7, (21, 21))
        regular = ~singular
        assert regular.sum() > 300
        want = 0.5 * np.sqrt(mean @ cov @ mean / np.linalg.det(cov))
        w = np.linalg.eigvalsh(q[regular])
        tol = 1e3 * np.finfo(float).eps * w[:, -1] / w[:, 0] * want
        assert (np.abs(r_ai[regular] - want) <= tol).all()

    # The anticoherent tetrahedral spin-2 state (|2,2> + sqrt(2)|2,-1>)/sqrt(3)
    # has <J> = 0 and Cov = 2 I, so D = 0 and the three-parameter model is
    # compatible at every regular cell, outside the extreme-state family.
    def test_tetrahedral_state_is_compatible_everywhere(self):
        psi = np.zeros(5, dtype=complex)
        psi[[0, 3]] = [1 / np.sqrt(3), np.sqrt(2 / 3)]
        mean, cov = dense_spin_moments(psi)
        assert np.abs(mean).max() <= 1e-15
        assert np.abs(cov - 2 * np.eye(3)).max() <= 4 * np.finfo(float).eps * 2
        _, (singular, r_ai, _, _, delta, _) = moments_scan(mean, cov, 0.7, (21, 21))
        regular = ~singular
        assert regular.sum() > 300
        assert r_ai[regular].max() <= 1e-15
        assert delta[regular].max() <= 1e-15

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
            _, (*_, det_q) = moments_scan(*dense_spin_moments(z / np.linalg.norm(z)),
                                          model_phi if model == "three" else None, (31, 31))
            assert (det_q >= 0.0).all()

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

    # run_scan holds its result columns, 41 B a cell, and at most
    # analysis.GRID_BLOCK cells' arrays at a time, a block of half as many
    # on each of its two threads: it peaks at about 161 B a cell here, as on
    # one thread in blocks of GRID_BLOCK.  Computed in one batch it peaked
    # at 650 B a cell (794 with a NaN-padded (G, 3, 3) inverse stack), and
    # on two threads in blocks of GRID_BLOCK each at 255.
    # MAX_GRID_CELLS rests on the whole scan op, held to its own bound below.
    def test_memory_per_cell(self, monkeypatch):
        force_scan_threads(monkeypatch, 2)
        config = small_scan(dim=4, alpha=0.4, phi=0.3, counts=(101, 101), model_phi=1.0)
        tracemalloc.start()
        try:
            run_scan(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 101**2

    # A whole scan op, run_scan on two threads and then its writer, peaks at
    # about 78 B a cell at 201^2 on either model (657 B for three parameters
    # when the scan ran in one batch), and MAX_GRID_CELLS rests on this
    # figure.
    @pytest.mark.parametrize("model_phi", [None, 1.0], ids=["two", "three"])
    def test_whole_scan_memory_per_cell(self, tmp_path, monkeypatch, model_phi):
        force_scan_threads(monkeypatch, 2)
        config = small_scan(dim=4, alpha=0.4, phi=0.3, counts=(201, 201), model_phi=model_phi)
        tracemalloc.start()
        try:
            run_scan(config).write_csv(tmp_path / "scan.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 201**2

    # A cell's work does not depend on the block it is computed in, so every
    # field and the CSV bytes are the same whatever the block size: one cell
    # a block (on the 31^2 grid only, where it costs 961 blocks and not
    # 9000), blocks that are slices of a row with a short last slice (3x3000
    # at 7), blocks of a few rows (3000x3), and the whole grid in one.  The
    # B = 0 and B = 2 pi / t columns are singular, so NaN cells lie on block
    # edges.
    @pytest.mark.parametrize("model_phi", [None, 0.4], ids=["two", "three"])
    @pytest.mark.parametrize("probe", [ProbeSpec(dim=4, alpha=0.4, phi=0.3)], ids=["spec"])
    @pytest.mark.parametrize("counts", [(31, 31), (3, 3000), (3000, 3), (130, 70)],
                             ids=lambda counts: "x".join(map(str, counts)))
    def test_results_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch,
                                                       model_phi, probe, counts):
        config = replace(small_scan(counts=counts, model_phi=model_phi), probe=probe)
        fields = ("theta", "b", "r_ai", "delta", "det_q", "singular")
        runs = []
        for block in (10**9, 1, 7, 50) if counts == (31, 31) else (10**9, 7, 50):
            monkeypatch.setattr(analysis, "GRID_BLOCK", block)
            res = run_scan(config)
            res.write_csv(tmp_path / "scan.csv")
            runs.append(([getattr(res, name) for name in fields],
                         (tmp_path / "scan.csv").read_bytes()))
        (whole, text), *blocked = runs
        assert whole[-1].any() and not whole[-1].all()
        for columns, csv in blocked:
            for name, want, got in zip(fields, whole, columns):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
            assert csv == text

    # A cell's work does not depend on the thread that computes it either:
    # a scan on two threads, each computing at least one block, gives every
    # field and the CSV the bytes of a scan on one.  The singular B = 0 and
    # B = 2 pi / t columns put NaN cells on block edges.
    @pytest.mark.parametrize("model_phi", [None, 0.4], ids=["two", "three"])
    @pytest.mark.parametrize("probe", [ProbeSpec(dim=4, alpha=0.4, phi=0.3)], ids=["spec"])
    @pytest.mark.parametrize("counts", [(31, 31), (130, 70)],
                             ids=lambda counts: "x".join(map(str, counts)))
    def test_results_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch,
                                                       model_phi, probe, counts):
        config = replace(small_scan(counts=counts, model_phi=model_phi), probe=probe)
        fields = ("theta", "b", "r_ai", "delta", "det_q", "singular")
        runs = []
        for threads in (1, 2):
            scans = force_scan_threads(monkeypatch, threads)
            res = run_scan(config)
            assert len(set(scans[-1])) == threads
            res.write_csv(tmp_path / "scan.csv")
            runs.append(([getattr(res, name).tobytes() for name in fields],
                         (tmp_path / "scan.csv").read_bytes()))
        assert res.singular.any() and not res.singular.all()
        assert runs[0] == runs[1]

    # The blocks are handed out under a lock: with more threads than cores
    # and a short switch interval, every block is computed once, on the
    # threads together, and the results are those of one thread.
    def test_each_block_is_computed_once_under_contention(self, monkeypatch):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 28)  # blocks of 7 cells on 4 threads
        config = small_scan(dim=4, alpha=0.4, phi=0.3, counts=(31, 31), model_phi=0.4)
        force_scan_threads(monkeypatch, 1)
        want = run_scan(config)
        scans = force_scan_threads(monkeypatch, 4)
        frame, computed = analysis.closed_frame, []

        def recorded_frame(b, theta, *args):
            computed.append((theta[0, 0], b[0], theta.size, b.size))
            return frame(b, theta, *args)

        monkeypatch.setattr(analysis, "closed_frame", recorded_frame)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = run_scan(config)
        finally:
            sys.setswitchinterval(interval)
        blocks = list(analysis._grid_blocks(31, 31, 4))
        assert len(set(scans[-1])) == 4 and len(computed) == len(set(computed)) == len(blocks)
        for name in ("r_ai", "delta", "det_q", "singular"):
            assert getattr(res, name).tobytes() == getattr(want, name).tobytes(), name

    # Blocks go out in grid order, and once one has failed no other starts:
    # the scan raises the failure of the first failed block, the one it
    # raises on one thread, though on two threads a later block fails first.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failed_block_is_raised(self, monkeypatch, threads):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 60)  # blocks of 5 rows, or of 2 and 3
        force_scan_threads(monkeypatch, threads)
        thetas = np.linspace(0.0, 2 * np.pi, 20).tolist()
        frame, started = analysis.closed_frame, []

        def failing_frame(b, theta, *args):
            # every block from row 5 on fails, and the first of them last
            first = thetas.index(theta[0, 0])
            started.append(first)
            if first == 5:
                time.sleep(0.2)
            if first >= 5:
                raise NumericalFailure(f"block from row {first}")
            return frame(b, theta, *args)

        monkeypatch.setattr(analysis, "closed_frame", failing_frame)
        with pytest.raises(NumericalFailure, match="^block from row 5$"):
            run_scan(small_scan(counts=(20, 10)))
        if threads == 1:
            assert started == [0, 5]
        else:
            assert sorted(started) in ([0, 2, 5], [0, 2, 5, 7])

    # Below t of about 3.5e-308 the field period 2 pi / t is not a finite
    # float: linspace, cos and sin warned, and the scan then failed as if
    # its QFIM were not finite.  It fails on the period, before any axis.
    @pytest.mark.parametrize("t", [5e-324, 1e-320, 3.4e-308])
    def test_period_that_overflows_is_a_numerical_failure(self, t):
        with pytest.raises(NumericalFailure, match=r"field period 2 pi / t .* t = "):
            run_scan(small_scan(t=t, counts=(2, 2)))

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            small_scan(counts=(1, 5))
        with pytest.raises(InvalidInput):
            ScanConfig(probe=ProbeSpec(dim=2, alpha=0.2), t=-1.0)

    # A scan's probe is a ProbeSpec, as a report's is: an amplitude vector or
    # a string is rejected when the config is built, before any scan runs.
    @pytest.mark.parametrize("probe", [make_probe(ProbeSpec(dim=4, alpha=0.3)), "x"],
                             ids=["array", "string"])
    def test_probe_must_be_a_probe_spec(self, probe):
        with pytest.raises(InvalidInput, match="^probe must be a ProbeSpec, got "):
            ScanConfig(probe=probe, t=1.0)

    # The tolerance is held to linalg.require_tol when the config is built,
    # as its other fields are, and not first when the scan runs.
    @pytest.mark.parametrize("rel_tol", [2.0, "x", True, math.nan])
    def test_tolerance_is_checked_when_built(self, rel_tol):
        with pytest.raises(InvalidInput, match="singularity tolerance"):
            ScanConfig(probe=ProbeSpec(3, 0.4), t=5.0, rel_tol=rel_tol)

    def test_tolerance_is_stored_as_a_float(self):
        config = ScanConfig(probe=ProbeSpec(3, 0.4), t=5.0, rel_tol=np.float32(1e-9))
        assert type(config.rel_tol) is float and config.rel_tol == float(np.float32(1e-9))

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
    "closed_frame-time-string": lambda: closed_frame(0.6, 0.8, t="x"),
    "closed_frame-field-string": lambda: closed_frame("a", 0.8, 5.0),
    "closed_frame-no-broadcast": lambda: closed_frame([1.0, 2.0], [1.0, 2.0, 3.0], 5.0),
    "frame_qfim_uhlmann-no-broadcast": lambda: frame_qfim_uhlmann(np.ones((2, 2, 3)),
                                                                  np.zeros((3, 3)),
                                                                  np.zeros((3, 3, 3))),
    "numeric_generators-step-string": lambda: encoding.numeric_generators(rep(2), POINT,
                                                                          step="x"),
    "write_json-numpy-scalar": lambda: analysis.write_json(os.devnull, {"a": np.int64(1)}),
    "write_json-mixed-keys": lambda: analysis.write_json(os.devnull, {1: 2, "a": 3}),
    # An int too large for a float is not a finite number.
    "ModelPoint-huge-int": lambda: ModelPoint(b=10**400, theta=0.1, t=5.0),
    "ProbeSpec-huge-int": lambda: ProbeSpec(3, 10**400),
    "ScanConfig-huge-int": lambda: ScanConfig(ProbeSpec(3, 0.1), t=10**400),
    "scaling_table-huge-int": lambda: scaling_table([10**400], [4, 5], POINT),
    # scaling_table takes sequences: an iterator has no length to cap.
    "scaling_table-alphas-iterator": lambda: scaling_table(iter([0.4]), [4, 5], POINT),
    "scaling_table-dims-generator": lambda: scaling_table([0.4], (n for n in (4, 5)), POINT),
    # Python floats overflow to inf silently, so the oracle routes raise
    # NumericalFailure themselves: at B t and at the phase B t / 2.
    "series_frame-overflow": lambda: encoding.series_frame(ModelPoint(b=5e307, theta=0.8, t=5.0)),
    "numeric_frame-point-overflow":
        lambda: encoding.numeric_frame(ModelPoint(b=1.79e308, theta=0.8, t=4.0)),
    "metrics_report-route-overflow":
        lambda: metrics_report(SPEC, ModelPoint(b=5e307, theta=0.8, t=5.0)),
    **{f"{name}-no-point": functools.partial(fn, None)
       for name, fn in [("direction_vectors", encoding.direction_vectors),
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
    # Matrices once cast bare, or taken unchecked: an empty, string or
    # object matrix escaped as an IndexError, ValueError or TypeError or came
    # back with a result, a NaN escaped svd as a LinAlgError, and a complex
    # Q or D, or bool probabilities, lost what the cast to float dropped.
    # The matrix rule, linalg.require_symmetric, and require_floats hold
    # them now.
    **{f"{name}-{kind}": functools.partial(fn, m)
       for name, fn in [("sym_inverse", linalg.sym_inverse),
                        ("eigh_inverse", lambda q: linalg.eigh_inverse([q], 1e-10)),
                        ("trace_norm", linalg.trace_norm),
                        ("spectral_absmax", linalg.spectral_absmax),
                        ("expm_i", lambda a: linalg.expm_i(a, 1.0)),
                        ("ai_measure", lambda q: metrology.ai_measure(q, np.zeros(np.shape(q)))),
                        ("holevo_pure", lambda q: metrology.holevo_pure(q, np.zeros(np.shape(q))))]
       for kind, m in [("empty", np.zeros((0, 0))), ("strings", np.array([["a", "b"]] * 2)),
                       ("objects", np.eye(2, dtype=object))]},
    "bounds-empty": lambda: bounds(np.zeros((0, 0)), np.zeros((0, 0))),
    "trace_norm-nan": lambda: linalg.trace_norm([[np.nan, 0.0], [0.0, 1.0]]),
    **{f"{name}-complex": functools.partial(fn, np.array([[2.0, 1j], [-1j, 2.0]]))
       for name, fn in [("sym_inverse", linalg.sym_inverse),
                        ("eigh_inverse", lambda q: linalg.eigh_inverse([q], 1e-10)),
                        ("ai_measure", lambda q: metrology.ai_measure(q, np.zeros((2, 2)))),
                        ("holevo_pure", lambda q: metrology.holevo_pure(q, np.zeros((2, 2))))]},
    "holevo_pure-complex-d":
        lambda: metrology.holevo_pure(np.eye(2), np.array([[0, 0.3 + 0.2j], [-0.3 - 0.2j, 0]])),
    **{f"classical_fim-{kind}": functools.partial(metrology.classical_fim, p, g)
       for kind, p, g in [("strings", ["a", "b"], [[1.0, -1.0]]),
                          ("object-probabilities", np.array([0.5, 0.5], object), [[1.0, -1.0]]),
                          ("object-gradients", [0.5, 0.5], np.array([[1.0, -1.0]], object)),
                          ("bool", [True, False], [[1.0, -1.0]]),
                          ("complex-probabilities", np.array([0.5 + 0.1j, 0.5 - 0.1j]),
                           [[1.0, -1.0]]),
                          ("complex-gradients", [0.5, 0.5], np.array([[1j, -1j]])),
                          ("infinite-probabilities", [np.inf, -np.inf], [[1.0, -1.0]]),
                          ("infinite-gradients", [0.5, 0.5], [[np.inf, -np.inf]])]},
    # A finite pair whose regular Q overflows a bound warned and returned an
    # infinite bound (bounds) or warned and called it invalid (holevo_pure);
    # probes that broke the probe rule escaped einsum or were used as given.
    **{f"{name}-overflow": functools.partial(fn, np.diag([1e-160, 1e-160]),
                                             np.array([[0.0, 1.0], [-1.0, 0.0]]))
       for name, fn in [("bounds", bounds), ("holevo_pure", metrology.holevo_pure)]},
    # A det Q that overflows warned and came back infinite, on a singular
    # matrix beside its NaN bounds and on a regular one beside finite ones.
    "bounds-det-overflow-singular":
        lambda: bounds(np.diag([1e-10, 1e160, 1e160]), np.zeros((3, 3))),
    "bounds-det-overflow-regular": lambda: bounds(np.diag([1e160, 1e160]), np.zeros((2, 2))),
    **{f"batched_qfim_uhlmann-{kind}": functools.partial(metrology.batched_qfim_uhlmann, g, p)
       for kind, g, p in [("probe-dimension", np.stack([np.eye(2)]), np.ones(3)),
                          ("probe-norm", np.stack([np.eye(2)]), 5 * np.ones(2)),
                          ("probe-strings", np.stack([np.eye(2)]), np.array(["a", "b"])),
                          ("no-broadcast", np.stack([np.stack([np.eye(2)])] * 2),
                           np.tile([1.0, 0.0], (3, 1)))]},
}


@pytest.mark.parametrize("call", LIBRARY_ERROR_CALLS.values(), ids=LIBRARY_ERROR_CALLS.keys())
def test_only_library_errors_escape(call):
    with pytest.raises((InvalidInput, NumericalFailure)):
        call()


# A first slice of the contract on every input (ROADMAP item 14): each
# matrix or real-array argument of the library, drawn in any of these
# shapes and dtypes, filled at random or to pass the rules it meets first
# (symmetric, antisymmetric, positive definite, unit rows, distributions,
# rows summing to zero), and holding up to two NaNs or infinities, lets
# only the library's own errors escape.  RuntimeWarnings are errors here.
SHAPES = [(), (0, 0), (3,), (2, 3), (2, 2), (3, 3), (2, 2, 2), (1, 3, 3), (2, 0, 0)]
DTYPES = [bool, int, float, complex, str, object]
FILLS = ["random", "zeros", "symmetric", "antisymmetric", "positive", "unit", "distribution",
         "centered"]
# An array is drawn as its dtype and fill, a seed for its entries and for
# where its non-finite values go, and those values: few draws an example.
ARRAYS = st.tuples(st.sampled_from(list(itertools.product(DTYPES, FILLS))),
                   st.integers(0, 2**32 - 1),
                   st.sampled_from([(), (np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf),
                                    (np.nan, np.inf)]))


def make_array(shape, kind, seed, specials):
    (dtype, fill), rng = kind, np.random.default_rng(seed)
    a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is complex else 0)
    if a.ndim and a.size:
        a_h = a.conj().swapaxes(-1, -2) if a.ndim >= 2 else a
        square = a.shape == a_h.shape
        if fill == "zeros":
            a = 0 * a
        elif fill in ("symmetric", "antisymmetric") and square:
            a = (a + (a_h if fill == "symmetric" else -a_h)) / 2
        elif fill == "positive" and square:
            a = a @ a_h + np.eye(a.shape[-1])
        elif fill == "unit":
            a = a / np.sqrt((np.abs(a) ** 2).sum(axis=-1, keepdims=True))
        elif fill == "distribution":
            a = np.abs(a) / np.abs(a).sum(axis=-1, keepdims=True)
        elif fill == "centered":
            a = a - a.mean(axis=-1, keepdims=True)
    if dtype in (bool, int):
        return a.real > 0 if dtype is bool else np.rint(4 * a.real).astype(int)
    if a.size:
        a.flat[rng.integers(a.size, size=len(specials))] = specials
    return a.astype(dtype)


def unit_probe(gens):
    probe = np.zeros(np.shape(gens)[-1] if np.ndim(gens) else 1)
    probe[:1] = 1.0
    return probe


# Each takes two drawn arrays of one shape, and uses the first alone if it
# has one array argument; classical_fim's probabilities drop the shape's
# next-to-last axis.
ARRAY_ENTRY_POINTS = {
    "eigh_inverse": lambda q, _: linalg.eigh_inverse(q, 1e-10),
    "sym_inverse": lambda q, _: linalg.sym_inverse(q),
    "trace_norm": lambda a, _: linalg.trace_norm(a),
    "spectral_absmax": lambda a, _: linalg.spectral_absmax(a),
    "expm_i": lambda a, _: linalg.expm_i(a, 1.0),
    "require_unit3": lambda n, _: linalg.require_unit3(n),
    "qubit2p_closed": lambda r0, _: models.qubit2p_closed(r0, POINT),
    "GeneratorSet": lambda m, _: encoding.GeneratorSet(
        ("B", "theta", "phi")[:np.shape(m)[0] if np.ndim(m) else 0], m),
    "batched_qfim_uhlmann": lambda g, _: metrology.batched_qfim_uhlmann(g, unit_probe(g)),
    "bounds": bounds,
    "ai_measure": metrology.ai_measure,
    "holevo_pure": metrology.holevo_pure,
    "classical_fim": lambda grads, probs: metrology.classical_fim(probs, grads),
}


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(SHAPES), first=ARRAYS, second=ARRAYS)
def test_any_array_lets_only_library_errors_escape(name, shape, first, second):
    second_shape = shape[:-2] + shape[-1:] if name == "classical_fim" else shape
    try:
        ARRAY_ENTRY_POINTS[name](make_array(shape, *first), make_array(second_shape, *second))
    except (InvalidInput, NumericalFailure):
        pass


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
    # values of a column that repeats one value per outer axis value, as a
    # scaling table's slope does.
    def test_row_format_matches_field_formatter(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                            -1e300, 2 * np.pi, 0.1, 12345678901234567.0, 1e-7])
        outer, inner = special, np.roll(special[:-1], 4)
        cells = outer.size * inner.size
        per_outer = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1], outer.size)
        columns = [np.resize(np.roll(special, k), cells) for k in range(3)]
        columns += [np.full(cells, np.nan), np.arange(cells) % 3 == 0,
                    np.repeat(per_outer, inner.size)]
        header = ("outer", "inner", "a", "nan_count", "c", "d", "flag", "per_outer")
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

    # A grid larger than one block is written block by block, and reads as
    # one: rows of NaN on both sides of a block edge and in the last, short
    # block, the flag column, and the writer's chunks one per block.
    def test_blocks_match_field_formatter(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 500)  # 6 or 7 outer rows of 70
        outer, inner = np.linspace(0.0, 1.0, 130), np.linspace(-1.0, 2.0, 70)
        cells = outer.size * inner.size
        rng = np.random.default_rng(33)
        singular = np.zeros((outer.size, inner.size), dtype=bool)
        singular[[6, 7, 13, 14, 129]] = True
        singular[:, [0, -1]] = True
        values = rng.standard_normal((3, cells)) * 10.0 ** rng.integers(-300, 300, (3, cells))
        values[:2, singular.ravel()] = np.nan
        columns = [*values, singular.ravel()]
        header = ("outer", "inner", "r", "delta", "det_q", "singular")
        chunks = []
        monkeypatch.setattr(analysis, "_write_text",
                            lambda path, parts: chunks.extend(parts))
        analysis._write_csv(tmp_path / "x.csv", header, outer, inner, columns)
        assert len(chunks) == 1 + math.ceil(130 / 7)
        axes = [np.repeat(outer, inner.size), np.tile(inner, outer.size)]
        assert b"".join(chunks).decode() == csv_text_loop(header, axes + columns)

    @pytest.mark.parametrize("model_phi", [None, 0.4], ids=["two", "three"])
    def test_scan_blocks_match_field_formatter(self, tmp_path, monkeypatch, model_phi):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 300)
        # the columns B = 0 and B = 2 pi / t are singular, so every block
        # edge has singular cells on both sides
        res = run_scan(small_scan(dim=4, alpha=0.4, phi=0.3, counts=(130, 70),
                                  model_phi=model_phi))
        assert res.singular.any() and not res.singular.all()
        out = tmp_path / "scan.csv"
        res.write_csv(out)
        columns = (res.theta, res.b, res.r_ai, res.delta, res.t_gap, res.det_q, res.singular)
        assert out.read_text() == csv_text_loop(res.HEADER, columns)

    # One outer row a block: each alpha's slope, NaN for the singular
    # baseline, is written on every row of its own block.
    def test_scaling_blocks_match_field_formatter(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "GRID_BLOCK", 1)
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0)
        table = scaling_table([np.pi / 4, 0.0, 1.2], range(4, 40, 3), point)
        assert np.isnan(table.slope[1]) and not np.isnan(table.slope[[0, 2]]).any()
        out = tmp_path / "scaling.csv"
        table.write_csv(out)
        rows = [(a, n, table.gamma[k, j], table.slope[k])
                for k, a in enumerate(table.alphas) for j, n in enumerate(table.dims)]
        assert out.read_text() == csv_text_loop(table.HEADER, np.array(rows, dtype=float).T)

    # A per-outer column, one value per outer axis value, writes the bytes of
    # its np.repeat expansion as a cell column, whatever the blocks: one
    # cell a block, blocks of 7 cells (two rows of 3, or slices of a row of
    # 20) and one block over the grid.  Its NaN is an empty field.
    @pytest.mark.parametrize("block", [1, 7, 10**9])
    @pytest.mark.parametrize("n_inner", [3, 20])
    def test_per_outer_column_writes_its_repeat(self, tmp_path, monkeypatch, block, n_inner):
        monkeypatch.setattr(analysis, "GRID_BLOCK", block)
        outer, inner = np.array([0.5, 1.5, 2.5, 3.5, 4.5]), np.linspace(-1.0, 2.0, n_inner)
        cells = np.random.default_rng(39).standard_normal(outer.size * inner.size)
        slope = np.array([1.25, np.nan, -0.0, 2e-300, 0.1])
        header = ("outer", "inner", "cell", "slope")
        written = []
        for column in (slope, np.repeat(slope, inner.size)):
            out = tmp_path / f"x{len(written)}.csv"
            analysis._write_csv(out, header, outer, inner, (cells, column))
            written.append(out.read_text())
        assert written[0] == written[1]
        rows = written[0].splitlines()[1:]
        assert [row.rsplit(",", 1)[1] == "" for row in rows] == list(np.repeat(
            np.isnan(slope), inner.size))
        axes = [np.repeat(outer, inner.size), np.tile(inner, outer.size)]
        assert written[0] == csv_text_loop(header, axes + [cells, np.repeat(slope, inner.size)])

    # Beyond the columns it is handed the writer holds one block at a time,
    # its float stack and text, and a scan's T = R - Delta, 8 B a cell: it
    # peaks at about 38 B a cell.  Unblocked it peaked at about 370 B a
    # cell, and with one float stack of the whole grid at 107, so this
    # bound fails on both.
    @pytest.mark.parametrize("model_phi", [None, 1.0], ids=["two", "three"])
    def test_memory_per_cell(self, tmp_path, model_phi):
        res = run_scan(small_scan(dim=4, alpha=0.4, phi=0.3, counts=(201, 201),
                                  model_phi=model_phi))
        tracemalloc.start()
        try:
            res.write_csv(tmp_path / "scan.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 201**2

    # An outer row longer than a block is written in slices of at most
    # GRID_BLOCK cells, with the bytes of one block over the whole grid: NaN
    # cells on both sides of a slice edge, the short last slice, a NaN outer
    # value and a column that repeats one value per outer row.
    def test_long_rows_are_sliced(self, tmp_path, monkeypatch):
        outer, inner = np.array([0.5, np.nan, 2.0]), np.linspace(-1.0, 2.0, 1000)
        cells = outer.size * inner.size
        rng = np.random.default_rng(34)
        values = rng.standard_normal((2, cells)) * 10.0 ** rng.integers(-300, 300, (2, cells))
        values[0, [k * 1000 + i for k in range(3) for i in (299, 300, 599, 600, 999)]] = np.nan
        per_outer = np.array([np.nan, 1.5, -0.0])
        columns = [*values, np.isnan(values[0]), np.repeat(per_outer, inner.size)]
        header = ("outer", "inner", "a", "b", "flag", "per_outer")
        written = {}
        for block in (300, 10**9):
            monkeypatch.setattr(analysis, "GRID_BLOCK", block)
            chunks = written[block] = []
            monkeypatch.setattr(analysis, "_write_text", lambda path, parts: chunks.extend(parts))
            analysis._write_csv(tmp_path / "x.csv", header, outer, inner, columns)
        assert [chunk.count(b"\n") for chunk in written[300][1:]] == [300, 300, 300, 100] * 3
        assert b"".join(written[300]) == b"".join(written[10**9])
        axes = [np.repeat(outer, inner.size), np.tile(inner, outer.size)]
        assert b"".join(written[300]).decode() == csv_text_loop(header, axes + columns)

    # A grid with one long axis holds one block's text at a time, as a square
    # grid of the same size does.  Every grid here has 2^16 cells in blocks
    # of exactly GRID_BLOCK cells: at N = 4 the square one peaks at 27 B a
    # cell, two thetas by 2^15 fields at 29 (a slice lays out 2048 row
    # texts, the square grid's blocks 256) and 2^15 thetas by two fields at
    # 25.  Blocked by whole outer rows, the first peaked at 376 B a cell, and
    # the second, whose outer texts were laid out at once, at 136.
    def test_memory_per_cell_on_a_long_axis(self, tmp_path):
        def peak_per_cell(counts):
            res = run_scan(small_scan(dim=4, alpha=0.4, phi=0.3, counts=counts))
            tracemalloc.start()
            try:
                res.write_csv(tmp_path / "scan.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak / 2**16

        square = peak_per_cell((2**8, 2**8))
        assert peak_per_cell((2, 2**15)) <= 1.1 * square
        assert peak_per_cell((2**15, 2)) <= 1.1 * square


class TestGridBlocks:
    # Scans and the grid writer share one block rule: blocks cover the cells
    # once, in row order, each of at most GRID_BLOCK // parts cells (one at
    # least), so that parts blocks in flight hold at most GRID_BLOCK, with
    # the fewest blocks of whole rows, their count rounded up to a multiple
    # of parts where the rows allow and their row counts at most one apart,
    # or, for a row longer than a block, the fewest slices of each row.  The
    # writer takes one part, a scan one a thread.
    @pytest.mark.parametrize("rows, n", [(1, 1), (51, 51), (130, 70), (7, 300), (3, 1000),
                                         (1000, 3), (2, 301), (300, 300)])
    @pytest.mark.parametrize("block", [1, 7, 300, 2048])
    def test_blocks_cover_the_grid_in_order(self, monkeypatch, rows, n, block):
        monkeypatch.setattr(analysis, "GRID_BLOCK", block)
        grid = np.arange(rows * n)
        for parts in (1, 2, 3):
            size = max(1, block // parts)
            blocks = list(analysis._grid_blocks(rows, n, parts))
            assert np.array_equal(np.concatenate([grid[cells] for _, _, cells in blocks]), grid)
            for outer_rows, inner_cells, cells in blocks:
                assert 0 < cells.stop - cells.start <= size
                assert np.array_equal(grid.reshape(rows, n)[outer_rows, inner_cells].ravel(),
                                      grid[cells])
            sizes = [outer_rows.stop - outer_rows.start for outer_rows, _, _ in blocks]
            if n <= size:
                assert all(inner_cells == slice(0, n) for _, inner_cells, _ in blocks)
                fewest = math.ceil(rows / (size // n))
                assert len(blocks) == min(rows, math.ceil(fewest / parts) * parts)
                assert len(blocks) % parts == 0 or len(blocks) == rows
                assert max(sizes) - min(sizes) <= 1
            else:
                assert set(sizes) == {1}
                assert len(blocks) == rows * math.ceil(n / size)
        assert list(analysis._grid_blocks(rows, n)) == list(analysis._grid_blocks(rows, n, 1))

    # The grids of the benchmark's scans take two blocks in the writer ...
    def test_a_51_by_51_grid_is_two_blocks(self):
        assert [outer_rows for outer_rows, _, _ in analysis._grid_blocks(51, 51)] == [
            slice(0, 25), slice(25, 51)]

    # ... and four on a scan's two threads, at most GRID_BLOCK cells in
    # flight.
    def test_a_51_by_51_grid_is_four_blocks_on_two_threads(self):
        assert [outer_rows for outer_rows, _, _ in analysis._grid_blocks(51, 51, 2)] == [
            slice(0, 12), slice(12, 25), slice(25, 38), slice(38, 51)]


class TestWriteText:
    # Every output goes through analysis._write_text: an existing file is
    # overwritten in place and cut to length, and a path that is not a
    # regular file is written without being cut.

    def test_overwrite_leaves_no_stale_tail(self, tmp_path):
        out = tmp_path / "x.txt"
        out.write_text("stale " * 1000)
        analysis._write_text(out, (b"short\n",))
        assert out.read_bytes() == b"short\n"
        analysis._write_text(out, (b"longer text\n",))
        assert out.read_bytes() == b"longer text\n"

    # The length cut to is that of all chunks, not of the last one.
    def test_chunks_cut_a_longer_file_to_their_total(self, tmp_path):
        out = tmp_path / "x.txt"
        out.write_bytes(b"stale " * 1000)
        chunks = (b"first,", b"", b"second\n" * 50, b"last\n")
        analysis._write_text(out, iter(chunks))
        assert out.read_bytes() == b"".join(chunks)

    def test_pipe(self):
        read_end, write_end = os.pipe()
        try:
            analysis._write_text(f"/dev/fd/{write_end}", (b"through ", b"a pipe\n"))
            assert os.read(read_end, 100) == b"through a pipe\n"
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_dev_null(self):
        analysis._write_text(os.devnull, (b"nowhere,", b"at all\n"))
        run_scan(small_scan(counts=(3, 4))).write_csv(os.devnull)


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


def scale_draws(monkeypatch, scale):
    """Make every generator from ``np.random.default_rng`` draw its standard
    normals times ``scale``, for the rank experiment and its per-trial loop
    alike: scaled logits put the outcome probabilities far apart."""
    default_rng = np.random.default_rng

    def scaled(seed):
        normal = default_rng(seed).standard_normal
        return types.SimpleNamespace(standard_normal=lambda size: scale * normal(size))

    monkeypatch.setattr(np.random, "default_rng", scaled)


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

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            RankExperimentConfig(n_params=0, n_outcomes=3)
        with pytest.raises(InvalidInput):
            RankExperimentConfig(n_params=2, n_outcomes=1)

    # Only the configurations are built here: no experiment runs at a cap.
    def test_size_caps(self):
        RankExperimentConfig(n_params=MAX_RANK_PARAMS, n_outcomes=MAX_RANK_OUTCOMES)
        # trials * n * (d + 1) draws: 4 a trial at d = 1, n = 2
        RankExperimentConfig(n_params=1, n_outcomes=2, trials=MAX_RANK_DRAWS // 4)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_DRAWS)):
            RankExperimentConfig(n_params=1, n_outcomes=2, trials=MAX_RANK_DRAWS // 4 + 1)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_DRAWS)):
            RankExperimentConfig(n_params=2, n_outcomes=3, trials=10**20)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_PARAMS)):
            RankExperimentConfig(n_params=MAX_RANK_PARAMS + 1, n_outcomes=3)
        with pytest.raises(InvalidInput, match=str(MAX_RANK_OUTCOMES)):
            RankExperimentConfig(n_params=2, n_outcomes=MAX_RANK_OUTCOMES + 1)

    # A negative seed used to escape as numpy's ValueError.
    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1),
        dict(seed=1.5),
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
        config = RankExperimentConfig(n_params=d, n_outcomes=n, trials=300, seed=21)
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
                                      seed=17)
        got, want = fim_rank_experiment(config), fim_rank_loop(config)
        floats = ("max_normalized_det", "max_decomposition_residual")
        assert {k: v for k, v in got.items() if k not in floats} == {
            k: v for k, v in want.items() if k not in floats
        }
        assert got["max_normalized_det"] == pytest.approx(want["max_normalized_det"],
                                                          rel=1e-12, abs=1e-300)
        assert got["max_decomposition_residual"] <= 1e-13
        assert want["max_decomposition_residual"] <= 1e-13

    # With every draw scaled by 40 the logits spread so far that some trials
    # put p below 1e-14 on all outcomes but one: their FIM vanishes, up to
    # rounding, which must skip that trial only, as the loop does, and not
    # the rest of its block.  Enough blocks run that some trials keep two or
    # more outcomes and are informative.
    def test_vanishing_fim_skips_only_its_own_trial(self, monkeypatch):
        scale_draws(monkeypatch, 40.0)
        config = RankExperimentConfig(n_params=2, n_outcomes=3, trials=4 * RANK_BLOCK, seed=1)
        draws = np.random.default_rng((1, 2, 3)).standard_normal((config.trials, 3 + 3 * 2))
        z = draws[:, :3]
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
    def test_far_point_fields_are_finite(self, monkeypatch):
        scale_draws(monkeypatch, 40.0)
        config = RankExperimentConfig(n_params=2, n_outcomes=3, trials=1000, seed=1)
        got, want = fim_rank_experiment(config), fim_rank_loop(config)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == (pytest.approx(value, rel=1e-12) if type(value) is float
                                else value), key
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
        # The complex-step route takes no difference, so it is exact to
        # rounding.
        resid = doc["generator_route_residuals"]
        assert resid["series_vs_closed"] < 1e-14
        assert resid["numeric_vs_closed"] <= 4 * np.finfo(float).eps

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
            assert exact["series_vs_closed"] < 1e-14 and exact["numeric_vs_closed"] < 1e-14
            assert moved["series_vs_closed"] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-6)
            assert moved["numeric_vs_closed"] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-6)

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
        assert (spec.moments()[0] < 0).all()
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
    return (json.dumps(doc, sort_keys=True, allow_nan=False) + "\n").encode()


def same_values(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same JSON values, each of the same
    type, and each float with the same bits (``float.hex`` tells -0.0
    from 0.0)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same_values(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_values, a, b))
    return a.hex() == b.hex() if type(a) is float else a == b


class TestJsonWriter:
    # Every doc is written as json.dumps(sort_keys=True) and a newline.

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.one_of(report_docs(), st.builds(lambda: fim_rank_experiment(
        RankExperimentConfig(n_params=2, n_outcomes=3, trials=50, seed=1)))))
    def test_written_doc_round_trips(self, tmp_path, doc):
        analysis.write_json(tmp_path / "r.json", doc)
        assert same_values(json.loads((tmp_path / "r.json").read_text()), doc)

    @pytest.mark.parametrize("model", MODELS)
    def test_written_report_matches_json_dumps(self, tmp_path, model):
        for point in points_for(model):
            for singular_dim in (2, 5):
                doc = metrics_report(ProbeSpec(dim=singular_dim, alpha=0.3), point)
                analysis.write_json(tmp_path / "r.json", doc)
                assert (tmp_path / "r.json").read_bytes() == json_text(doc)

    # A doc with a report's keys but not a report's shape or value types is
    # written as any other doc is; one that json.dumps refuses with a
    # TypeError raises InvalidInput.
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
