"""Closed-form model results against the generic generator route."""

import numpy as np
import pytest

from spinmetro import (
    InvalidInput,
    ModelKind,
    ModelPoint,
    ScanConfig,
    ai_measure,
    bloch_vector,
    bounds,
    closed_frame,
    closed_generators,
    frame_qfim_uhlmann,
    make_probe,
    qfim_uhlmann,
    qubit2p_closed,
    qudit2p_closed,
    spin_moments,
    sym_inverse,
    threeparam_uhlmann_closed,
)
from spinmetro import models
from spinmetro.models import MAX_DIM, ProbeSpec, extreme_moments

from conftest import ai_two_param, haar_state, rep, three_param_points
from oracles import ai_threeparam_probe, state_from_bloch

EPS = np.finfo(float).eps


class TestMakeProbe:
    def test_extreme_state(self):
        psi = make_probe(ProbeSpec(dim=5, alpha=0.0))
        assert np.allclose(psi, [1, 0, 0, 0, 0])

    def test_balanced_superposition(self):
        psi = make_probe(ProbeSpec(dim=4, alpha=np.pi / 4))
        assert psi[0] == pytest.approx(1 / np.sqrt(2))
        assert psi[-1] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_balanced_probe_kills_uhlmann(self):
        # alpha = pi/4 is the unique compatibility angle of the planar model.
        point = ModelPoint(b=0.9, theta=0.8, t=5.0)
        psi = make_probe(ProbeSpec(dim=5, alpha=np.pi / 4, phi=0.3))
        _, d = qfim_uhlmann(closed_generators(rep(5), ModelKind.TWO_PARAM, point), psi)
        assert np.abs(d).max() < 1e-12

    def test_bad_dimension(self):
        with pytest.raises(InvalidInput):
            ProbeSpec(dim=1, alpha=0.0)

    def test_dimension_cap(self):
        assert ProbeSpec(dim=MAX_DIM, alpha=0.0).dim == 10**6
        with pytest.raises(InvalidInput, match="at most"):
            ProbeSpec(dim=MAX_DIM + 1, alpha=0.0)

    # A float dimension was accepted and kept as a float.
    @pytest.mark.parametrize("dim", [4.0, 4.5, "4", True, np.True_, np.float64(4.0)])
    def test_dimension_must_be_an_integer(self, dim):
        with pytest.raises(InvalidInput, match="must be an integer"):
            ProbeSpec(dim=dim, alpha=0.0)

    # The float fields of the three input classes follow one rule, beside the
    # integer rule: a string, None or a bool raised a raw TypeError, and a NaN
    # or an infinity is rejected too.  None is the two-parameter point's phi.
    @pytest.mark.parametrize("cls, field", [
        (ProbeSpec, "alpha"), (ProbeSpec, "phi"), (ModelPoint, "b"), (ModelPoint, "theta"),
        (ModelPoint, "t"), (ModelPoint, "phi"), (ScanConfig, "t"), (ScanConfig, "model_phi"),
    ], ids=lambda x: x if isinstance(x, str) else x.__name__)
    @pytest.mark.parametrize("value", ["1", None, True, np.True_, np.nan, -np.inf],
                             ids=["str", "None", "bool", "np.bool", "nan", "-inf"])
    def test_float_fields_must_be_finite_numbers(self, cls, field, value):
        valid = {
            ProbeSpec: dict(dim=4, alpha=0.3, phi=0.0),
            ModelPoint: dict(b=1.0, theta=0.5, t=5.0, phi=1.0),
            ScanConfig: dict(kind=ModelKind.TWO_PARAM, probe=ProbeSpec(dim=2, alpha=0.2), t=5.0),
        }[cls]
        if cls is ModelPoint and field == "phi" and value is None:
            assert cls(**{**valid, field: value}).n_params == 2
            return
        with pytest.raises(InvalidInput, match="must be a finite number"):
            cls(**{**valid, field: value})

    @pytest.mark.parametrize("dim", [np.int64(5), np.uint16(5), np.int8(5)])
    def test_numpy_dimension_is_stored_as_int(self, dim):
        spec = ProbeSpec(dim=dim, alpha=0.3)
        assert type(spec.dim) is int and spec.dim == 5
        assert make_probe(spec).shape == (5,)


class TestProbeSupport:
    # A probe's moments come from its support {0, N - 1}: windows apart
    # (N >= 5), touching (4) or overlapping (3, 2), and at the dimension cap.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, MAX_DIM])
    @pytest.mark.parametrize("alpha, phi", [(0.3, 0.0), (1e-6, 0.7), (np.pi / 4, 4.0),
                                            (1.2, 2.1), (0.0, 0.0), (np.pi / 2, 1.0)])
    def test_moments_match_the_explicit_state(self, n, alpha, phi):
        spec = ProbeSpec(dim=n, alpha=alpha, phi=phi)
        mean, cov = spec.moments()
        want_mean, want_cov = spin_moments(make_probe(spec))
        j = (n - 1) / 2
        assert np.abs(mean - want_mean).max() <= 4 * EPS * j
        assert np.abs(cov - want_cov).max() <= 8 * EPS * max(j, 1.0) ** 2
        assert np.array_equal(cov, cov.T)

    # The layout's Jz eigenvalues and ladder elements, affine in N, are
    # exactly those of the positions (0, 1, N - 2, N - 1).
    @pytest.mark.parametrize("n", [*range(2, 13), 10**3, MAX_DIM - 1, MAX_DIM])
    def test_layout_is_that_of_the_positions(self, n):
        positions = np.array({2: [0, 1, 1, 1], 3: [0, 1, 2, 2]}.get(n, [0, 1, n - 2, n - 1]))
        s = (n - 1) / 2
        m = s - positions
        ladder = np.where(np.diff(positions) == 1, np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] - 1)), 0.0)
        layout = models._SCALE[min(n, 5)] * n + models._SHIFT[min(n, 5)]
        assert layout[:4].tobytes() == m.tobytes()
        assert np.sqrt(layout[4:]).tobytes() == ladder.tobytes()

    def test_support_is_two_amplitudes(self):
        index, amp = ProbeSpec(dim=MAX_DIM, alpha=0.4, phi=1.1).support()
        assert index.tolist() == [0, MAX_DIM - 1]
        assert np.allclose(amp, [np.cos(0.4), np.exp(1.1j) * np.sin(0.4)], rtol=0, atol=EPS)

    # One moments call over a stack of (alpha, N) probes gives each probe's
    # moments of its own call.
    def test_stacked_probes_match_one_at_a_time(self):
        dims, alphas = np.array([2, 3, 4, 5, 9, 240]), np.array([[0.0], [0.3], [1.2]])
        mean, cov = extreme_moments(dims, alphas, 0.7)
        assert mean.shape == (3, 6, 3) and cov.shape == (3, 6, 3, 3)
        for k, alpha in enumerate(alphas[:, 0]):
            for j, n in enumerate(dims):
                one = ProbeSpec(dim=int(n), alpha=float(alpha), phi=0.7).moments()
                assert np.abs(mean[k, j] - one[0]).max() <= 4 * EPS * n
                assert np.abs(cov[k, j] - one[1]).max() <= 8 * EPS * n**2


class TestBlochHelpers:
    def test_round_trip(self, rng):
        for _ in range(10):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            assert np.allclose(bloch_vector(state_from_bloch(r)), r, atol=1e-12)

    def test_plus_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(bloch_vector(plus), [1, 0, 0], atol=1e-12)


class TestQubitClosedForm:
    def test_probe_along_n2_is_maximal(self):
        from spinmetro import direction_vectors_2p

        point = ModelPoint(b=0.9, theta=0.6, t=5.0)
        n2 = direction_vectors_2p(point)[3]
        res = qubit2p_closed(n2, point)
        assert not res.singular
        assert res.r_ai == pytest.approx(1.0, abs=1e-12)
        # along n2 the denominator is exactly 1
        assert res.d_theta_b == pytest.approx(
            2 * point.t * np.sin(point.b * point.t / 2), rel=1e-12
        )

    def test_probe_orthogonal_to_n2_is_singular(self):
        from spinmetro import direction_vectors_2p

        point = ModelPoint(b=0.9, theta=0.6, t=5.0)
        n_theta = direction_vectors_2p(point)[0]
        res = qubit2p_closed(n_theta, point)
        assert res.singular and res.r_ai is None

    def test_matches_generic_route(self, rng):
        point = ModelPoint(b=1.1, theta=1.7, t=5.0)
        gens = closed_generators(rep(2), ModelKind.TWO_PARAM, point)
        for _ in range(20):
            probe = haar_state(rng, 2)
            res = qubit2p_closed(bloch_vector(probe), point)
            q, d = qfim_uhlmann(gens, probe)
            assert np.abs(res.qfim - q).max() < 1e-9
            assert abs(res.d_theta_b - d[1, 0]) < 1e-9
            r = ai_measure(q, d)
            if res.singular:
                assert r is None or abs(np.linalg.det(q)) < 1e-9
            else:
                assert abs(res.r_ai - r) < 1e-9


class TestQuditClosedForm:
    def test_axial_field_value(self):
        # theta = 0: Q_BB collapses to (N-1) t^2.
        point = ModelPoint(b=0.7, theta=0.0, t=2.0)
        q, _ = qudit2p_closed(ProbeSpec(dim=4, alpha=0.3), point)
        assert q[0, 0] == pytest.approx(3 * point.t**2, rel=1e-12)

    def test_balanced_probe_compatible_with_invertible_qfim(self):
        point = ModelPoint(b=0.9, theta=0.8, t=5.0)
        for n in (4, 6):
            q, d_tb = qudit2p_closed(ProbeSpec(dim=n, alpha=np.pi / 4), point)
            assert abs(d_tb) < 1e-12
            assert np.linalg.det(q) > 1e-6
            assert ai_two_param(q, np.array([[0, -d_tb], [d_tb, 0]])) == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_matches_generic_route(self, n):
        spec = ProbeSpec(dim=n, alpha=0.3, phi=0.9)
        point = ModelPoint(b=1.1, theta=0.6, t=5.0)
        q_closed, d_tb = qudit2p_closed(spec, point)
        q, d = qfim_uhlmann(closed_generators(rep(n), ModelKind.TWO_PARAM, point), make_probe(spec))
        scale = np.linalg.norm(q, 2)
        assert np.abs(q_closed - q).max() < 1e-7 * scale
        assert abs(d_tb - d[1, 0]) < 1e-7 * scale

    def test_unbalanced_probe_keeps_incompatibility(self):
        # away from alpha = pi/4 the Uhlmann element is bounded away from 0
        point = ModelPoint(b=0.9, theta=0.8, t=5.0)
        _, d_tb = qudit2p_closed(ProbeSpec(dim=5, alpha=0.5), point)
        assert abs(d_tb) > 0.1

    def test_phase_independence(self):
        point = ModelPoint(b=1.1, theta=0.6, t=5.0)
        q1, d1 = qudit2p_closed(ProbeSpec(dim=5, alpha=0.4, phi=0.0), point)
        gens = closed_generators(rep(5), ModelKind.TWO_PARAM, point)
        for phi in (0.9, 4.1):
            q, d = qfim_uhlmann(gens, make_probe(ProbeSpec(dim=5, alpha=0.4, phi=phi)))
            assert np.abs(q - q1).max() < 1e-10
            assert abs(d[1, 0] - d1) < 1e-10

    def test_small_dimensions_rejected(self):
        point = ModelPoint(b=1.0, theta=0.5, t=5.0)
        for n in (2, 3):
            with pytest.raises(InvalidInput):
                qudit2p_closed(ProbeSpec(dim=n, alpha=0.3), point)


class TestThreeParamUhlmannClosed:
    def test_full_period_vanishes(self, rng):
        point = ModelPoint(b=2 * np.pi / 5, theta=0.7, t=5.0, phi=1.3)
        d = threeparam_uhlmann_closed(rep(4), haar_state(rng, 4), point)
        assert np.abs(d).max() < 1e-12

    def test_matches_generic_route(self, rng):
        for point in three_param_points():
            probe = haar_state(rng, 4)
            closed = threeparam_uhlmann_closed(rep(4), probe, point)
            _, d = qfim_uhlmann(closed_generators(rep(4), ModelKind.THREE_PARAM, point), probe)
            assert np.abs(closed - d).max() < 1e-8

    def test_balanced_probe_is_compatible(self):
        point = ModelPoint(b=0.9, theta=0.7, t=5.0, phi=0.8)
        for n in (4, 6):
            probe = make_probe(ProbeSpec(dim=n, alpha=np.pi / 4, phi=1.1))
            q, d = qfim_uhlmann(closed_generators(rep(n), ModelKind.THREE_PARAM, point), probe)
            assert np.abs(d).max() < 1e-12
            assert ai_measure(q, d) == pytest.approx(0.0, abs=1e-10)


class TestAiThreeParamProbe:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(np.pi / 4, 0.0), (0.0, 1.0), (np.pi / 3, 0.5)],
    )
    def test_reference_values(self, alpha, expected):
        assert ai_threeparam_probe(6, alpha) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_matches_generic_pipeline(self, n):
        point = ModelPoint(b=0.9, theta=0.6, t=5.0, phi=0.4)
        for alpha in (0.3, np.pi / 3, 1.1):
            probe = make_probe(ProbeSpec(dim=n, alpha=alpha, phi=0.7))
            q, d = qfim_uhlmann(closed_generators(rep(n), ModelKind.THREE_PARAM, point), probe)
            r = ai_measure(q, d)
            assert r == pytest.approx(ai_threeparam_probe(n, alpha), abs=1e-6)

    def test_out_of_regime(self):
        with pytest.raises(InvalidInput):
            ai_threeparam_probe(3, 0.5)


class TestDimensionLadder:
    def test_three_param_qubit_always_singular(self, rng):
        for point in three_param_points():
            for _ in range(5):
                probe = haar_state(rng, 2)
                q, _ = qfim_uhlmann(closed_generators(rep(2), ModelKind.THREE_PARAM, point), probe)
                assert abs(np.linalg.det(q)) <= 1e-10 * max(np.linalg.norm(q, 2) ** 3, 1e-30)

    def test_three_param_qutrit_maximal(self, rng):
        point = ModelPoint(b=0.8, theta=0.5, t=5.0, phi=2.1)
        hits = 0
        for alpha, phi in zip(rng.uniform(0.2, 1.3, 10), rng.uniform(0, 2 * np.pi, 10)):
            probe = make_probe(ProbeSpec(dim=3, alpha=alpha, phi=phi))
            q, d = qfim_uhlmann(closed_generators(rep(3), ModelKind.THREE_PARAM, point), probe)
            r = ai_measure(q, d)
            if r is not None:
                assert r == pytest.approx(1.0, abs=1e-6)
                hits += 1
        assert hits >= 5

    def test_three_param_qutrit_maximal_for_every_pure_probe(self, rng):
        # With three parameters R = 1/2 sqrt(<J>^T Cov <J> / det Cov), and
        # every pure spin-1 state has <J>^T Cov <J> = 4 det Cov, so R = 1
        # wherever Q is regular, not only on the extreme-state family.
        for point in three_param_points():
            frame = closed_frame(ModelKind.THREE_PARAM, point.b, point.theta, point.t, point.phi)
            for _ in range(10):
                mean, cov = spin_moments(haar_state(rng, 3))
                assert mean @ cov @ mean == pytest.approx(4 * np.linalg.det(cov), rel=1e-9)
                singular, r_ai, *_ = bounds(*frame_qfim_uhlmann(frame, mean, cov))
                assert not singular
                assert r_ai == pytest.approx(1.0, abs=1e-9)


def gamma_from_model(kind, n, baseline, alpha, point, phi=0.0):
    """Gamma = Tr(Q_N Q_baseline^-1) through the dense generator route."""
    q_n, q_b = (
        qfim_uhlmann(closed_generators(rep(m), kind, point),
                     make_probe(ProbeSpec(dim=m, alpha=alpha, phi=phi)))[0]
        for m in (n, baseline)
    )
    return np.trace(q_n @ sym_inverse(q_b))


class TestGammaScaling:
    def test_three_param_exact_closed_form(self):
        # With the balanced probe the ratio against the N = 4 reference is
        # exactly (N - 1) + (N - 1)(N - 4) / 9, independent of the point.
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=1.0)
        for n in (5, 8, 12):
            got = gamma_from_model(ModelKind.THREE_PARAM, n, 4, np.pi / 4, point, phi=0.3)
            assert got == pytest.approx((n - 1) + (n - 1) * (n - 4) / 9, rel=1e-10)

    def test_two_param_desk_scale_slope(self):
        # At the best evaluation point the ratio is exactly x^2 + x in
        # x = N - 1, whose log-log least-squares slope over N = 4..12 is
        # 1.8494; the quadratic term dominates only asymptotically.
        point = ModelPoint(b=np.pi / 5, theta=np.pi / 2, t=5.0)
        gammas = [gamma_from_model(ModelKind.TWO_PARAM, n, 2, np.pi / 4, point) for n in range(4, 13)]
        x = np.arange(3, 12)
        assert np.allclose(gammas, x**2 + x, rtol=1e-9)
        slope = np.polyfit(np.log(x), np.log(gammas), 1)[0]
        assert slope == pytest.approx(1.8494, abs=5e-4)

    def test_two_param_asymptotic_slope_is_quadratic(self):
        # The leading-order quadratic growth shows cleanly at larger N.
        point = ModelPoint(b=np.pi / 5, theta=np.pi / 2, t=5.0)
        dims = [40, 70, 100]
        gammas = [gamma_from_model(ModelKind.TWO_PARAM, n, 2, np.pi / 4, point) for n in dims]
        slope = np.polyfit(np.log(np.array(dims) - 1.0), np.log(gammas), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)
