"""Direction vectors and the three generator routes against each other."""

import numpy as np
import pytest

from spinmetro import (
    InvalidInput,
    ModelKind,
    ModelPoint,
    build_spin_rep,
    closed_generators,
    closed_generators_2p,
    closed_generators_3p,
    direction_vectors_2p,
    direction_vectors_3p,
    hamiltonian,
    j_direction,
    numeric_generators,
    series_generators,
)

from spinmetro.errors import StepInstability

from conftest import numeric_generators_loop, points_for, rep, three_param_points, two_param_points


def spectral_gap(a, b):
    scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1e-12)
    return np.linalg.norm(a - b, 2) / scale


class TestDirectionVectors2p:
    def test_reference_values(self):
        # theta = 0 and Bt = 0 pins the frame exactly.
        point = ModelPoint(b=0.0, theta=0.0, t=1.0)
        n_theta, n_theta_prime, n1, n2 = direction_vectors_2p(point)
        assert np.allclose(n_theta, [1, 0, 0])
        assert np.allclose(n_theta_prime, [0, 0, 1])
        assert np.allclose(n1, [0, 0, -1])
        assert np.allclose(n2, [0, 1, 0])

    @pytest.mark.parametrize("point", two_param_points())
    def test_frame_identities(self, point):
        n_theta, n_theta_prime, n1, n2 = direction_vectors_2p(point)
        for v in (n_theta, n_theta_prime, n1, n2):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(n_theta @ n1) < 1e-12
        assert np.abs(np.cross(n_theta, n1) - n2).max() < 1e-12


class TestDirectionVectors3p:
    def test_phi_zero_reduces_to_planar_model(self):
        point3 = ModelPoint(b=0.7, theta=1.2, t=5.0, phi=0.0)
        point2 = ModelPoint(b=0.7, theta=1.2, t=5.0)
        n_theta3, n13, _ = direction_vectors_3p(point3)
        n_theta, _, n1, _ = direction_vectors_2p(point2)
        assert np.allclose(n_theta3, n_theta, atol=1e-14)
        assert np.allclose(n13, n1, atol=1e-14)

    @pytest.mark.parametrize("point", three_param_points())
    def test_orthonormal_frame(self, point):
        n_theta, n1, n2 = direction_vectors_3p(point)
        for v in (n_theta, n1, n2):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(n_theta @ n1) < 1e-12
        assert abs(n_theta @ n2) < 1e-12
        assert abs(n1 @ n2) < 1e-12
        # handedness of the frame as constructed
        assert np.abs(np.cross(n_theta, n2) - n1).max() < 1e-12

    def test_static_limit(self):
        point = ModelPoint(b=0.0, theta=0.9, t=3.0, phi=0.6)
        _, _, n2 = direction_vectors_3p(point)
        assert np.allclose(n2, [np.sin(0.6), -np.cos(0.6), 0.0], atol=1e-14)


class TestHamiltonian:
    def test_zero_field(self):
        h = hamiltonian(rep(3), ModelKind.TWO_PARAM, ModelPoint(b=0.0, theta=0.4, t=1.0))
        assert np.abs(h).max() == 0.0

    def test_qubit_x_field(self):
        h = hamiltonian(rep(2), ModelKind.TWO_PARAM, ModelPoint(b=1.7, theta=0.0, t=1.0))
        assert np.allclose(h, 1.7 * np.asarray(rep(2).jx))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_spectrum_is_field_times_spin(self, kind):
        n = 5
        point = points_for(kind)[0]
        h = hamiltonian(rep(n), kind, point)
        s = (n - 1) / 2
        expected = point.b * np.arange(-s, s + 1)
        assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)

    def test_point_kind_mismatch(self):
        with pytest.raises(InvalidInput):
            hamiltonian(rep(2), ModelKind.THREE_PARAM, ModelPoint(b=1.0, theta=0.0, t=1.0))
        with pytest.raises(InvalidInput):
            hamiltonian(rep(2), ModelKind.TWO_PARAM, ModelPoint(b=1.0, theta=0.0, t=1.0, phi=0.2))


class TestClosedGenerators:
    def test_full_period_kills_theta_generator(self):
        point = ModelPoint(b=2 * np.pi / 5, theta=0.8, t=5.0)
        gens = closed_generators_2p(rep(4), point)
        assert np.abs(gens.matrices[1]).max() < 1e-12

    def test_qubit_theta_generator_spectrum(self):
        point = ModelPoint(b=0.9, theta=1.3, t=5.0)
        gens = closed_generators_2p(rep(2), point)
        sh = abs(np.sin(0.9 * 5 / 2))
        assert np.allclose(np.linalg.eigvalsh(gens.matrices[1]), [-sh, sh], atol=1e-12)

    def test_three_param_reduces_at_phi_zero(self):
        point3 = ModelPoint(b=0.9, theta=0.7, t=5.0, phi=0.0)
        point2 = ModelPoint(b=0.9, theta=0.7, t=5.0)
        g3 = closed_generators_3p(rep(5), point3)
        g2 = closed_generators_2p(rep(5), point2)
        assert np.abs(g3.matrices[0] - g2.matrices[0]).max() < 1e-12
        assert np.abs(g3.matrices[1] - g2.matrices[1]).max() < 1e-12

    def test_full_period_kills_both_angle_generators(self):
        point = ModelPoint(b=2 * np.pi / 5, theta=0.8, t=5.0, phi=1.2)
        gens = closed_generators_3p(rep(3), point)
        assert np.abs(gens.matrices[1]).max() < 1e-12
        assert np.abs(gens.matrices[2]).max() < 1e-12

    def test_phi_generator_vanishes_at_polar_angle(self):
        # At theta = pi/2 the Hamiltonian is independent of phi.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0, phi=0.7)
        gens = closed_generators_3p(rep(4), point)
        assert np.abs(gens.matrices[2]).max() < 1e-12
        numeric = numeric_generators(rep(4), ModelKind.THREE_PARAM, point)
        assert np.abs(numeric.matrices[2]).max() < 1e-7


class TestNumericGenerators:
    def test_matches_closed_two_param(self):
        point = ModelPoint(b=1.0, theta=0.7, t=5.0)
        closed = closed_generators_2p(rep(3), point)
        numeric = numeric_generators(rep(3), ModelKind.TWO_PARAM, point)
        for i in range(2):
            assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6
        assert all(r < 1e-8 for r in numeric.herm_residuals)

    def test_matches_closed_three_param(self):
        point = ModelPoint(b=1.3, theta=0.4, t=5.0, phi=1.1)
        closed = closed_generators_3p(rep(4), point)
        numeric = numeric_generators(rep(4), ModelKind.THREE_PARAM, point)
        for i in range(3):
            assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6

    def test_static_field_has_no_angle_dependence(self):
        point = ModelPoint(b=0.0, theta=0.4, t=5.0, phi=0.3)
        numeric = numeric_generators(rep(3), ModelKind.THREE_PARAM, point)
        assert np.abs(numeric.matrices[1]).max() < 1e-10
        assert np.abs(numeric.matrices[2]).max() < 1e-10

    def test_second_order_convergence(self):
        # Central differences: halving the step cuts the error ~4x.  Use a
        # large step so truncation dominates roundoff.
        point = ModelPoint(b=1.0, theta=0.7, t=5.0)
        closed = closed_generators_2p(rep(3), point)

        def err(step):
            num = numeric_generators(rep(3), ModelKind.TWO_PARAM, point, step=step)
            return max(
                np.linalg.norm(num.matrices[i] - closed.matrices[i], 2) for i in range(2)
            )

        ratio = err(2e-3) / err(1e-3)
        assert 2.5 < ratio < 6.0

    def test_bad_step(self):
        with pytest.raises(InvalidInput):
            numeric_generators(rep(2), ModelKind.TWO_PARAM, two_param_points()[0], step=0.0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_stacked_differences_match_per_parameter_loop(self, kind, n):
        for point in points_for(kind):
            stacked = numeric_generators(rep(n), kind, point)
            loop = numeric_generators_loop(rep(n), kind, point)
            assert np.array_equal(stacked.matrices, loop.matrices)
            assert np.allclose(stacked.herm_residuals, loop.herm_residuals, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "kind, phi", [(ModelKind.TWO_PARAM, None), (ModelKind.THREE_PARAM, 1.1)]
    )
    def test_unstable_step_names_first_unstable_parameter(self, kind, phi):
        # At this step the theta residual is 6.0e-4 and, with three
        # parameters, the phi residual a larger 6.2e-4; theta comes first.
        point = ModelPoint(b=1.0, theta=0.7, t=5.0, phi=phi)
        for route in (numeric_generators, numeric_generators_loop):
            with pytest.raises(StepInstability, match=r"for theta\b"):
                route(rep(3), kind, point, step=0.05)


class TestSeriesGenerators:
    def test_short_time_leading_order(self):
        point = ModelPoint(b=1.4, theta=0.9, t=0.01)
        gens = series_generators(rep(3), ModelKind.TWO_PARAM, point)
        n_theta, n_theta_prime, _, _ = direction_vectors_2p(point)
        lead_b = -point.t * j_direction(rep(3), n_theta)
        lead_theta = -point.t * point.b * j_direction(rep(3), n_theta_prime)
        # corrections enter at second order in t
        assert np.abs(gens.matrices[0] - lead_b).max() < 0.01 * np.linalg.norm(lead_b, 2)
        assert np.abs(gens.matrices[1] - lead_theta).max() < 0.01 * np.linalg.norm(lead_theta, 2)

    def test_matches_closed_qubit(self):
        point = ModelPoint(b=2.0, theta=1.0, t=3.0)
        series = series_generators(rep(2), ModelKind.TWO_PARAM, point)
        closed = closed_generators_2p(rep(2), point)
        for i in range(2):
            assert spectral_gap(series.matrices[i], closed.matrices[i]) < 1e-10

    def test_matches_numeric_three_param(self):
        point = ModelPoint(b=0.8, theta=1.1, t=5.0, phi=2.3)
        series = series_generators(rep(4), ModelKind.THREE_PARAM, point)
        numeric = numeric_generators(rep(4), ModelKind.THREE_PARAM, point)
        for i in range(3):
            assert spectral_gap(series.matrices[i], numeric.matrices[i]) < 1e-6

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("b", [0.0, 1e-12])
    def test_degenerate_and_near_degenerate_field(self, kind, b):
        # At B = 0 every level of H coincides and the kernel takes its
        # w = 0 value -t; at B = 1e-12 the gaps are tiny but nonzero.
        phi = None if kind is ModelKind.TWO_PARAM else 2.3
        point = ModelPoint(b=b, theta=0.9, t=5.0, phi=phi)
        series = series_generators(rep(6), kind, point)
        closed = closed_generators(rep(6), kind, point)
        assert np.abs(series.matrices - closed.matrices).max() < 1e-12


class TestRouteAgreement:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 40])
    def test_three_routes_pairwise(self, kind, n):
        for point in points_for(kind):
            closed = closed_generators(rep(n), kind, point)
            series = series_generators(rep(n), kind, point)
            numeric = numeric_generators(rep(n), kind, point)
            for i in range(kind.n_params):
                assert spectral_gap(closed.matrices[i], series.matrices[i]) < 1e-6
                assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_dense_routes_at_large_dimension(self, kind):
        # The oracles must hold where t ||H|| is large: about 600 at N = 400
        # at the command line's default point.  The series route sums
        # exactly, and the finite-difference step rule still resolves the
        # closed generators.
        phi = None if kind is ModelKind.TWO_PARAM else 1.0
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=phi)
        for n in (60, 100, 400):
            spin = build_spin_rep(n)
            closed = closed_generators(spin, kind, point)
            series = series_generators(spin, kind, point)
            numeric = numeric_generators(spin, kind, point)
            for i in range(kind.n_params):
                assert spectral_gap(series.matrices[i], closed.matrices[i]) <= 1e-12
                assert spectral_gap(numeric.matrices[i], closed.matrices[i]) <= 1e-4

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_field_generator_proportional_to_hamiltonian(self, kind):
        for point in points_for(kind):
            gens = closed_generators(rep(4), kind, point)
            h = hamiltonian(rep(4), kind, point)
            assert np.abs(gens.matrices[0] + point.t * h / point.b).max() < 1e-9

    @pytest.mark.parametrize("point", two_param_points())
    def test_generator_commutator_identity(self, point):
        # [G_B, G_theta] = -2j t sin(Bt/2) J_{n2} for the planar model.
        gens = closed_generators_2p(rep(5), point)
        g_b, g_theta = gens.matrices
        _, _, _, n2 = direction_vectors_2p(point)
        expected = -2j * point.t * np.sin(point.b * point.t / 2) * j_direction(rep(5), n2)
        assert np.abs(g_b @ g_theta - g_theta @ g_b - expected).max() < 1e-9


class TestModelPoint:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidInput):
            ModelPoint(b=1.0, theta=0.0, t=0.0)

    def test_values_ordering(self):
        point = ModelPoint(b=1.0, theta=2.0, t=3.0, phi=4.0)
        assert np.allclose(point.values(), [1.0, 2.0, 4.0])
