"""Direction vectors and the three generator routes against each other."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinmetro import InvalidInput, ModelPoint, closed_frame, numeric_frame, series_frame
from spinmetro.analysis import _route_residuals
from spinmetro.encoding import (
    GeneratorSet,
    _hamiltonian_derivatives,
    closed_generators,
    direction_vectors,
    hamiltonian,
    numeric_generators,
    series_generators,
)
from spinmetro.errors import NumericalFailure
from spinmetro.linalg import build_spin_rep, j_direction

from conftest import (
    MODELS,
    directions_2p_reference,
    points_for,
    rep,
    three_param_points,
    two_param_points,
)

# Grids for the planar reference: the quarter turns of theta, where sines
# and cosines vanish, B = 0 and a full field period 2 pi / 5 at t = 5.
REF_THETAS = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi, 0.7, 1.9, 2.6)
REF_BS = (0.0, 0.45, 0.9, 2 * np.pi / 5, 1.1)


def reference_points(t=5.0):
    return [ModelPoint(b=b, theta=theta, t=t) for b in REF_BS for theta in REF_THETAS]


def spectral_gap(a, b):
    scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1e-12)
    return np.linalg.norm(a - b, 2) / scale


class TestDirectionVectors2p:
    def test_reference_values(self):
        # theta = 0 and Bt = 0 pins the frame exactly.
        point = ModelPoint(b=0.0, theta=0.0, t=1.0)
        n_theta, n1, n2 = direction_vectors(point)
        assert np.allclose(n_theta, [1, 0, 0])
        assert np.allclose(n1, [0, 0, -1])
        assert np.allclose(n2, [0, -1, 0])

    # One sign convention for both models: n_theta x n2 = n1, so the
    # planar model's n_theta x n1 is -n2.
    @pytest.mark.parametrize("point", two_param_points())
    def test_frame_identities(self, point):
        n_theta, n1, n2 = direction_vectors(point)
        for v in (n_theta, n1, n2):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(n_theta @ n1) < 1e-12
        assert np.abs(np.cross(n_theta, n2) - n1).max() < 1e-12
        assert np.abs(np.cross(n_theta, n1) + n2).max() < 1e-12


class TestTwoParamAgainstPlanarReference:
    """Every two-parameter quantity is built from the three-parameter rows
    at phi = 0; each must equal the planar model's own construction
    exactly, up to the sign of zeros (``-0.0 == 0.0``)."""

    @pytest.mark.parametrize("t", [0.01, 5.0])
    def test_closed_frame(self, t):
        b, theta = np.meshgrid(REF_BS, REF_THETAS)
        ref = directions_2p_reference(b, theta, t)
        sh = np.sin(b * (t / 2))
        want = np.stack([-t * ref[..., 0, :], 2 * sh[..., None] * ref[..., 2, :]], axis=-2)
        assert np.array_equal(closed_frame(b, theta, t), want)

    def test_direction_vectors(self):
        for point in reference_points():
            n_theta, _, n1, n2 = directions_2p_reference(point.b, point.theta, point.t)
            assert np.array_equal(np.stack(direction_vectors(point)),
                                  np.stack([n_theta, n1, -n2]))

    @pytest.mark.parametrize("n", [2, 5])
    def test_hamiltonian(self, n):
        for point in reference_points():
            n_theta = directions_2p_reference(point.b, point.theta, point.t)[0]
            want = point.b * j_direction(rep(n), n_theta)
            assert np.array_equal(hamiltonian(rep(n), point), want)

    @pytest.mark.parametrize("n", [2, 5])
    def test_series_route_hamiltonian_derivatives(self, n):
        # d_B H = n_theta . J and d_theta H = B n_theta_prime . J.
        for point in reference_points():
            ref = directions_2p_reference(point.b, point.theta, point.t)
            want = np.array([1.0, point.b])[:, None, None] * j_direction(rep(n), ref[:2])
            got = _hamiltonian_derivatives(rep(n), point)
            assert np.array_equal(got, want)


class TestDirectionVectors3p:
    def test_phi_zero_reduces_to_planar_model(self):
        # The planar n2 = n_theta x n1 is minus the three-parameter n2.
        for point in reference_points():
            point3 = ModelPoint(b=point.b, theta=point.theta, t=point.t, phi=0.0)
            n_theta, _, n1, n2 = directions_2p_reference(point.b, point.theta, point.t)
            assert np.array_equal(np.stack(direction_vectors(point3)),
                                  np.stack([n_theta, n1, -n2]))
            assert np.array_equal(np.stack(direction_vectors(point3)),
                                  np.stack(direction_vectors(point)))

    @pytest.mark.parametrize("point", three_param_points())
    def test_orthonormal_frame(self, point):
        n_theta, n1, n2 = direction_vectors(point)
        for v in (n_theta, n1, n2):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(n_theta @ n1) < 1e-12
        assert abs(n_theta @ n2) < 1e-12
        assert abs(n1 @ n2) < 1e-12
        # handedness of the frame as constructed
        assert np.abs(np.cross(n_theta, n2) - n1).max() < 1e-12

    def test_static_limit(self):
        point = ModelPoint(b=0.0, theta=0.9, t=3.0, phi=0.6)
        _, _, n2 = direction_vectors(point)
        assert np.allclose(n2, [np.sin(0.6), -np.cos(0.6), 0.0], atol=1e-14)


class TestHamiltonian:
    def test_zero_field(self):
        h = hamiltonian(rep(3), ModelPoint(b=0.0, theta=0.4, t=1.0))
        assert np.abs(h).max() == 0.0

    def test_qubit_x_field(self):
        h = hamiltonian(rep(2), ModelPoint(b=1.7, theta=0.0, t=1.0))
        assert np.allclose(h, 1.7 * np.asarray(rep(2).jx))

    @pytest.mark.parametrize("model", MODELS)
    def test_spectrum_is_field_times_spin(self, model):
        n = 5
        point = points_for(model)[0]
        h = hamiltonian(rep(n), point)
        s = (n - 1) / 2
        expected = point.b * np.arange(-s, s + 1)
        assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


class TestClosedGenerators:
    def test_full_period_kills_theta_generator(self):
        point = ModelPoint(b=2 * np.pi / 5, theta=0.8, t=5.0)
        gens = closed_generators(rep(4), point)
        assert np.abs(gens.matrices[1]).max() < 1e-12

    def test_qubit_theta_generator_spectrum(self):
        point = ModelPoint(b=0.9, theta=1.3, t=5.0)
        gens = closed_generators(rep(2), point)
        sh = abs(np.sin(0.9 * 5 / 2))
        assert np.allclose(np.linalg.eigvalsh(gens.matrices[1]), [-sh, sh], atol=1e-12)

    def test_three_param_reduces_at_phi_zero(self):
        point3 = ModelPoint(b=0.9, theta=0.7, t=5.0, phi=0.0)
        point2 = ModelPoint(b=0.9, theta=0.7, t=5.0)
        g3 = closed_generators(rep(5), point3)
        g2 = closed_generators(rep(5), point2)
        assert np.abs(g3.matrices[0] - g2.matrices[0]).max() < 1e-12
        assert np.abs(g3.matrices[1] - g2.matrices[1]).max() < 1e-12

    def test_full_period_kills_both_angle_generators(self):
        point = ModelPoint(b=2 * np.pi / 5, theta=0.8, t=5.0, phi=1.2)
        gens = closed_generators(rep(3), point)
        assert np.abs(gens.matrices[1]).max() < 1e-12
        assert np.abs(gens.matrices[2]).max() < 1e-12

    def test_phi_generator_vanishes_at_polar_angle(self):
        # At theta = pi/2 the Hamiltonian is independent of phi.
        point = ModelPoint(b=0.9, theta=np.pi / 2, t=5.0, phi=0.7)
        gens = closed_generators(rep(4), point)
        assert np.abs(gens.matrices[2]).max() < 1e-12
        numeric = numeric_generators(rep(4), point)
        assert np.abs(numeric.matrices[2]).max() < 1e-7


class TestNumericGenerators:
    def test_matches_closed_two_param(self):
        point = ModelPoint(b=1.0, theta=0.7, t=5.0)
        closed = closed_generators(rep(3), point)
        numeric = numeric_generators(rep(3), point)
        for i in range(2):
            assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6
        assert all(r < 1e-8 for r in numeric.herm_residuals)

    def test_matches_closed_three_param(self):
        point = ModelPoint(b=1.3, theta=0.4, t=5.0, phi=1.1)
        closed = closed_generators(rep(4), point)
        numeric = numeric_generators(rep(4), point)
        for i in range(3):
            assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6

    def test_static_field_has_no_angle_dependence(self):
        point = ModelPoint(b=0.0, theta=0.4, t=5.0, phi=0.3)
        numeric = numeric_generators(rep(3), point)
        assert np.abs(numeric.matrices[1]).max() < 1e-10
        assert np.abs(numeric.matrices[2]).max() < 1e-10

    def test_second_order_convergence(self):
        # Central differences: halving the step cuts the error ~4x.  Use a
        # large step so truncation dominates roundoff.
        point = ModelPoint(b=1.0, theta=0.7, t=5.0)
        closed = closed_generators(rep(3), point)

        def err(step):
            num = numeric_generators(rep(3), point, step=step)
            return max(
                np.linalg.norm(num.matrices[i] - closed.matrices[i], 2) for i in range(2)
            )

        ratio = err(2e-3) / err(1e-3)
        assert 2.5 < ratio < 6.0

    def test_bad_step(self):
        with pytest.raises(InvalidInput):
            numeric_generators(rep(2), two_param_points()[0], step=0.0)

    @pytest.mark.parametrize("phi", [pytest.param(None, id="ModelKind.TWO_PARAM-None"),
                                     pytest.param(1.1, id="ModelKind.THREE_PARAM-1.1")])
    def test_unstable_step_names_first_unstable_parameter(self, phi):
        # At this step the theta residual is 6.0e-4 and, with three
        # parameters, the phi residual a larger 6.2e-4; theta comes first.
        point = ModelPoint(b=1.0, theta=0.7, t=5.0, phi=phi)
        with pytest.raises(NumericalFailure, match=r"for theta\b"):
            numeric_generators(rep(3), point, step=0.05)


class TestSeriesGenerators:
    def test_short_time_leading_order(self):
        point = ModelPoint(b=1.4, theta=0.9, t=0.01)
        gens = series_generators(rep(3), point)
        # d_B H = n_theta . J and d_theta H = B (d n_theta / d theta) . J
        n_theta = direction_vectors(point)[0]
        n_theta_prime = np.array([-np.sin(point.theta), 0.0, np.cos(point.theta)])
        lead_b = -point.t * j_direction(rep(3), n_theta)
        lead_theta = -point.t * point.b * j_direction(rep(3), n_theta_prime)
        # corrections enter at second order in t
        assert np.abs(gens.matrices[0] - lead_b).max() < 0.01 * np.linalg.norm(lead_b, 2)
        assert np.abs(gens.matrices[1] - lead_theta).max() < 0.01 * np.linalg.norm(lead_theta, 2)

    def test_matches_closed_qubit(self):
        point = ModelPoint(b=2.0, theta=1.0, t=3.0)
        series = series_generators(rep(2), point)
        closed = closed_generators(rep(2), point)
        for i in range(2):
            assert spectral_gap(series.matrices[i], closed.matrices[i]) < 1e-10

    def test_matches_numeric_three_param(self):
        point = ModelPoint(b=0.8, theta=1.1, t=5.0, phi=2.3)
        series = series_generators(rep(4), point)
        numeric = numeric_generators(rep(4), point)
        for i in range(3):
            assert spectral_gap(series.matrices[i], numeric.matrices[i]) < 1e-6

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("b", [0.0, 1e-12])
    def test_degenerate_and_near_degenerate_field(self, model, b):
        # At B = 0 every level of H coincides and the kernel takes its
        # w = 0 value -t; at B = 1e-12 the gaps are tiny but nonzero.
        phi = None if model == "two" else 2.3
        point = ModelPoint(b=b, theta=0.9, t=5.0, phi=phi)
        series = series_generators(rep(6), point)
        closed = closed_generators(rep(6), point)
        assert np.abs(series.matrices - closed.matrices).max() < 1e-12
        frame = closed_frame(point.b, point.theta, point.t, point.phi)
        assert np.abs(series_frame(point) - frame).max() < 1e-12


class TestRouteAgreement:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 40])
    def test_three_routes_pairwise(self, model, n):
        for point in points_for(model):
            closed = closed_generators(rep(n), point)
            series = series_generators(rep(n), point)
            numeric = numeric_generators(rep(n), point)
            for i in range(point.n_params):
                assert spectral_gap(closed.matrices[i], series.matrices[i]) < 1e-6
                assert spectral_gap(closed.matrices[i], numeric.matrices[i]) < 1e-6

    @pytest.mark.parametrize("model", MODELS)
    def test_dense_routes_at_large_dimension(self, model):
        # The oracles must hold where t ||H|| is large: about 600 at N = 400
        # at the command line's default point.  The series route sums
        # exactly, and the finite-difference step rule still resolves the
        # closed generators.
        phi = None if model == "two" else 1.0
        point = ModelPoint(b=0.6, theta=0.8, t=5.0, phi=phi)
        for n in (60, 100, 400):
            spin = build_spin_rep(n)
            closed = closed_generators(spin, point)
            series = series_generators(spin, point)
            numeric = numeric_generators(spin, point)
            for i in range(point.n_params):
                assert spectral_gap(series.matrices[i], closed.matrices[i]) <= 1e-12
                assert spectral_gap(numeric.matrices[i], closed.matrices[i]) <= 1e-4

    @pytest.mark.parametrize("model", MODELS)
    def test_field_generator_proportional_to_hamiltonian(self, model):
        for point in points_for(model):
            gens = closed_generators(rep(4), point)
            h = hamiltonian(rep(4), point)
            assert np.abs(gens.matrices[0] + point.t * h / point.b).max() < 1e-9

    @pytest.mark.parametrize("point", two_param_points())
    def test_generator_commutator_identity(self, point):
        # [G_B, G_theta] = 2j t sin(Bt/2) J_{n2}, with n_theta x n2 = n1.
        gens = closed_generators(rep(5), point)
        g_b, g_theta = gens.matrices
        _, _, n2 = direction_vectors(point)
        expected = 2j * point.t * np.sin(point.b * point.t / 2) * j_direction(rep(5), n2)
        assert np.abs(g_b @ g_theta - g_theta @ g_b - expected).max() < 1e-9


def spin_half_matrices(frame):
    """The spin-1/2 generators ``a_l . J`` of the rows of ``frame``."""
    spin = rep(2)
    return np.tensordot(frame, np.stack([spin.jx, spin.jy, spin.jz]), axes=1)


# Drawn fields for the vector routes: B = 0, +-1e-12, every decade of |B|
# from 1e-10 to 1e10 times a mantissa in [1, 10), or any B in [-10, 10];
# theta anywhere in a turn or within 1e-9 of pi/2, where the phi generator
# vanishes; phi anywhere in a turn.
FIELDS = st.one_of(
    st.sampled_from([0.0, 1e-12, -1e-12]),
    st.builds(lambda sign, k, mantissa: sign * mantissa * 10.0**k, st.sampled_from([1.0, -1.0]),
              st.integers(-10, 10), st.floats(1.0, 10.0, exclude_max=True)),
    st.floats(-10.0, 10.0),
)
ANGLES = st.floats(0.0, 2 * np.pi)
THETAS = st.one_of(ANGLES, st.floats(-1e-9, 1e-9).map(lambda offset: np.pi / 2 + offset))
# Wide fields: 0, or every decade of |B| from 1e-300 to 1e299 times a
# mantissa in [1, 10), or any B in [-10, 10].
WIDE_FIELDS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, k, mantissa: sign * mantissa * 10.0**k, st.sampled_from([1.0, -1.0]),
              st.integers(-300, 299), st.floats(1.0, 10.0, exclude_max=True)),
    st.floats(-10.0, 10.0),
)


def drawn_point(model, b, theta, phi, t=5.0):
    return ModelPoint(b=b, theta=theta, t=t, phi=None if model == "two" else phi)


class TestVectorRoutes:
    """The report's matrix-free routes against the dense spin-1/2 routes."""

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=200, deadline=None)
    @given(b=FIELDS, theta=THETAS, phi=ANGLES)
    def test_series_frame_matches_dense_series(self, model, b, theta, phi):
        # Both sum the same kernel.  An entry of G_l is O(t |d_l H|) with
        # |d_l H| <= max(1, |B|), and each route rounds it at a few eps: the
        # dense one through the eigh of H and three 2x2 products.
        eps = np.finfo(float).eps
        point = drawn_point(model, b, theta, phi)
        dense = series_generators(rep(2), point).matrices
        vector = spin_half_matrices(series_frame(point))
        assert np.abs(vector - dense).max() <= 8 * eps * point.t * max(1.0, abs(point.b))

    @staticmethod
    def assert_numeric_routes_agree(point):
        # The frame's complex step is exact to rounding: within a few eps of
        # the closed rows (B row t long, angle rows at most 2), with residuals
        # at rounding.  The dense route differences U at lambda +- h_l, so it
        # differs from the frame by its own rounding, a few eps over h_l, and
        # its truncation h_l^2 |d_l^3 U| / 3 in the row, where |d_B^3 U| is
        # (t/2)^3 and an angle's third derivative is at most 1.  In spin-1/2 a
        # central difference of U is Hermitian for any step, so the
        # Hermitization residuals differ by rounding only.
        eps = np.finfo(float).eps
        dense = numeric_generators(rep(2), point)
        frame, resids = numeric_frame(point)
        closed = closed_frame(point.b, point.theta, point.t, point.phi)
        scale = np.array([point.t, 2.0, 2.0])[: point.n_params]
        assert (np.abs(frame - closed).max(axis=-1) <= 4 * eps * scale).all()
        assert (resids <= 4 * eps).all()
        h = 1e-5 * np.maximum(1.0, np.abs(point.values()))
        third = np.array([(point.t / 2) ** 3, 1.0, 1.0])[: point.n_params]
        err = np.abs(spin_half_matrices(frame) - dense.matrices).max(axis=(-2, -1))
        assert (err <= 8 * eps / h + h**2 * third / 3).all()
        assert (np.abs(resids - dense.herm_residuals) <= 8 * eps / h).all()

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=200, deadline=None)
    @given(b=FIELDS, theta=THETAS, phi=ANGLES)
    def test_numeric_frame_matches_dense_numeric(self, model, b, theta, phi):
        # A field past 0.4 runs at t = 2 / |B|, a phase |B t| <= 2, where the
        # dense route's step rule h_l = step * max(1, |lambda_l|) keeps its
        # Hermitization check below 1e-4 at every decade of B.
        t = 5.0 if abs(b) <= 0.4 else 2 / abs(b)
        self.assert_numeric_routes_agree(drawn_point(model, b, theta, phi, t=t))

    @pytest.mark.parametrize("model", MODELS)
    def test_numeric_frame_matches_dense_numeric_at_fixed_points(self, model):
        # The fixed points run at t = 5, phases B t of 2.25, 4.5 and 5.5:
        # past the drawn phases, and past pi, where w = cos(Bt/2) < 0.
        for point in points_for(model):
            self.assert_numeric_routes_agree(point)

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=300, deadline=None)
    @given(j=st.integers(-1000, 1000), b=WIDE_FIELDS, per_time=st.booleans(), theta=THETAS,
           phi=ANGLES)
    def test_numeric_frame_exact_over_the_float_range(self, model, j, b, per_time, theta, phi):
        # The complex step has no difference to round and an exact power of
        # two for a step, so the route stays at rounding for every t = 2^j
        # and every |B| <= 1e300 where the series route's B t is finite (and
        # so the closed frame's B t / 2).  per_time draws the phase B t.
        eps = np.finfo(float).eps
        t = 2.0**j
        b = b / t if per_time else b
        assume(abs(b) <= 1e300 and math.isfinite(b * t))
        point = drawn_point(model, b, theta, phi, t=t)
        frame = closed_frame(point.b, point.theta, point.t, point.phi)
        assert _route_residuals(point, frame)["numeric_vs_closed"] <= 4 * eps
        assert (numeric_frame(point)[1] <= 4 * eps).all()

    @pytest.mark.parametrize("model", MODELS)
    def test_unstable_step_names_the_same_parameter(self, model):
        # In spin-1/2 a central difference of U is Hermitian for any step:
        # a step in B only moves the phase, and n . n(lambda + h) equals
        # n . n(lambda - h) for a step in theta or phi.  So a large step
        # leaves the dense route at rounding, and only a step of 1e-15, where
        # rounding over h outweighs the generator, trips the 1e-4 check; it
        # names B first.
        for point in points_for(model):
            assert max(numeric_generators(rep(2), point, step=0.05).herm_residuals) < 1e-13
            with pytest.raises(NumericalFailure, match=r"for B\b"):
                numeric_generators(rep(2), point, step=1e-15)


class TestGeneratorSet:
    def test_hermitian_rule_is_per_matrix(self):
        # Under a rule taken over the whole stack, the 1e-5 defect of the
        # small generator would hide below 1e-10 of its neighbour's 5e5.
        big = 1e6 * np.asarray(rep(2).jz)
        small = np.array([[0.0, 1e-5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidInput, match="not Hermitian"):
            GeneratorSet(labels=("B", "theta"), matrices=np.stack([big, small]))
        GeneratorSet(labels=("B", "theta"), matrices=np.stack([big, small + small.conj().T]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        gens = np.stack([rep(2).jz, rep(2).jx]).astype(complex)
        gens[1, 0, 0] = value
        with pytest.raises(InvalidInput, match="NaN or an infinity"):
            GeneratorSet(labels=("B", "theta"), matrices=gens)


class TestModelPoint:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidInput):
            ModelPoint(b=1.0, theta=0.0, t=0.0)

    def test_values_ordering(self):
        point = ModelPoint(b=1.0, theta=2.0, t=3.0, phi=4.0)
        assert np.allclose(point.values(), [1.0, 2.0, 4.0])

    # The point carries the model: its phi sets the parameter count and
    # labels, and every route labels its generators with them.
    @pytest.mark.parametrize("phi, labels", [(None, ("B", "theta")),
                                             (0.0, ("B", "theta", "phi"))])
    def test_phi_sets_the_model(self, phi, labels):
        point = ModelPoint(b=0.9, theta=0.7, t=5.0, phi=phi)
        assert point.labels == labels and point.n_params == len(labels)
        assert closed_frame(point.b, point.theta, point.t, point.phi).shape == (len(labels), 3)
        for route in (closed_generators, series_generators, numeric_generators):
            assert route(rep(3), point).labels == labels
