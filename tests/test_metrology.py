"""Estimation-core tests: QFIM/Uhlmann routes, SLD, FIM, bounds."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinmetro import (
    InvalidInput,
    ModelPoint,
    NumericalFailure,
    bounds,
    classical_fim,
    closed_frame,
    frame_qfim_uhlmann,
)
from spinmetro.encoding import GeneratorSet, closed_generators, direction_vectors, hamiltonian
from spinmetro.linalg import build_spin_rep, expm_i, trace_norm
from spinmetro.metrology import (
    ai_measure,
    batched_qfim_uhlmann,
    holevo_pure,
    incompat_operator,
    incompat_report,
    qfim_uhlmann,
)
from spinmetro.models import (ProbeSpec, bloch_vector, make_probe, qubit2p_closed,
                              threeparam_uhlmann_closed)

from conftest import (
    MODELS,
    ai_two_param,
    evolved_family,
    haar_state,
    points_for,
    rep,
    three_param_points,
)
from oracles import (
    born_probabilities,
    dense_spin_moments,
    qfim_from_slds,
    qfim_from_state_derivatives,
    sld_solve,
    state_from_bloch,
    submodel,
    uhlmann_from_slds,
)


def fd_density_derivatives(spin, point, probe, step=1e-6):
    """Finite-difference derivatives of the evolved density matrix."""
    family = evolved_family(spin, point, probe)
    values = point.values()
    rho = np.outer(family(values), family(values).conj())
    drhos = []
    for j in range(values.size):
        up, um = values.copy(), values.copy()
        up[j] += step
        um[j] -= step
        psi_p, psi_m = family(up), family(um)
        drhos.append(
            (np.outer(psi_p, psi_p.conj()) - np.outer(psi_m, psi_m.conj())) / (2 * step)
        )
    return rho, drhos


class TestQfimFromGenerators:
    def test_zero_generators(self):
        gens = GeneratorSet(labels=("B", "theta"), matrices=np.zeros((2, 3, 3), complex))
        q, d = qfim_uhlmann(gens, np.array([1, 0, 0], complex))
        assert np.abs(q).max() == 0.0 and np.abs(d).max() == 0.0

    def test_eigenstate_probe_zero_variance(self):
        r = rep(3)
        gens = GeneratorSet(labels=("B",), matrices=np.asarray(r.jz)[None])
        q, _ = qfim_uhlmann(gens, np.array([0, 1, 0], complex))
        assert abs(q[0, 0]) < 1e-12

    def test_qubit_matches_bloch_closed_form(self):
        point = ModelPoint(b=1.0, theta=0.3, t=5.0)
        probe = make_probe(ProbeSpec(dim=2, alpha=np.pi / 4))
        gens = closed_generators(rep(2), point)
        q, d = qfim_uhlmann(gens, probe)
        closed = qubit2p_closed(bloch_vector(probe), point)
        assert np.abs(q - closed.qfim).max() < 1e-9
        assert abs(d[1, 0] - closed.d_theta_b) < 1e-9

    def test_probe_validation(self):
        gens = GeneratorSet(labels=("B",), matrices=np.asarray(rep(3).jz)[None])
        with pytest.raises(InvalidInput):
            qfim_uhlmann(gens, np.array([1.0, 1.0, 0.0]))  # not normalized
        with pytest.raises(InvalidInput):
            qfim_uhlmann(gens, np.array([1.0, 0.0]))  # wrong dimension

    def test_symmetry_and_psd(self, rng):
        for model in ("two", "three"):
            for point in points_for(model):
                gens = closed_generators(rep(5), point)
                q, d = qfim_uhlmann(gens, haar_state(rng, 5))
                assert np.abs(q - q.T).max() < 1e-10
                assert np.abs(d + d.T).max() < 1e-10
                evals = np.linalg.eigvalsh(q)
                assert evals[0] > -1e-9 * max(evals[-1], 1.0)


class TestBatchedDenseRoute:
    # Re<G_l psi|G_m psi> is symmetric for any stack, so a check on the
    # moments could not see a generator that is not Hermitian.
    def test_rejects_non_hermitian_stack(self, rng):
        z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        with pytest.raises(InvalidInput, match="not Hermitian"):
            batched_qfim_uhlmann(z, haar_state(rng, 4))
        q, d = batched_qfim_uhlmann((z + np.swapaxes(z.conj(), -1, -2)) / 2,
                                    haar_state(rng, 4))
        assert q.shape == d.shape == (3, 3)

    # The probes are held to the one probe rule and the leading axes to the
    # broadcast rule: a wrong dimension and unbroadcastable axes escaped as
    # einsum's ValueError, and a probe of norm 5 gave Q = -9800.
    @pytest.mark.parametrize("probes, match", [
        (np.ones(3), "dimension 3, expected 2"),
        (5 * np.ones(2), "not normalized"),
        (np.array(["a", "b"]), "vector of numbers"),
        (np.array(1.0), "must be a vector"),
        (np.tile([1.0, 0.0], (3, 1)), "must broadcast together"),
    ])
    def test_rejects_probes_outside_the_probe_rule(self, probes, match):
        with pytest.raises(InvalidInput, match=match):
            batched_qfim_uhlmann(np.stack([np.stack([np.eye(2)])] * 2), probes)


class TestUhlmannFromGenerators:
    def test_commuting_generators(self, rng):
        r = rep(4)
        jz = np.asarray(r.jz)
        gens = GeneratorSet(labels=("B", "theta"), matrices=np.stack([jz, 2.0 * jz]))
        _, d = qfim_uhlmann(gens, haar_state(rng, 4))
        assert np.abs(d).max() < 1e-12

    def test_qubit_element(self, rng):
        point = ModelPoint(b=0.9, theta=1.1, t=5.0)
        r0 = rng.standard_normal(3)
        r0 /= np.linalg.norm(r0)
        probe = state_from_bloch(r0)
        gens = closed_generators(rep(2), point)
        _, d = qfim_uhlmann(gens, probe)
        n2 = direction_vectors(point)[2]
        expected = -2 * point.t * np.sin(point.b * point.t / 2) * (n2 @ r0)
        assert abs(d[1, 0] - expected) < 1e-12

    def test_three_param_closed_elements(self, rng):
        point = ModelPoint(b=0.8, theta=0.5, t=5.0, phi=1.9)
        probe = haar_state(rng, 5)
        gens = closed_generators(rep(5), point)
        _, d = qfim_uhlmann(gens, probe)
        closed = threeparam_uhlmann_closed(rep(5), probe, point)
        assert np.abs(d - closed).max() < 1e-8


class TestFrameKernel:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_matches_dense_generator_route(self, rng, model, n):
        for point in points_for(model):
            frame = closed_frame(point.b, point.theta, point.t, point.phi)
            gens = closed_generators(rep(n), point)
            for _ in range(3):
                probe = haar_state(rng, n)
                q, d = frame_qfim_uhlmann(frame, *dense_spin_moments(probe))
                q_ref, d_ref = qfim_uhlmann(gens, probe)
                scale = max(np.abs(q_ref).max(), np.abs(d_ref).max())
                assert np.abs(q - q_ref).max() <= 1e-12 * scale
                assert np.abs(d - d_ref).max() <= 1e-12 * scale

    def test_broadcast_batch_equals_single_points(self, rng):
        b = rng.uniform(0.0, 2.0, size=(4, 5))
        theta = rng.uniform(0.0, 2 * np.pi, size=(4, 1))
        frame = closed_frame(b, theta, 5.0, 0.3)
        assert frame.shape == (4, 5, 3, 3)
        moments = dense_spin_moments(haar_state(rng, 5))
        q, d = frame_qfim_uhlmann(frame, *moments)
        for i, j in [(0, 0), (2, 3), (3, 4)]:
            one = closed_frame(b[i, j], theta[i, 0], 5.0, 0.3)
            q1, d1 = frame_qfim_uhlmann(one, *moments)
            assert np.allclose(q[i, j], q1, rtol=1e-14, atol=0.0)
            assert np.allclose(d[i, j], d1, rtol=1e-14, atol=0.0)

    # A scaling table stacks the moments of all its probes against one frame.
    @pytest.mark.parametrize("model", MODELS)
    def test_stacked_moments_equal_single_calls_bitwise(self, rng, model):
        point = points_for(model)[0]
        frame = closed_frame(point.b, point.theta, point.t, point.phi)
        moments = [dense_spin_moments(haar_state(rng, n)) for n in (2, 3, 5, 8, 40, 41, 240)]
        q, d = frame_qfim_uhlmann(frame, *(np.stack(m) for m in zip(*moments)))
        assert q.shape == d.shape == (len(moments), point.n_params, point.n_params)
        for k, (mean, cov) in enumerate(moments):
            q1, d1 = frame_qfim_uhlmann(frame, mean, cov)
            assert np.array_equal(q[k], q1)
            assert np.array_equal(d[k], d1)

    def test_uhlmann_exactly_antisymmetric(self, rng):
        frame = rng.standard_normal((50, 3, 3))
        q, d = frame_qfim_uhlmann(frame, *dense_spin_moments(haar_state(rng, 9)))
        assert np.array_equal(d, -np.swapaxes(d, -1, -2))
        assert np.array_equal(q, np.swapaxes(q, -1, -2))

    @pytest.mark.parametrize("n", [4, 5, 8, 40])
    def test_balanced_probe_has_zero_uhlmann(self, rng, n):
        moments = ProbeSpec(dim=n, alpha=np.pi / 4, phi=0.9).moments()
        b = rng.uniform(0.0, 2.0, size=20)
        theta = rng.uniform(0.0, 2 * np.pi, size=20)
        for phi in (None, 1.3):
            q, d = frame_qfim_uhlmann(closed_frame(b, theta, 5.0, phi), *moments)
            assert np.abs(d).max() <= 1e-14 * np.abs(q).max()

    def test_frame_validation(self):
        moments = ProbeSpec(dim=2, alpha=0.0).moments()
        with pytest.raises(InvalidInput):
            frame_qfim_uhlmann(np.ones((2, 2)), *moments)
        with pytest.raises(InvalidInput):
            frame_qfim_uhlmann(np.ones((2, 3)), moments[0][:2], moments[1])


class TestStateDerivativeRoute:
    def test_constant_family(self):
        psi = np.array([1, 0, 0], complex)
        q, d = qfim_from_state_derivatives(lambda values: psi, np.array([0.3, 0.4]))
        assert np.abs(q).max() < 1e-10 and np.abs(d).max() < 1e-10

    def test_agrees_with_generators_two_param(self, rng):
        point = ModelPoint(b=0.9, theta=0.7, t=5.0)
        probe = haar_state(rng, 3)
        family = evolved_family(rep(3), point, probe)
        q_fd, d_fd = qfim_from_state_derivatives(family, point.values())
        q, d = qfim_uhlmann(closed_generators(rep(3), point), probe)
        scale = np.linalg.norm(q, 2)
        assert np.abs(q_fd - q).max() < 1e-5 * scale
        assert np.abs(d_fd - d).max() < 1e-5 * scale

    def test_agrees_with_generators_three_param(self):
        point = ModelPoint(b=1.1, theta=0.5, t=5.0, phi=0.9)
        probe = make_probe(ProbeSpec(dim=4, alpha=0.9, phi=1.3))
        family = evolved_family(rep(4), point, probe)
        q_fd, d_fd = qfim_from_state_derivatives(family, point.values())
        q, d = qfim_uhlmann(closed_generators(rep(4), point), probe)
        scale = np.linalg.norm(q, 2)
        assert np.abs(q_fd - q).max() < 1e-5 * scale
        assert np.abs(d_fd - d).max() < 1e-5 * scale

    def test_norm_drift_rejected(self):
        with pytest.raises(InvalidInput):
            qfim_from_state_derivatives(
                lambda values: np.array([1.0 + values[0], 0.0]), np.array([0.1])
            )


class TestSldSolve:
    def test_pure_state_reproduces_qfim(self, rng):
        point = ModelPoint(b=0.9, theta=0.7, t=5.0)
        probe = haar_state(rng, 4)
        rho, drhos = fd_density_derivatives(rep(4), point, probe)
        q, _ = qfim_uhlmann(closed_generators(rep(4), point), probe)
        for j, drho in enumerate(drhos):
            sld = sld_solve(rho, drho)
            q_jj = np.trace(rho @ sld @ sld).real
            assert abs(q_jj - q[j, j]) < 1e-7 * max(q[j, j], 1.0)

    def test_zero_derivative(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert np.abs(sld_solve(rho, np.zeros((2, 2)))).max() == 0.0

    def test_maximally_mixed_qubit(self):
        sx = np.array([[0, 1], [1, 0]], complex)
        eps = 1e-3
        sld = sld_solve(np.eye(2) / 2, eps * sx / 2)
        assert np.abs(sld - eps * sx).max() < 1e-12

    def test_lyapunov_residual_on_support(self, rng):
        point = ModelPoint(b=0.7, theta=1.2, t=5.0)
        probe = haar_state(rng, 3)
        rho, drhos = fd_density_derivatives(rep(3), point, probe)
        p, v = np.linalg.eigh(rho)
        proj = v[:, p > 1e-12] @ v[:, p > 1e-12].conj().T
        for drho in drhos:
            sld = sld_solve(rho, drho)
            resid = proj @ (2 * drho - sld @ rho - rho @ sld) @ proj
            assert np.abs(resid).max() < 1e-8

    def test_trace_validation(self):
        with pytest.raises(InvalidInput):
            sld_solve(np.eye(2), np.zeros((2, 2)))


class TestSldMatrixRoutes:
    @pytest.mark.parametrize("model", MODELS)
    def test_sld_route_equals_generator_route(self, rng, model):
        point = points_for(model)[0]
        probe = haar_state(rng, 4)
        rho, drhos = fd_density_derivatives(rep(4), point, probe)
        slds = [sld_solve(rho, drho) for drho in drhos]
        q_sld = qfim_from_slds(rho, slds)
        d_sld = uhlmann_from_slds(rho, slds)
        q, d = qfim_uhlmann(closed_generators(rep(4), point), probe)
        scale = np.linalg.norm(q, 2)
        assert np.abs(q_sld - q).max() < 1e-6 * scale
        assert np.abs(d_sld - d).max() < 1e-6 * scale


class TestBornRule:
    def test_eigenbasis_projectors(self, rng):
        h = rng.standard_normal((3, 3))
        rho = h @ h.T + np.eye(3)
        rho = (rho / np.trace(rho)).astype(complex)
        p, v = np.linalg.eigh(rho)
        povm = [np.outer(v[:, i], v[:, i].conj()) for i in range(3)]
        probs = born_probabilities(rho, povm)
        assert np.allclose(sorted(probs), sorted(p), atol=1e-12)

    def test_trivial_povm(self):
        assert np.allclose(born_probabilities(np.eye(2) / 2, [np.eye(2)]), [1.0])

    def test_plus_state_z_basis(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = np.outer(plus, plus.conj())
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert np.allclose(born_probabilities(rho, povm), [0.5, 0.5])

    def test_incomplete_povm(self):
        with pytest.raises(InvalidInput):
            born_probabilities(np.eye(2) / 2, [np.diag([1.0, 0.0])])


def random_povm(rng, dim, n_elems):
    mats = []
    for _ in range(n_elems):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(z @ z.conj().T)
    total = sum(mats)
    evals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return [inv_sqrt @ m @ inv_sqrt for m in mats]


class TestClassicalFim:
    def test_bernoulli(self):
        lam = 0.3
        f = classical_fim([lam, 1 - lam], [[1.0, -1.0]])
        assert f[0, 0] == pytest.approx(1 / (lam * (1 - lam)))

    def test_two_outcomes_two_params_singular(self, rng):
        # d = 2 parameters but only 2 outcomes: the FIM cannot be invertible.
        p = rng.uniform(0.2, 0.8)
        g1, g2 = rng.standard_normal(2)
        f = classical_fim([p, 1 - p], [[g1, -g1], [g2, -g2]])
        assert abs(np.linalg.det(f)) < 1e-12 * max(np.linalg.norm(f) ** 2, 1e-30)

    def test_quantum_bound_contains_measurement(self, rng):
        # F(POVM) <= Q as matrices, checked for a random POVM on the
        # two-parameter qubit model with finite-difference gradients.
        point = ModelPoint(b=0.9, theta=0.8, t=5.0)
        probe = haar_state(rng, 2)
        family = evolved_family(rep(2), point, probe)
        povm = random_povm(rng, 2, 3)
        step = 1e-5

        def probs(values):
            psi = family(values)
            return born_probabilities(np.outer(psi, psi.conj()), povm)

        values = point.values()
        grads = []
        for j in range(2):
            up, um = values.copy(), values.copy()
            up[j] += step
            um[j] -= step
            grads.append((probs(up) - probs(um)) / (2 * step))
        f = classical_fim(probs(values), np.array(grads))
        q, _ = qfim_uhlmann(closed_generators(rep(2), point), probe)
        assert np.linalg.eigvalsh(q - f)[0] > -1e-8

    def test_row_sum_validation(self):
        with pytest.raises(InvalidInput):
            classical_fim([0.5, 0.5], [[1.0, 1.0]])

    @staticmethod
    def stack(rng, count=6, d=3, n=5):
        probs = rng.dirichlet(np.ones(n), size=count)
        probs[2] = [0.6, 0.4 - 1e-15, 1e-15, 0.0, 0.0]  # outcomes below 1e-14
        grads = rng.standard_normal((count, d, n))
        grads -= grads.mean(axis=-1, keepdims=True)
        return probs, grads

    def test_stack_equals_row_by_row(self, rng):
        probs, grads = self.stack(rng)
        f = classical_fim(probs, grads)
        assert f.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(f[k], classical_fim(probs[k], grads[k]))
        # a skipped outcome contributes nothing, however large its gradient
        keep = probs[2] >= 1e-14
        g = grads[2][:, keep]
        assert np.allclose(f[2], (g / probs[2][keep]) @ g.T, rtol=1e-14, atol=0)

    def test_one_bad_row_in_a_stack_is_invalid(self, rng):
        probs, grads = self.stack(rng)
        bad_probs = probs.copy()
        bad_probs[4, 0] += 1e-6
        nan_probs = probs.copy()
        nan_probs[1, 3] = np.nan
        bad_grads = grads.copy()
        bad_grads[5, 1, 0] += 1e-6
        for p, g in ((bad_probs, grads), (nan_probs, grads), (probs, bad_grads),
                     (probs, grads[:, :, :-1])):
            with pytest.raises(InvalidInput):
                classical_fim(p, g)


class TestAiMeasure:
    def test_weak_compatibility(self):
        assert ai_measure(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_qubit_always_maximal(self, rng):
        point = ModelPoint(b=0.7, theta=1.9, t=5.0)
        gens = closed_generators(rep(2), point)
        for _ in range(20):
            q, d = qfim_uhlmann(gens, haar_state(rng, 2))
            r = ai_measure(q, d)
            if r is not None:
                assert abs(r - 1.0) < 1e-6

    def test_three_param_cosine_value(self):
        point = ModelPoint(b=0.9, theta=0.6, t=5.0, phi=0.4)
        probe = make_probe(ProbeSpec(dim=6, alpha=np.pi / 3))
        q, d = qfim_uhlmann(closed_generators(rep(6), point), probe)
        assert ai_measure(q, d) == pytest.approx(0.5, abs=1e-9)

    def test_singular_flag(self):
        assert ai_measure(np.diag([1.0, 0.0]), np.zeros((2, 2))) is None

    def test_rejects_uhlmann_that_is_not_real_antisymmetric(self):
        q = np.eye(2)
        for bad in (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1j], [-1j, 0.0]])):
            with pytest.raises(InvalidInput):
                ai_measure(q, bad)

    def test_rejects_matrices_that_are_not_square(self):
        with pytest.raises(InvalidInput, match="square"):
            ai_measure(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_hermitian_operator_has_the_spectrum_of_q_inverse_d(self, rng):
        for d_size in (2, 3, 4):
            a = rng.standard_normal((d_size, d_size))
            q = a @ a.T + 0.1 * np.eye(d_size)
            d = rng.standard_normal((d_size, d_size))
            d = d - d.T
            op = incompat_operator(q, d)
            assert np.array_equal(op, op.conj().T)
            direct = np.sort(np.linalg.eigvals(1j * np.linalg.solve(q, d)).real)
            assert np.allclose(np.linalg.eigvalsh(op), direct, rtol=1e-10, atol=1e-12)


class TestAiTwoParam:
    def test_zero_uhlmann(self):
        assert ai_two_param(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_route_equivalence(self, rng):
        # 100 random regular instances: determinant route == spectral route.
        count = 0
        while count < 100:
            m = rng.standard_normal((2, 2))
            q = m @ m.T + 0.1 * np.eye(2)
            a = rng.standard_normal()
            d = np.array([[0.0, a], [-a, 0.0]])
            r_det = ai_two_param(q, d)
            if r_det is None or r_det > 1.0:  # keep honest instances with R <= 1
                continue
            r_spec = ai_measure(q, d)
            assert abs(r_det - r_spec) < 1e-9
            count += 1

    def test_qubit_instance(self, rng):
        point = ModelPoint(b=1.2, theta=0.4, t=5.0)
        gens = closed_generators(rep(2), point)
        q, d = qfim_uhlmann(gens, haar_state(rng, 2))
        assert ai_two_param(q, d) == pytest.approx(1.0, abs=1e-9)

    def test_singular_flag(self):
        assert ai_two_param(np.diag([1.0, 0.0]), np.zeros((2, 2))) is None


class TestHolevoPure:
    def test_compatible_model(self):
        out = holevo_pure(np.diag([2.0, 4.0]), np.zeros((2, 2)))
        c_sld, c_h, delta = out
        assert c_sld == pytest.approx(0.75)
        assert c_h == c_sld and delta == 0.0

    def test_identity_weight_gap_formula(self, rng):
        point = ModelPoint(b=0.8, theta=0.9, t=5.0, phi=1.4)
        probe = make_probe(ProbeSpec(dim=5, alpha=0.5, phi=0.7))
        q, d = qfim_uhlmann(closed_generators(rep(5), point), probe)
        c_sld, c_h, delta = holevo_pure(q, d)
        q_inv = np.linalg.inv(q)
        assert delta == pytest.approx(trace_norm(q_inv @ d @ q_inv) / np.trace(q_inv), rel=1e-12)
        assert c_h >= c_sld - 1e-9

    def test_qubit_gap_bounded_by_incompatibility(self):
        point = ModelPoint(b=1.0, theta=0.5, t=5.0)
        probe = make_probe(ProbeSpec(dim=2, alpha=np.pi / 4))
        q, d = qfim_uhlmann(closed_generators(rep(2), point), probe)
        _, _, delta = holevo_pure(q, d)
        r = ai_measure(q, d)
        assert 0.0 <= delta <= 1.0 and delta <= r + 1e-9

    def test_singular(self):
        assert holevo_pure(np.diag([1.0, 0.0]), np.zeros((2, 2))) is None

    def test_rejects_d_that_is_not_antisymmetric(self):
        # bounds and ai_measure reject this D; a Delta of 0.3 came out here.
        with pytest.raises(InvalidInput, match="Uhlmann matrix"):
            holevo_pure(np.eye(2), np.array([[0.0, 0.3], [0.3, 0.0]]))

    def test_rejects_d_that_is_not_square(self):
        with pytest.raises(InvalidInput, match="square"):
            holevo_pure(np.eye(2), np.zeros((2, 3)))


def random_model(rng, dim, cond=None):
    """Random (Q, D): Q symmetric positive definite, D real antisymmetric."""
    if cond is None:
        m = rng.standard_normal((dim, dim))
        q = m @ m.T + 0.1 * np.eye(dim)
    else:
        v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = (v * np.geomspace(1.0, 1.0 / cond, dim)) @ v.T
    d = rng.standard_normal((dim, dim))
    return q, d - d.T


class TestBounds:
    """The one bounds path against the scalar references ai_measure and holevo_pure."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("cond", [None, 1e6, 1e9])
    def test_matches_scalar_references(self, rng, dim, cond):
        eps = np.finfo(float).eps
        for _ in range(20):
            q, d = random_model(rng, dim, cond)
            ev = np.linalg.eigvalsh(q)
            tol = 1e3 * eps * ev[-1] / ev[0]
            singular, r_ai, c_sld, c_h, delta, _ = bounds(q, d)
            assert not singular and np.shape(r_ai) == ()
            ref = (ai_measure(q, d), *holevo_pure(q, d))
            for got, want in zip((r_ai, c_sld, c_h, delta), ref):
                assert abs(got - want) <= tol * max(abs(want), 1.0)

    # det_q is the product of the eigenvalues; each carries an error of a few
    # eps ||Q||_2, so the product is off by a few dim eps ||Q||_2^dim at most,
    # as is the LU determinant it replaces.
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("cond", [None, 1e6, 1e9])
    def test_det_q_matches_lu_determinant(self, rng, dim, cond):
        for _ in range(20):
            q, d = random_model(rng, dim, cond)
            det_q = bounds(q, d)[-1]
            scale = np.linalg.norm(q, 2) ** dim
            assert abs(det_q - np.linalg.det(q)) <= 4 * dim * np.finfo(float).eps * scale

    def test_batch_equals_single_calls(self, rng):
        pairs = [random_model(rng, 3) for _ in range(6)]
        pairs[2] = (np.diag([1.0, 1.0, 1e-14]), pairs[2][1])
        q = np.stack([p[0] for p in pairs]).reshape(2, 3, 3, 3)
        d = np.stack([p[1] for p in pairs]).reshape(2, 3, 3, 3)
        batch = bounds(q, d)
        assert all(np.shape(x) == (2, 3) for x in batch)
        for k, (qk, dk) in enumerate(pairs):
            single = bounds(qk, dk)
            for got, want in zip(batch, single):
                np.testing.assert_allclose(np.ravel(got)[k], want, rtol=1e-12)

    # Each matrix of a stack takes the steps of a single call, so a scan cell
    # and a metrics report at its point agree bit for bit.
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_gives_the_bits_of_single_calls(self, rng, dim):
        pairs = [random_model(rng, dim, cond) for cond in (None, None, 1e3, 1e6, 1e9)]
        pairs.insert(2, (np.diag([1.0] * (dim - 1) + [1e-14]), pairs[0][1]))
        q, d = (np.stack(x) for x in zip(*pairs))
        batch = bounds(q, d)
        assert batch[0].tolist() == [k == 2 for k in range(len(pairs))]
        for k, (qk, dk) in enumerate(pairs):
            for got, want in zip(batch, bounds(qk, dk)):
                assert got[k].tobytes() == want.tobytes()

    def test_singular_cells_carry_nan(self):
        q = np.stack([np.diag([1.0, 1e-14]), np.diag([2.0, 4.0])])
        singular, *values, det_q = bounds(q, np.zeros_like(q))
        assert singular.tolist() == [True, False]
        assert all(np.isnan(v[0]) and np.isfinite(v[1]) for v in values)
        assert [float(v[1]) for v in values] == [0.0, 0.75, 0.75, 0.0]
        # det Q is reported on every cell, singular ones included
        assert det_q.tolist() == [1e-14, 8.0]

    def test_qubit_is_maximally_incompatible(self, rng):
        point = ModelPoint(b=1.2, theta=0.4, t=5.0)
        gens = closed_generators(rep(2), point)
        q, d = qfim_uhlmann(gens, haar_state(rng, 2))
        _, r_ai, _, _, delta, _ = bounds(q, d)
        assert r_ai == pytest.approx(ai_two_param(q, d), abs=1e-9)
        assert r_ai == pytest.approx(1.0, abs=1e-9) and 0.0 <= delta <= r_ai

    # A symmetric D used to pass: R antisymmetrized it and came out 0, while
    # the gap took it as given and came out 0.3, breaking 0 <= Delta <= R.
    @pytest.mark.parametrize("q, d, name", [
        (np.eye(2), [[0.0, 0.3], [0.3, 0.0]], "Uhlmann matrix"),
        ([[2.0, 0.5], [0.0, 1.0]], np.zeros((2, 2)), "QFIM"),
        (np.stack([np.eye(2), np.eye(2)]), [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1e-5], [0.0, 0.0]]],
         "Uhlmann matrix"),
    ])
    def test_rejects_asymmetric_q_and_d(self, q, d, name):
        with pytest.raises(InvalidInput, match=name):
            bounds(q, d)

    def test_rejects_bad_shapes_and_tolerance(self):
        with pytest.raises(InvalidInput):
            bounds(np.eye(2), np.zeros((3, 3)))
        with pytest.raises(InvalidInput):
            bounds(np.eye(2), np.zeros((2, 2)), rel_tol=0.0)

    # NaN bound values mean "singular"; an overflowed Q or D must not come
    # out looking like one.
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_matrices_are_a_numerical_failure(self, bad, which):
        q_and_d = [np.stack([np.eye(2)] * 3), np.zeros((3, 2, 2))]
        q_and_d[which][1, 0, 1] = bad
        with pytest.raises(NumericalFailure):
            bounds(*q_and_d)

    # Each matrix is checked once, by the matrix rule, whose non-finite
    # verdict becomes a numerical failure: a NaN or an infinity in either
    # matrix outranks any asymmetry, and D's asymmetry outranks Q's,
    # whichever matrix the rule met first.  The scalar references take
    # (Q, D) by the same rule, so each pair raises the same error in all three.
    @pytest.mark.parametrize("q, d, error, match", [
        ([[1.0, np.nan], [np.nan, 1.0]], [[0.0, 0.3], [0.3, 0.0]], NumericalFailure, "not finite"),
        ([[2.0, 0.5], [0.0, 1.0]], [[0.0, np.inf], [-np.inf, 0.0]], NumericalFailure,
         "not finite"),
        ([[2.0, 0.5], [0.0, 1.0]], [[0.0, 0.3], [0.3, 0.0]], InvalidInput, "Uhlmann matrix"),
        ([[np.inf, 0.0], [0.0, 1.0]], np.zeros((2, 2)), NumericalFailure, "not finite"),
    ])
    def test_input_faults_keep_their_order(self, q, d, error, match):
        for fn in (bounds, ai_measure, holevo_pure):
            with pytest.raises(error, match=match):
                fn(q, d)

    # A finite but extreme pair whose regular Q overflows a bound: both
    # raise the failure themselves, under numpy's default error state and
    # with RuntimeWarnings as errors, where they used to warn and return an
    # infinite or NaN bound (bounds) or call it invalid input (holevo_pure).
    # ai_measure's R = 1e160 is finite, and right for this unphysical pair.
    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-310])
    def test_overflowing_bounds_are_a_numerical_failure(self, scale):
        q, d = np.diag([scale, scale]), np.array([[0.0, 1.0], [-1.0, 0.0]])
        for fn in (bounds, holevo_pure):
            with pytest.raises(NumericalFailure):
                fn(q, d)
        stack = np.stack([np.eye(2), q]), np.stack([0.5 * d, d])
        with pytest.raises(NumericalFailure):
            bounds(*stack)

    # det Q is the product of the eigenvalues, and may overflow where no
    # bound does, on a singular Q as on a regular one: it used to warn and
    # come back infinite.  A stack fails as a whole.
    @pytest.mark.parametrize("q", [np.diag([1e-10, 1e160, 1e160]), np.diag([1e160, 1e160])],
                             ids=["singular", "regular"])
    def test_overflowing_det_is_a_numerical_failure(self, q):
        d = np.zeros_like(q)
        with pytest.raises(NumericalFailure, match="det Q"):
            bounds(q, d)
        with pytest.raises(NumericalFailure, match="det Q"):
            bounds(np.stack([np.eye(len(q)), q]), np.stack([d, d]))

    def test_perturbed_eigenvectors_fail_the_inverse_check(self, rng, monkeypatch):
        q, d = random_model(rng, 3, cond=1e4)
        eigh = np.linalg.eigh

        def noisy_eigh(a):
            evals, vecs = eigh(a)
            return evals, vecs * (1 + 1e-6 * rng.standard_normal(vecs.shape))

        monkeypatch.setattr(np.linalg, "eigh", noisy_eigh)
        with pytest.raises(NumericalFailure):
            bounds(q, d)


# Random points of the field models, and a seed for a Haar-random probe.
POINTS = dict(seed=st.integers(0, 2**32 - 1), b=st.floats(0.05, 3.0),
              theta=st.floats(0.0, 2 * np.pi), t=st.floats(0.5, 10.0))


# Random probes for the gap forms: Haar-random, or an extreme state with a
# log-uniform mixing angle down to 1e-6 (near-coherent, so D's axial vector
# lies along Q's soft direction).
PROBES = dict(n=st.integers(2, 1000), haar=st.booleans(), seed=st.integers(0, 2**32 - 1),
              log_alpha=st.floats(-6.0, 0.0))
POINT = dict(b=st.floats(0.05, 3.0), theta=st.floats(0.0, 2 * np.pi), t=st.floats(0.5, 10.0))


def drawn_probe(n, haar, seed, log_alpha):
    if haar:
        return haar_state(np.random.default_rng(seed), n)
    return make_probe(ProbeSpec(dim=n, alpha=10.0**log_alpha))


def frame_bounds(psi, b, theta, t, phi=None):
    """Q, D, cond(Q) and ``bounds`` on the production frame path."""
    q, d = frame_qfim_uhlmann(closed_frame(b, theta, t, phi), *dense_spin_moments(psi))
    ev = np.linalg.eigvalsh(q)
    return q, d, ev[-1] / ev[0] if ev[0] > 0 else np.inf, bounds(q, d)


class TestClosedMomentForms:
    """``bounds`` against closed forms in the probe's spin moments, held to
    ``1e3 eps cond(Q)``.  Q and D depend on the probe only through ``<J>``
    and the covariance ``Cov``; these forms stay test oracles."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 400), **POINTS)
    def test_two_param_gap_over_incompatibility(self, n, seed, b, theta, t):
        # Delta / R = 2 sqrt(det Q) / tr Q, the geometric over the arithmetic
        # mean of Q's eigenvalues.
        psi = haar_state(np.random.default_rng(seed), n)
        q, _, cond, (singular, r_ai, _, _, delta, _) = frame_bounds(psi, b, theta, t)
        assume(not singular)
        want = r_ai * 2 * np.sqrt(np.linalg.det(q)) / np.trace(q)
        assert abs(delta - want) <= 1e3 * np.finfo(float).eps * cond * want

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 400), **POINTS)
    @example(n=89, seed=17579, b=1.26953125, theta=2.486328125, t=2.484375)
    def test_two_param_incompatibility(self, n, seed, b, theta, t):
        # R = 1/2 |<J> . m| / sqrt(m^T adj(Cov) m), m the unit normal of
        # a_B x a_theta: D_12 = 2 <J> . (a_B x a_theta), and by Cauchy-Binet
        # det Q = 16 (a_B x a_theta)^T adj(Cov) (a_B x a_theta).
        # R is proportional to the dot product <J> . m, which the kernel (as
        # D_12) and this form both sum in floats.  A sum of terms x_k has a
        # relative error up to a few eps sum |x_k| / |sum x_k| (Higham 2002,
        # sec. 3.1), so where the terms cancel both sides carry
        # eps kappa_D, kappa_D = sum |<J>_k m_k| / |<J> . m|, whatever
        # cond(Q) is; the example pins a draw with kappa_D = 4.7e3.
        psi = haar_state(np.random.default_rng(seed), n)
        _, _, cond, (singular, r_ai, *_) = frame_bounds(psi, b, theta, t)
        assume(not singular)
        spin = build_spin_rep(n)
        v = np.stack([spin.jx, spin.jy, spin.jz]) @ psi
        mean = (v @ psi.conj()).real
        u = v - mean[:, None] * psi
        cov = (u.conj() @ u.T).real
        adj = np.cross(cov[[1, 2, 0]], cov[[2, 0, 1]])
        m = np.cross(*closed_frame(b, theta, t))
        m /= np.linalg.norm(m)
        want = 0.5 * abs(mean @ m) / np.sqrt(m @ adj @ m)
        kappa_d = np.abs(mean * m).sum() / abs(mean @ m)
        assert abs(r_ai - want) <= 1e3 * np.finfo(float).eps * (cond + kappa_d) * want

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 400), phi=st.floats(0.0, 2 * np.pi), **POINTS)
    def test_three_param_incompatibility(self, n, seed, b, theta, t, phi):
        # R = 1/2 sqrt(<J>^T Cov <J> / det Cov), whatever the point; the
        # moments come from the centered vectors (J_k - <J_k>) psi.
        psi = haar_state(np.random.default_rng(seed), n)
        _, _, cond, (singular, r_ai, *_) = frame_bounds(psi, b, theta, t, phi)
        assume(not singular)
        spin = build_spin_rep(n)
        v = np.stack([spin.jx, spin.jy, spin.jz]) @ psi
        mean = (v @ psi.conj()).real
        u = v - mean[:, None] * psi
        cov = (u.conj() @ u.T).real
        want = 0.5 * np.sqrt(mean @ cov @ mean / np.linalg.det(cov))
        assert abs(r_ai - want) <= 1e3 * np.finfo(float).eps * cond * want

    # The Holevo gap ||Q^-1 D Q^-1||_1 in Q and the kernel's own D, with no
    # product of inverses: for d = 2, Q^-1 D Q^-1 = D / det Q; for d = 3,
    # with D = [v]x (v = (D_12, D_20, D_01)), M^T [v]x M = [det(M) M^-1 v]x
    # gives Q^-1 D Q^-1 = [Q v / det Q]x, whose singular values are |Q v| / det Q
    # twice.  The gap is Delta C_SLD.
    @settings(max_examples=200, deadline=None)
    @given(**PROBES, **POINT)
    def test_two_param_gap(self, n, haar, seed, log_alpha, b, theta, t):
        psi = drawn_probe(n, haar, seed, log_alpha)
        q, d, cond, (singular, _, c_sld, _, delta, _) = frame_bounds(psi, b, theta, t)
        assume(not singular)
        want = 2 * abs(d[0, 1]) / np.linalg.det(q)
        assert abs(delta * c_sld - want) <= 1e3 * np.finfo(float).eps * cond * want

    @settings(max_examples=200, deadline=None)
    @given(**PROBES, **POINT, phi=st.floats(0.0, 2 * np.pi))
    def test_three_param_gap(self, n, haar, seed, log_alpha, b, theta, t, phi):
        psi = drawn_probe(n, haar, seed, log_alpha)
        q, d, cond, (singular, _, c_sld, _, delta, _) = frame_bounds(psi, b, theta, t, phi)
        assume(not singular)
        v = np.array([d[1, 2], d[2, 0], d[0, 1]])
        want = 2 * np.linalg.norm(q @ v) / np.linalg.det(q)
        assert abs(delta * c_sld - want) <= 1e3 * np.finfo(float).eps * cond * want


def exact_moment_bounds(frame, n, alpha):
    """``(r_ai, c_sld, c_h, delta, det_q)`` of the extreme-state probe to 50
    digits, from the float ``frame`` (d, 3) and the probe's exact moments
    ``Cov = diag(J/2, J/2, J^2 sin^2 2 alpha)`` and ``<J> = (0, 0, J cos 2 alpha)``,
    ``J = (N - 1) / 2`` (exact from N = 4 on).  The forms are those of
    :class:`TestClosedMomentForms`: for d = 2, ``R = |D_01| / sqrt(det Q)``
    and gap ``2 |D_01| / det Q``; for d = 3, with ``v`` the axial vector of
    D, ``R = sqrt(v^T Q v / det Q)`` and gap ``2 |Q v| / det Q``."""
    with mpmath.workdps(50):
        j = mpmath.mpf(n - 1) / 2
        two_alpha = 2 * mpmath.mpf(alpha)
        a = mpmath.matrix(frame.tolist())
        q = 4 * a * mpmath.diag([j / 2, j / 2, (j * mpmath.sin(two_alpha)) ** 2]) * a.T
        # D_lm = 2 <J> . (a_l x a_m), with <J> along z
        mean_z = j * mpmath.cos(two_alpha)
        rows = [a[l, :] for l in range(a.rows)]
        d = mpmath.matrix([[2 * mean_z * (x[0] * y[1] - x[1] * y[0]) for y in rows] for x in rows])
        det_q = mpmath.det(q)
        q_inv = q**-1
        c_sld = sum(q_inv[i, i] for i in range(q.rows))
        if q.rows == 2:
            r_ai, gap = abs(d[0, 1]) / mpmath.sqrt(det_q), 2 * abs(d[0, 1]) / det_q
        else:
            v = mpmath.matrix([d[1, 2], d[2, 0], d[0, 1]])
            r_ai = mpmath.sqrt((v.T * q * v)[0] / det_q)
            gap = 2 * mpmath.norm(q * v) / det_q
        return tuple(float(x) for x in (r_ai, c_sld, c_sld + gap, gap / c_sld, det_q))


class TestExactMomentReference:
    """The production path at near-coherent extreme-state probes, against
    :func:`exact_moment_bounds`, to ``1e3 eps cond(Q)``.  Here ``<J>`` is much
    larger than the spread along it, and the soft direction of Q carries D:
    the points where ``<J J> - <J><J>`` and an explicit ``Q^-1 D Q^-1`` used
    to miss that bound (Delta off by 4.6e-2 at N = 10^3; C_SLD and Delta by
    5e-5 at N = 10^5 with three parameters, by 3e-11 with two)."""

    @pytest.mark.parametrize("phi, n, alpha", [
        pytest.param(0.4, 10**3, 1e-6, id="ModelKind.THREE_PARAM-1000-1e-06"),
        pytest.param(0.4, 10**5, 1e-6, id="ModelKind.THREE_PARAM-100000-1e-06"),
        pytest.param(None, 10**5, 1e-4, id="ModelKind.TWO_PARAM-100000-0.0001"),
    ])
    def test_bounds_match_exact_moments(self, phi, n, alpha):
        frame = closed_frame(0.9, 0.6, 5.0, phi)
        q, d = frame_qfim_uhlmann(frame, *ProbeSpec(dim=n, alpha=alpha).moments())
        singular, *got = bounds(q, d)
        assert not singular
        ev = np.linalg.eigvalsh(q)
        tol = 1e3 * np.finfo(float).eps * ev[-1] / ev[0]
        want = exact_moment_bounds(frame, n, alpha)
        for name, g, w in zip(("R", "C_SLD", "C_H", "Delta", "det_q"), got, want):
            assert abs(g - w) <= tol * abs(w), name


class TestSubmodel:
    def test_blocks(self):
        q = np.arange(9.0).reshape(3, 3)
        q = q + q.T
        d = np.array([[0, 1, 2], [-1, 0, 3], [-2, -3, 0.0]])
        qs, ds = submodel(q, d, [0, 1])
        assert qs.shape == (2, 2) and np.allclose(ds, [[0, 1], [-1, 0]])

    def test_monotonicity_on_sampled_instances(self, rng):
        for point in three_param_points():
            for n in (4, 5):
                probe = haar_state(rng, n)
                q, d = qfim_uhlmann(closed_generators(rep(n), point), probe)
                r_full = ai_measure(q, d)
                if r_full is None:
                    continue
                for subset in ([0, 1], [0, 2], [1, 2]):
                    r_sub = ai_measure(*submodel(q, d, subset))
                    assert r_sub is not None and r_sub <= r_full + 1e-9

    def test_single_parameter_has_no_incompatibility(self):
        q = np.diag([2.0, 3.0, 4.0])
        d = np.array([[0, 1, 2], [-1, 0, 3], [-2, -3, 0.0]])
        qs, ds = submodel(q, d, [1])
        assert ds.shape == (1, 1) and ds[0, 0] == 0.0
        assert ai_measure(qs, ds) == 0.0

    def test_rejects_empty_and_full(self):
        q, d = np.eye(3), np.zeros((3, 3))
        with pytest.raises(InvalidInput):
            submodel(q, d, [])
        with pytest.raises(InvalidInput):
            submodel(q, d, [0, 1, 2])


class TestIncompatReport:
    def test_invariants_on_sampled_instances(self, rng):
        for model in ("two", "three"):
            for point in points_for(model):
                for n in (2, 4, 6):
                    gens = closed_generators(rep(n), point)
                    report = incompat_report(gens, haar_state(rng, n))
                    assert report["labels"] == list(point.labels)
                    if report["singular"]:
                        assert report["r_ai"] is None and report["c_h"] is None
                        continue
                    assert -1e-12 <= report["delta"] <= report["r_ai"] + 1e-9
                    assert report["r_ai"] <= 1.0 + 1e-9
                    assert report["c_h"] >= report["c_sld"] - 1e-9
                    assert report["det_q"] == pytest.approx(np.linalg.det(report["Q"]))
