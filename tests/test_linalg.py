"""Spin construction and Hermitian kernel tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinmetro import (
    InvalidInput,
    NumericalFailure,
    ModelPoint,
    scaling_table,
    sym_inverse,
)
from spinmetro.encoding import closed_generators
from spinmetro.linalg import (_slot_rule, _window_moments, antisym_tridiagonal, build_spin_rep,
                              check_inverse, check_probe, eigh_inverse, expm_i, j_direction,
                              require_symmetric, singular_mask, spectral_absmax, trace_norm)
from spinmetro.metrology import ai_measure, incompat_operator, qfim_uhlmann
from spinmetro.models import ProbeSpec, make_probe

from conftest import haar_state, random_hermitian, rep
from oracles import dense_spin_moments, state_from_bloch

EPS = np.finfo(float).eps


class TestBuildSpinRep:
    def test_qubit_matrices(self):
        r = rep(2)
        assert np.allclose(r.jz, np.diag([0.5, -0.5]))
        assert np.allclose(r.jx, np.array([[0, 0.5], [0.5, 0]]))

    def test_casimir_n4(self):
        r = rep(4)
        total = r.jx @ r.jx + r.jy @ r.jy + r.jz @ r.jz
        assert np.allclose(total, (15 / 4) * np.eye(4), atol=1e-10)

    def test_commutator_n3(self):
        r = rep(3)
        assert np.abs(r.jx @ r.jy - r.jy @ r.jx - 1j * r.jz).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
    def test_invariants(self, n):
        r = rep(n)
        s = (n - 1) / 2
        pairs = [(r.jx, r.jy, r.jz), (r.jy, r.jz, r.jx), (r.jz, r.jx, r.jy)]
        for a, b, c in pairs:
            assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12
        total = r.jx @ r.jx + r.jy @ r.jy + r.jz @ r.jz
        assert np.abs(total - s * (s + 1) * np.eye(n)).max() < 1e-10
        for j in (r.jx, r.jy, r.jz):
            assert np.abs(j - j.conj().T).max() < 1e-14

    # 3.0 was taken as 3; a float, a string or a bool is not a dimension.
    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, 3.0, "3", True])
    def test_invalid_dimension(self, bad):
        with pytest.raises(InvalidInput):
            build_spin_rep(bad)

    def test_numpy_dimension_is_stored_as_int(self):
        r = build_spin_rep(np.int64(3))
        assert type(r.N) is int and r.jz.shape == (3, 3)

    def test_matrices_frozen(self):
        r = rep(3)
        with pytest.raises(ValueError):
            r.jx[0, 0] = 1.0


def window_moments(psi):
    """:func:`~spinmetro.linalg._window_moments` of ``psi`` as one window."""
    m, ladder_sq = _slot_rule((psi.size - 1) / 2, np.arange(psi.size))
    return _window_moments(psi, m, np.sqrt(ladder_sq))


class TestSpinMoments:
    # The dense formula of tests/oracles.py, which the tests take a state's
    # moments from, against the expectations of the spin matrices.
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 40])
    def test_matches_dense_expectations(self, rng, n):
        r = rep(n)
        jvec = [r.jx, r.jy, r.jz]
        for _ in range(3):
            psi = haar_state(rng, n)
            mean, cov = dense_spin_moments(psi)
            dense_mean = np.array([(psi.conj() @ jk @ psi).real for jk in jvec])
            dense_second = np.array([[psi.conj() @ jk @ jm @ psi for jm in jvec] for jk in jvec])
            dense_cov = dense_second.real - np.outer(dense_mean, dense_mean)
            scale = (n - 1) ** 2 / 4
            assert np.abs(mean - dense_mean).max() <= 1e-13 * scale
            assert np.abs(cov - dense_cov).max() <= 1e-13 * scale
            assert np.array_equal(cov, cov.T)

    def test_casimir_and_commutator(self, rng):
        # Tr Cov = s(s+1) - |<J>|^2, and Cov is positive semidefinite with
        # Cov_xx Cov_yy >= <J_z>^2 / 4 (Robertson, from [Jx, Jy] = 1j Jz)
        mean, cov = dense_spin_moments(haar_state(rng, 6))
        assert np.trace(cov) == pytest.approx(2.5 * 3.5 - mean @ mean, rel=1e-13)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-13
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 >= mean[2] ** 2 / 4 - 1e-13

    # The covariance comes from the centered vectors, so a near-coherent
    # probe keeps its variance where <J J> - <J><J> would lose it to rounding.
    @pytest.mark.parametrize("n, alpha", [(10**3, 1e-6), (10**5, 1e-6), (10**5, 1e-4)])
    def test_extreme_state_covariance(self, n, alpha):
        j = (n - 1) / 2
        mean, cov = ProbeSpec(dim=n, alpha=alpha).moments()
        want = np.diag([j / 2, j / 2, (j * np.sin(2 * alpha)) ** 2])
        assert np.abs(mean - [0.0, 0.0, j * np.cos(2 * alpha)]).max() <= 4 * EPS * j
        assert np.abs(cov - want).max() <= 8 * EPS * j
        assert abs(cov[2, 2] - want[2, 2]) <= 8 * EPS * want[2, 2]

    # The moments kernel holds the unit-norm rule of a probe, since the
    # frame kernel takes moments, not states: here on one window of a
    # spin-2 state.
    @pytest.mark.parametrize("scale", [0.0, 1 - 1e-9, 1 + 1e-9, 2.0, np.nan])
    def test_rejects_unnormalized_states(self, rng, scale):
        with pytest.raises(InvalidInput, match="not normalized"):
            window_moments(scale * haar_state(rng, 5))

    def test_accepts_rounding_off_unit_norm(self, rng):
        window_moments((1 + 1e-12) * haar_state(rng, 5))

    # On one window the kernel runs the dense formula's operations in its
    # order, so a state with no zero amplitude has its moments bit for bit.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 40, 241, 1000, 10**5])
    def test_dense_states_match_the_dense_formula_bit_for_bit(self, rng, n):
        for _ in range(3):
            psi = haar_state(rng, n)
            mean, cov = window_moments(psi)
            want_mean, want_cov = dense_spin_moments(psi)
            assert mean.tobytes() == want_mean.tobytes()
            assert cov.tobytes() == want_cov.tobytes()

    # Zero amplitudes inside a window, as in the slots of extreme_moments,
    # and a support at the ends of the basis.
    @pytest.mark.parametrize("support", [(0,), (4,), (9,), (0, 9), (0, 3), (0, 2), (0, 1),
                                         (2, 5, 6), (1, 4, 8), (0, 1, 2, 7, 9)])
    def test_sparse_states_match_the_dense_formula(self, rng, support):
        psi = np.zeros(10, dtype=complex)
        psi[list(support)] = haar_state(rng, len(support))
        mean, cov = window_moments(psi)
        want_mean, want_cov = dense_spin_moments(psi)
        assert np.abs(mean - want_mean).max() <= 4 * EPS * 4.5
        assert np.abs(cov - want_cov).max() <= 8 * EPS * 4.5**2
        assert np.array_equal(cov, cov.T)

    # The one rule for a state, linalg.check_probe: a vector of numbers, of
    # its dimension where one is given.
    @pytest.mark.parametrize("bad", [np.array([1.0]), np.eye(2)])
    def test_rejects_non_vectors(self, bad):
        with pytest.raises(InvalidInput):
            check_probe(bad, 2)

    # A string, None, a bool or an object is not a state: each is invalid
    # input, where numpy raised ValueError or TypeError or took a string.
    @pytest.mark.parametrize("bad", ["ab", [None], ["0.3", "0.9"], [True, False],
                                     [[1.0], [0.0, 1.0]], np.array([1, 0], dtype=object), 1.0])
    def test_rejects_what_is_not_a_vector_of_numbers(self, bad):
        with pytest.raises(InvalidInput):
            check_probe(bad)


class TestJDirection:
    def test_z_axis_is_jz(self):
        r = rep(4)
        assert np.array_equal(j_direction(r, (0, 0, 1)), np.asarray(r.jz))

    def test_qubit_square_quarter_identity(self, rng):
        r = rep(2)
        for _ in range(10):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            jn = j_direction(r, n)
            assert np.allclose(jn @ jn, np.eye(2) / 4, atol=1e-12)

    def test_algebra_closure_n4(self):
        r = rep(4)
        jx = j_direction(r, (1, 0, 0))
        jy = j_direction(r, (0, 1, 0))
        assert np.allclose(jx @ jy - jy @ jx, 1j * j_direction(r, (0, 0, 1)), atol=1e-12)

    def test_stack_equals_separate_calls(self, rng):
        r = rep(4)
        n = rng.standard_normal((2, 3, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        stacked = j_direction(r, n)
        assert stacked.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stacked[idx], j_direction(r, n[idx]))

    def test_stack_with_one_bad_direction(self):
        with pytest.raises(InvalidInput):
            j_direction(rep(2), [(1, 0, 0), (0, 1, 0), (0, 1, 1)])

    def test_bad_vector(self):
        r = rep(2)
        with pytest.raises(InvalidInput):
            j_direction(r, (1, 0, 0, 0))
        with pytest.raises(InvalidInput):
            j_direction(r, (1, 1, 0))


class TestExpmI:
    def test_zero_angle(self):
        assert np.allclose(expm_i(rep(3).jz, 0.0), np.eye(3))

    def test_half_integer_period(self):
        jz = rep(2).jz
        assert np.allclose(expm_i(jz, 4 * np.pi), np.eye(2), atol=1e-12)
        assert np.allclose(expm_i(jz, 2 * np.pi), -np.eye(2), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_unitarity(self, seed, n):
        a = random_hermitian(np.random.default_rng(seed), n, scale=3.0)
        u = expm_i(a, 1.7)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
    )
    def test_additivity(self, seed, c1, c2):
        a = random_hermitian(np.random.default_rng(seed), 4)
        lhs = expm_i(a, c1) @ expm_i(a, c2)
        assert np.abs(lhs - expm_i(a, c1 + c2)).max() < 1e-9

    def test_diagonal_generator(self):
        u = expm_i(np.diag([1.0, 2.0, 3.0]), 0.7)
        assert np.allclose(u, np.diag(np.exp(-0.7j * np.array([1.0, 2.0, 3.0]))), atol=1e-14)

    def test_jz_phases(self):
        u = expm_i(rep(5).jz, 0.3)
        assert np.allclose(np.diag(u), np.exp(-0.3j * np.array([2, 1, 0, -1, -2])), atol=1e-14)
        assert np.allclose(u - np.diag(np.diag(u)), 0.0, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_matches_pade_exponential(self, seed, n):
        # Independent route: scipy's scaling-and-squaring Pade expm.
        a = random_hermitian(np.random.default_rng(seed), n)
        assert np.abs(expm_i(a, 1.3) - expm(-1.3j * a)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            expm_i(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(InvalidInput, match="NaN or an infinity"):
            expm_i(np.diag([value, 1.0]), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_stack_equals_separate_calls(self, rng, n):
        a = np.stack([random_hermitian(rng, n, scale) for scale in (0.0, 0.3, 1.0, 7.0, 1e3)])
        u = expm_i(a, 1.7)
        assert u.shape == a.shape
        for k in range(len(a)):
            assert np.array_equal(u[k], expm_i(a[k], 1.7))
        assert np.array_equal(expm_i(a.reshape(5, 1, n, n), 1.7), u.reshape(5, 1, n, n))


# The one matrix rule holds a real stack as (anti)symmetric and a complex
# one as (anti-)Hermitian: each case runs on both, and its message names
# the kind.
KINDS = {float: "symmetric", complex: "Hermitian"}


def random_self_adjoint(rng, dtype, n, scale=1.0):
    a = random_hermitian(rng, n, scale)
    return a if dtype is complex else a.real


SHAPES = [(3,), (2, 3), (4, 2, 3), (0, 0), (3, 0, 0)]
VALUES = [np.nan, np.inf, -np.inf]
WHERE = [(0, 0), (0, 1)]


def rejects_non_square(dtype, shape, sign):
    with pytest.raises(InvalidInput, match="square"):
        require_symmetric(np.zeros(shape, dtype), sign=sign)


# A NaN residual compares False against the tolerance, and an exactly
# symmetric matrix with an infinity passes the equality shortcut: on the
# diagonal, and off it.
def rejects_non_finite(dtype, value, where, sign):
    a = np.zeros((2, 2), dtype)
    a[where], a[where[::-1]] = value, sign * value
    with pytest.raises(InvalidInput, match="NaN or an infinity"):
        require_symmetric(a, sign=sign)
    with pytest.raises(InvalidInput, match="NaN or an infinity"):
        require_symmetric(np.stack([np.zeros((2, 2)), a]), sign=sign)


class TestRequireSymmetric:
    def test_stack_passes_through(self, rng):
        for dtype in KINDS:
            a = np.stack([random_self_adjoint(rng, dtype, 3) for _ in range(4)])
            assert require_symmetric(a) is a

    @pytest.mark.parametrize("bad", [0, 2])
    def test_rejects_stack_with_one_bad_matrix(self, rng, bad):
        for dtype, kind in KINDS.items():
            a = np.stack([random_self_adjoint(rng, dtype, 3) for _ in range(3)])
            a[bad, 0, 1] += 1e-6
            with pytest.raises(InvalidInput, match=f"not {kind}"):
                require_symmetric(a)
            with pytest.raises(InvalidInput):
                expm_i(a, 1.0)

    def test_tolerance_is_per_matrix(self, rng):
        # A residual of 1e-9 is within tolerance of a matrix of norm 1e6 but
        # not of one of norm ~1, which must fail in a stack with the large one.
        for dtype in KINDS:
            big = random_self_adjoint(rng, dtype, 3, scale=1e6)
            small = random_self_adjoint(rng, dtype, 3)
            big[0, 1] += 1e-9
            small[0, 1] += 1e-9
            require_symmetric(big)
            with pytest.raises(InvalidInput):
                require_symmetric(np.stack([big, small]))

    def test_antisymmetric(self, rng):
        for dtype, kind in KINDS.items():
            h = random_self_adjoint(rng, dtype, 3)
            a = 1j * h if dtype is complex else np.triu(h, 1) - np.triu(h, 1).T
            assert require_symmetric(a, sign=-1) is a
            with pytest.raises(InvalidInput, match=f"not anti-?{kind}"):
                require_symmetric(a + np.eye(3), sign=-1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rejects_non_square(self, shape, sign):
        rejects_non_square(float, shape, sign)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("value", VALUES)
    def test_rejects_non_finite(self, value, sign):
        for where in WHERE:
            rejects_non_finite(float, value, where, sign)

    @pytest.mark.parametrize("a", [np.eye(2, dtype=bool), [["a", "b"], ["b", "a"]],
                                   np.eye(2, dtype=object), [[1.0, 2.0], [3.0]]],
                             ids=["bool", "str", "object", "ragged"])
    def test_rejects_anything_but_numbers(self, a):
        with pytest.raises(InvalidInput, match="array of numbers"):
            require_symmetric(a)

    # Integers are taken as floats, so that an unsigned negation cannot wrap
    # [[0, 1], [255, 0]] round to an antisymmetric matrix.
    def test_integers_are_taken_as_floats(self):
        with pytest.raises(InvalidInput, match="not antisymmetric"):
            require_symmetric(np.array([[0, 1], [255, 0]], np.uint8), sign=-1)
        assert require_symmetric(np.eye(2, dtype=int)).dtype == float


# The same shape and finiteness cases on complex input, where the one rule
# is a Hermitian (sign 1) or anti-Hermitian (sign -1) check.
class TestRequireHermitian:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rejects_non_square(self, shape):
        for sign in (1, -1):
            rejects_non_square(complex, shape, sign)

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("where", WHERE)
    def test_rejects_non_finite(self, value, where):
        for sign in (1, -1):
            rejects_non_finite(complex, value, where, sign)


class TestSpectralAbsmax:
    def test_diagonal(self):
        assert spectral_absmax(np.diag([-3.0, 2.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert spectral_absmax(np.zeros((3, 3))) == 0.0

    def test_qubit_incompatibility_is_one(self):
        # i Q^-1 D for a sampled pure qubit model has extreme eigenvalue 1.
        point = ModelPoint(b=0.8, theta=0.9, t=5.0)
        gens = closed_generators(rep(2), point)
        probe = state_from_bloch(np.array([0.48, -0.6, 0.64]))
        q, d = qfim_uhlmann(gens, probe)
        val = spectral_absmax(incompat_operator(q, d))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_antisymmetric_pair(self, rng):
        for a in rng.standard_normal(5):
            m = np.array([[0.0, a], [-a, 0.0]])
            assert spectral_absmax(1j * m) == pytest.approx(abs(a), abs=1e-12)

    def test_rejects_complex_spectrum(self):
        # a real matrix is held to the matrix rule as symmetric
        with pytest.raises(InvalidInput, match="not symmetric"):
            spectral_absmax(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestAntisymTridiagonal:
    """The real tridiagonal form against the complex ``eigvalsh(1j K)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        kind=st.sampled_from(["random", "zero", "rank-deficient", "zero-row"]),
        exponent=st.sampled_from([-150, 0, 150]),
    )
    def test_spectrum_of_i_k(self, seed, n, kind, exponent):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2, 3, n, n))
        if kind == "zero":
            m[...] = 0.0
        elif kind == "rank-deficient":
            # b a b^T has rank at most n - 1 (at most n - 2 once antisymmetric)
            b = rng.standard_normal((2, 3, n, max(n - 1, 1)))
            m = b @ rng.standard_normal(b.shape[:-2] + (b.shape[-1],) * 2) @ b.swapaxes(-1, -2)
        elif kind == "zero-row":
            row = rng.integers(n)
            m[..., row, :] = m[..., :, row] = 0.0
        k = (m - m.swapaxes(-1, -2)) * 10.0**exponent
        want = np.linalg.eigvalsh(1j * k)
        t = antisym_tridiagonal(k.copy())
        assert t.dtype == float and t.shape == k.shape
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
        assert np.array_equal(t, t.swapaxes(-1, -2)) and not t[..., ~band].any()
        assert (t >= 0).all()
        # a backward-stable reduction and eigensolver, each a few n eps of
        # the largest eigenvalue magnitude
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert (np.abs(np.linalg.eigvalsh(t) - want) <= 8 * n * EPS * scale).all()

    def test_written_over_its_input(self, rng):
        m = rng.standard_normal((4, 5, 5))
        k = m - m.swapaxes(-1, -2)
        assert antisym_tridiagonal(k) is k
        assert not np.triu(k, 2).any() and not np.diagonal(k, axis1=-2, axis2=-1).any()


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_antisymmetric(self):
        assert trace_norm(np.array([[0.0, 1.3], [-1.3, 0.0]])) == pytest.approx(2.6)

    def test_against_gram_eigenvalue_oracle(self, rng):
        # Independent route: singular values are the square roots of the
        # Gram matrix spectrum.
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            oracle = np.sqrt(np.clip(np.linalg.eigvalsh(a.T @ a), 0, None)).sum()
            assert trace_norm(a) == pytest.approx(oracle, rel=1e-12)


class TestSymInverse:
    def test_identity(self):
        assert np.allclose(sym_inverse(np.eye(3)), np.eye(3))

    def test_near_singular_flag(self):
        assert sym_inverse(np.diag([1.0, 1e-14])) is None

    def test_qubit_aligned_probe_is_singular(self):
        # theta = pi/2 with the probe along the field direction: the
        # closed-form determinant 4 t^2 sin^2(Bt/2) (n2 . r)^2 vanishes.
        from spinmetro.models import qubit2p_closed

        point = ModelPoint(b=0.8, theta=np.pi / 2, t=5.0)
        gens = closed_generators(rep(2), point)
        probe = make_probe(ProbeSpec(dim=2, alpha=0.0))  # bloch vector +z
        q, _ = qfim_uhlmann(gens, probe)
        assert sym_inverse(q) is None
        assert qubit2p_closed(np.array([0.0, 0.0, 1.0]), point).singular

    def test_inverse_quality(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            spd = m @ m.T + 0.5 * np.eye(4)
            inv = sym_inverse(spd)
            assert np.linalg.norm(spd @ inv - np.eye(4)) < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            sym_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))

    # A NaN is a failure of whatever computed it, not a singular matrix.
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(InvalidInput, match="NaN or an infinity"):
            sym_inverse(np.array([[value, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_rejects_anything_but_one_square_matrix(self, shape):
        with pytest.raises(InvalidInput, match="square"):
            sym_inverse(np.zeros(shape))

    def test_rejects_tolerance_that_is_not_positive(self):
        for rel_tol in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidInput):
                sym_inverse(np.eye(2), rel_tol=rel_tol)


class TestEighInverse:
    """Only the regular matrices come back: their positions, eigenvectors
    and inverses, in stack order, with no padding for singular ones."""

    def test_all_singular_stack_gives_empty_arrays(self):
        q = np.stack([np.zeros((3, 3)), np.diag([1.0, 1.0, 1e-14])])
        evals, singular, regular, vecs, q_inv = eigh_inverse(q, 1e-10)
        assert evals.shape == (2, 3) and singular.tolist() == [True, True]
        assert regular.shape == (0,) and vecs.shape == q_inv.shape == (0, 3, 3)

    def test_mixed_stack_matches_single_calls(self, rng):
        q = np.stack([spd_with_condition(rng, 3, cond) for cond in (1e2, 1e14, 1.0, 1e6)]
                     + [np.zeros((3, 3))])
        evals, singular, regular, vecs, q_inv = eigh_inverse(q, 1e-10)
        assert singular.tolist() == [False, True, False, False, True]
        assert regular.tolist() == [0, 2, 3]
        assert np.allclose((vecs * evals[regular, None, :]) @ vecs.swapaxes(-1, -2), q[regular])
        for k, position in enumerate(regular):
            one_evals, one_singular, one_regular, one_vecs, one_inv = eigh_inverse(
                q[position:position + 1], 1e-10)
            assert one_regular.tolist() == [0] and not one_singular[0]
            assert one_evals[0].tobytes() == evals[position].tobytes()
            assert one_vecs[0].tobytes() == vecs[k].tobytes()
            assert one_inv[0].tobytes() == q_inv[k].tobytes()
            assert sym_inverse(q[position]).tobytes() == q_inv[k].tobytes()


def spd_with_condition(rng, n, cond):
    """Random symmetric positive definite matrix with the given condition number."""
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (v * np.geomspace(1.0, 1.0 / cond, n)) @ v.T


class TestInverseCheck:
    """The check on ``Q Q^-1 - I`` scales with cond(Q), as the rounding does."""

    def test_ill_conditioned_matrices_pass(self, rng):
        # A correct inverse leaves a residual near eps * cond = 2e-7 here, so
        # an absolute bound of 1e-8 would reject most of them.
        for _ in range(200):
            q = spd_with_condition(rng, 3, 1e9)
            inv = sym_inverse(q)
            assert inv is not None
            assert np.allclose(inv @ q, np.eye(3), atol=1e-4)

    # The inverse of sym_inverse and of a scaling table's baselines comes
    # from eigh_inverse's eigenvectors: perturbed ones fail check_inverse.
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9])
    def test_perturbed_inverse_is_caught(self, rng, monkeypatch, cond):
        q = spd_with_condition(rng, 3, cond)
        exact = np.linalg.inv(q)
        e = rng.standard_normal((3, 3))
        bad = exact + 1e-6 * np.linalg.norm(exact, 2) * (e + e.T) / np.linalg.norm(e + e.T, 2)
        check_inverse(q, exact, cond)
        with pytest.raises(NumericalFailure):
            check_inverse(q, bad, cond)
        eigh = np.linalg.eigh

        def noisy_eigh(a):
            evals, vecs = eigh(a)
            return evals, vecs * (1 + 1e-6 * rng.standard_normal(vecs.shape))

        monkeypatch.setattr(np.linalg, "eigh", noisy_eigh)
        with pytest.raises(NumericalFailure, match="inverse verification failed"):
            sym_inverse(q)
        point = ModelPoint(b=np.pi / 5, theta=np.pi / 2, t=5.0)
        with pytest.raises(NumericalFailure, match="inverse verification failed"):
            scaling_table([np.pi / 4], [4, 5], point)

    def test_one_bad_matrix_in_a_stack_is_caught(self, rng):
        q = np.stack([spd_with_condition(rng, 2, c) for c in (1.0, 1e4, 1e8)])
        inv = np.linalg.inv(q)
        cond = np.array([1.0, 1e4, 1e8])
        check_inverse(q, inv, cond)
        inv[1] *= 1 + 1e-6
        with pytest.raises(NumericalFailure):
            check_inverse(q, inv, cond)

    def test_empty_stack_passes_and_nan_fails(self):
        check_inverse(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0))
        with pytest.raises(NumericalFailure):
            check_inverse(np.eye(2)[None], np.full((1, 2, 2), np.nan), np.ones(1))


# Q = diag(1e-310, 1e-310) is regular at any rel_tol, and 1 / 1e-310
# overflows: the inverse's NaN residual fails the check, with no numpy
# warning on the way and no FloatingPointError under the commands' error
# state.  Each once warned "overflow encountered in divide" and twice
# "invalid value encountered in matmul" before it raised.
SUBNORMAL_Q = np.diag([1e-310, 1e-310])


@pytest.mark.parametrize("inverse", [
    pytest.param(lambda q: eigh_inverse(q, 1e-10), id="eigh_inverse"),
    pytest.param(sym_inverse, id="sym_inverse"),
    pytest.param(lambda q: ai_measure(q, np.zeros((2, 2))), id="ai_measure"),
])
@pytest.mark.parametrize("errors", ["warn", "raise"])
def test_overflowing_inverse_fails_without_a_warning(inverse, errors):
    with warnings.catch_warnings(), np.errstate(over=errors, divide=errors, invalid=errors):
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="inverse verification failed"):
            inverse(SUBNORMAL_Q)


class TestSingularMask:
    def test_rule_over_leading_axes(self):
        evals = np.array([[1e-12, 1.0], [1e-9, 1.0], [0.0, 0.0], [-1.0, -0.5]])
        assert singular_mask(evals, 1e-10).tolist() == [True, False, True, True]
        assert singular_mask(evals, 1e-8).tolist() == [True, True, True, True]

    def test_zero_eigenvalue_is_singular_where_the_threshold_underflows(self):
        # 1e-294 * 1e-30 underflows to 0, and 0 < 0 would pass a zero
        # eigenvalue as regular; inverting it divided by zero.
        evals = np.array([[0.0, 1e-30], [1e-310, 1e-30]])
        assert singular_mask(evals, 1e-294).tolist() == [True, False]
