"""Test-only routes and helpers that the library's own paths do not run.

Each is an independent oracle or a statistic that only the tests read:
the state-derivative QFIM, the SLD machinery (solver, SLD-based QFIM and
Uhlmann matrix, Born probabilities), sub-model restriction, the qubit
state of a Bloch vector, the closed three-parameter incompatibility of
the extreme-state probe, the scan shrinkage statistic and the dense
spin-moment formula, which gives the moments of any state vector.  Tests
import them the way they import ``conftest``.
"""

import numpy as np

from spinmetro.analysis import ScanResult
from spinmetro.errors import InvalidInput, NumericalFailure
from spinmetro.linalg import require_symmetric
from spinmetro.metrology import check_probe


def qfim_from_state_derivatives(family, values, step: float = 1e-5):
    """QFIM and Uhlmann matrix from finite differences of the state itself.

    ``family`` maps a parameter vector to a normalized pure state.  This is
    the generator-free route: with ``|d_j psi>`` from central differences,
    ``Q_jk = 4 Re(<d_j psi|d_k psi> - <d_j psi|psi><psi|d_k psi>)`` and the
    Uhlmann matrix is 4 times the imaginary part of the same bracket.
    Differentiated states whose norm drifts beyond 1e-6 raise
    :class:`InvalidInput` (the family is then not a pure-state family at
    the working step).
    """
    values = np.asarray(values, dtype=float)
    if not step > 0:
        raise InvalidInput("finite-difference step must be positive")
    psi = check_probe(family(values))
    steps = step * np.maximum(1.0, np.abs(values))
    derivs = []
    for j in range(values.size):
        up, um = values.copy(), values.copy()
        up[j] += steps[j]
        um[j] -= steps[j]
        psi_p = np.asarray(family(up), dtype=complex)
        psi_m = np.asarray(family(um), dtype=complex)
        for vec in (psi_p, psi_m):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-6:
                raise InvalidInput(
                    "state family norm drifted beyond 1e-6 at the working step"
                )
        derivs.append((psi_p - psi_m) / (2 * steps[j]))
    dpsi = np.array(derivs)
    overlap = dpsi.conj() @ dpsi.T
    dot_psi = dpsi.conj() @ psi
    bracket = overlap - np.outer(dot_psi, dot_psi.conj())
    q = 4 * bracket.real
    d = 4 * bracket.imag
    return (q + q.T) / 2, (d - d.T) / 2


def sld_solve(rho, drho, support_tol: float = 1e-12) -> np.ndarray:
    """Symmetric logarithmic derivative: solve ``2 drho = {L, rho}``.

    Solved in the eigenbasis of ``rho`` where the anticommutator equation
    decouples: ``L_jk = 2 drho_jk / (p_j + p_k)`` on the support
    (eigenvalue sums above ``support_tol``), zero elsewhere.
    """
    rho = require_symmetric(rho, name="density matrix")
    # derivative inputs often come from finite differences: their residual
    # is held to that noise floor, 1e-8 of max(||drho||, 1), not the
    # library's matrix rule, and then symmetrized away
    drho = np.asarray(drho, dtype=complex)
    resid = np.linalg.norm(drho - drho.conj().T)
    if not resid <= 1e-8 * max(np.linalg.norm(drho), 1.0):
        raise InvalidInput(f"density-matrix derivative is not Hermitian (residual {resid:.3e})")
    drho = (drho + drho.conj().T) / 2
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidInput(f"density matrix has trace {np.trace(rho)!r}, expected 1")
    p, v = np.linalg.eigh(rho)
    dr = v.conj().T @ drho @ v
    denom = p[:, None] + p[None, :]
    on_support = denom > support_tol
    l_eig = np.zeros_like(dr)
    l_eig[on_support] = 2 * dr[on_support] / denom[on_support]
    l_mat = v @ l_eig @ v.conj().T
    return (l_mat + l_mat.conj().T) / 2


def qfim_from_slds(rho, slds) -> np.ndarray:
    """QFIM from SLD operators: ``Q_jk = Re Tr(rho L_j L_k)``."""
    rho = np.asarray(rho, dtype=complex)
    slds = [np.asarray(l, dtype=complex) for l in slds]
    d = len(slds)
    q = np.empty((d, d))
    for j in range(d):
        for k in range(j, d):
            q[j, k] = q[k, j] = np.trace(rho @ slds[j] @ slds[k]).real
    return q


def uhlmann_from_slds(rho, slds) -> np.ndarray:
    """Uhlmann matrix from SLDs: ``D_jk = Im Tr(rho L_j L_k)``."""
    rho = np.asarray(rho, dtype=complex)
    slds = [np.asarray(l, dtype=complex) for l in slds]
    d = len(slds)
    mat = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            val = np.trace(rho @ slds[j] @ slds[k]).imag
            mat[j, k] = val
            mat[k, j] = -val
    return mat


def born_probabilities(rho, povm) -> np.ndarray:
    """Outcome probabilities ``p_i = Tr(rho Pi_i)`` for a POVM.

    The POVM must resolve the identity to 1e-10; tiny negative
    probabilities from rounding are clipped at -1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    povm = [np.asarray(e, dtype=complex) for e in povm]
    total = sum(povm)
    if np.abs(total - np.eye(rho.shape[0])).max() > 1e-10:
        raise InvalidInput("POVM does not sum to the identity")
    probs = np.array([np.trace(rho @ e).real for e in povm])
    if probs.min(initial=0.0) < -1e-12:
        raise NumericalFailure(f"negative Born probability {probs.min():.3e}")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise NumericalFailure(f"Born probabilities sum to {probs.sum()!r}")
    return np.clip(probs, 0.0, None)


def submodel(q, d, subset):
    """Restrict (Q, D) to a sub-model: principal blocks on ``subset``.

    ``subset`` must be a nonempty proper subset of the parameter indices.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    n = q.shape[0]
    idx = sorted(set(int(i) for i in subset))
    if not idx or len(idx) >= n:
        raise InvalidInput(f"subset must be nonempty and proper, got {subset!r}")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInput(f"subset indices out of range for {n} parameters")
    ix = np.ix_(idx, idx)
    return q[ix], d[ix]


def state_from_bloch(r) -> np.ndarray:
    """Pure qubit state with the given unit Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or abs(np.linalg.norm(r) - 1.0) > 1e-10:
        raise InvalidInput("state_from_bloch needs a unit 3-vector")
    beta = np.arccos(np.clip(r[2], -1.0, 1.0))
    gamma = np.arctan2(r[1], r[0])
    return np.array([np.cos(beta / 2), np.exp(1j * gamma) * np.sin(beta / 2)])


def ai_threeparam_probe(n: int, alpha: float) -> float:
    """Incompatibility of the extreme-state probe, three parameters, N >= 4.

    Equals ``|cos(2 alpha)|`` independently of the phase, the point and the
    dimension once N >= 4.  Below N = 4 the closed form does not apply
    (N = 3 is maximally incompatible, N = 2 singular).
    """
    if int(n) != n or n < 4:
        raise InvalidInput(f"closed three-parameter incompatibility needs N >= 4, got {n!r}")
    return float(abs(np.cos(2 * alpha)))


def shrinkage_fractions(res_a: ScanResult, res_b: ScanResult, threshold: float = 0.05):
    """Fraction of regular cells with T below ``threshold``, per grid.

    Returns ``(f_a, f_b)``; a grid with no regular cells reports ``None``.
    """
    shape_a, shape_b = ((r.config.theta_count, r.config.b_count) for r in (res_a, res_b))
    if shape_a != shape_b:
        raise InvalidInput(f"grid shapes differ: {shape_a} vs {shape_b}")

    def frac(res: ScanResult):
        regular = ~res.singular
        if not regular.any():
            return None
        return float((res.t_gap[regular] < threshold).sum() / regular.sum())

    return frac(res_a), frac(res_b)


def dense_spin_moments(psi):
    """Spin mean and covariance of a unit-norm state by the dense formula:
    ``J+ psi`` and ``J- psi`` over the whole N-vector, then ``mean = v psi*``
    and ``cov = w w^T`` of the centered rows: the moments of any state the
    tests draw.  The library's one kernel,
    :func:`~spinmetro.linalg._window_moments`, runs the same operations in
    the same order on one window, so on a state laid out as one window the
    two agree bit for bit."""
    psi = np.asarray(psi, dtype=complex)
    s = (psi.size - 1) / 2
    m = s - np.arange(psi.size)
    ladder = np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] - 1))
    jminus_psi = np.zeros(psi.size, dtype=complex)
    jplus_psi = np.zeros(psi.size, dtype=complex)
    jminus_psi[1:] = ladder * psi[:-1]
    jplus_psi[:-1] = ladder * psi[1:]
    v = np.array([(jplus_psi + jminus_psi) / 2, (jplus_psi - jminus_psi) / 2j, m * psi])
    mean = (v @ psi.conj()).real
    v -= mean[:, None] * psi
    w = v.view(float)
    return mean, w @ w.T
