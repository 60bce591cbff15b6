"""Closed-form results for the su(2) models and the extreme-state probe family.

The probe family is ``cos(alpha)|J> + e^{1j phi} sin(alpha)|-J>`` over the
extreme eigenvectors of Jz.  For it, the two-parameter QFIM/Uhlmann
elements (dimension > 3), the qubit Bloch-vector forms, the
three-parameter Uhlmann elements and the incompatibility values all admit
closed expressions, implemented here and cross-checked against the generic
generator route in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import ModelPoint, direction_vectors_2p, direction_vectors_3p
from .errors import InvalidInput
from .linalg import SpinRep, j_direction, sym_inverse
from .metrology import check_probe

__all__ = [
    "MAX_DIM",
    "ProbeSpec",
    "make_probe",
    "bloch_vector",
    "state_from_bloch",
    "Qubit2pResult",
    "qubit2p_closed",
    "qudit2p_closed",
    "threeparam_uhlmann_closed",
    "ai_threeparam_probe",
    "gamma_scaling",
]


# Largest probe dimension: the O(N) spin-moment kernel of a report peaks
# near 160 MB of traced memory there, and a larger N is rejected before
# any allocation.
MAX_DIM = 10**6


@dataclass(frozen=True)
class ProbeSpec:
    """Extreme-state superposition probe: dimension, mixing angle, phase.

    ``dim`` is an integer from 2 to :data:`MAX_DIM`.
    """

    dim: int
    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise InvalidInput(f"probe dimension must be an integer >= 2, got {self.dim!r}")
        if self.dim > MAX_DIM:
            raise InvalidInput(f"probe dimension must be at most {MAX_DIM}, got {self.dim!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.phi)):
            raise InvalidInput(f"probe angles must be finite, got {self!r}")


def make_probe(spec: ProbeSpec) -> np.ndarray:
    """Build ``cos(alpha)|J> + e^{1j phi} sin(alpha)|-J>``, unit norm.

    In the Jz-diagonal basis (entries s down to -s) the extreme
    eigenvectors are the first and last basis vectors.  The cos/sin
    amplitudes already give unit norm; renormalization is defensive.
    """
    psi = np.zeros(int(spec.dim), dtype=complex)
    psi[0] = np.cos(spec.alpha)
    psi[-1] = np.exp(1j * spec.phi) * np.sin(spec.alpha)
    return psi / np.linalg.norm(psi)


def bloch_vector(state) -> np.ndarray:
    """Bloch vector of a pure qubit state (expectation of the Paulis)."""
    psi = check_probe(state, 2)
    a, b = psi
    return np.array(
        [
            2 * (a.conjugate() * b).real,
            2 * (a.conjugate() * b).imag,
            (abs(a) ** 2 - abs(b) ** 2),
        ]
    )


def state_from_bloch(r) -> np.ndarray:
    """Pure qubit state with the given unit Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or abs(np.linalg.norm(r) - 1.0) > 1e-10:
        raise InvalidInput("state_from_bloch needs a unit 3-vector")
    beta = np.arccos(np.clip(r[2], -1.0, 1.0))
    gamma = np.arctan2(r[1], r[0])
    return np.array([np.cos(beta / 2), np.exp(1j * gamma) * np.sin(beta / 2)])


class Qubit2pResult(NamedTuple):
    qfim: np.ndarray
    d_theta_b: float
    r_ai: float | None
    singular: bool


def qubit2p_closed(r0, point: ModelPoint, tol: float = 1e-12) -> Qubit2pResult:
    """Two-parameter qubit model in Bloch form.

    For a probe with Bloch vector ``r0`` (``|r0| <= 1``; the algebra
    extends below the sphere, but the incompatibility claims hold for pure
    probes) the QFIM, the single Uhlmann element ``D_{theta B}`` and the
    incompatibility ``R = sqrt((n2.r0)^2 / (1 - (n1.r0)^2 - (nth.r0)^2))``
    are closed functions of the frame vectors.  When the QFIM is singular
    the result carries ``r_ai = None`` and the flag.
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (3,) or np.linalg.norm(r0) > 1.0 + 1e-12:
        raise InvalidInput("Bloch vector must be a 3-vector with norm <= 1")
    if point.n_params != 2:
        raise InvalidInput("qubit2p_closed needs a two-parameter point")
    n_theta, _, n1, n2 = direction_vectors_2p(point)
    t = point.t
    sh = np.sin(point.b * t / 2)
    a = float(n_theta @ r0)
    b = float(n1 @ r0)
    c = float(n2 @ r0)
    q = np.array(
        [
            [t**2 * (1 - a**2), 2 * t * sh * a * b],
            [2 * t * sh * a * b, 4 * sh**2 * (1 - b**2)],
        ]
    )
    d_theta_b = 2 * t * sh * c
    denom = 1 - a**2 - b**2
    det_q = 4 * t**2 * sh**2 * denom
    if denom <= tol or det_q <= tol * max(np.linalg.norm(q, 2) ** 2, 1.0):
        return Qubit2pResult(qfim=q, d_theta_b=d_theta_b, r_ai=None, singular=True)
    return Qubit2pResult(
        qfim=q, d_theta_b=d_theta_b, r_ai=float(np.sqrt(c**2 / denom)), singular=False
    )


def qudit2p_closed(spec: ProbeSpec, point: ModelPoint):
    """Closed two-parameter QFIM and Uhlmann element for dimension > 3.

    Valid for the extreme-state probe only; dimensions 2 and 3 have extra
    matrix elements coupling the extreme states, so N = 3 must go through
    the generic generator route (and N = 2 through the Bloch form).
    Returns ``(qfim, d_theta_b)`` in the (B, theta) ordering.
    """
    n = spec.dim
    if n <= 3:
        raise InvalidInput("closed qudit forms need dimension > 3; use the generic route")
    if point.n_params != 2:
        raise InvalidInput("qudit2p_closed needs a two-parameter point")
    t = point.t
    half = point.b * t / 2
    sh, ch = np.sin(half), np.cos(half)
    ct, st = np.cos(point.theta), np.sin(point.theta)
    s2a = np.sin(2 * spec.alpha)
    c2a = np.cos(2 * spec.alpha)
    c4a = np.cos(4 * spec.alpha)
    q_bb = (n - 1) * t**2 * (ct**2 + (n - 1) * s2a**2 * st**2)
    q_tt = 4 * (n - 1) * sh**2 * (sh**2 + ch**2 * ((n - 1) * ct**2 * s2a**2 + st**2))
    q_bt = (n - 1) * (t / 4) * (n - 3 - (n - 1) * c4a) * np.sin(point.b * t) * np.sin(2 * point.theta)
    d_theta_b = -2 * t * (n - 1) * c2a * ct * sh**2
    q = np.array([[q_bb, q_bt], [q_bt, q_tt]])
    return q, float(d_theta_b)


def threeparam_uhlmann_closed(rep: SpinRep, probe, point: ModelPoint) -> np.ndarray:
    """Closed three-parameter Uhlmann matrix, ordering (B, theta, phi).

    With the orthonormal frame ``(n_theta, n1, n2)`` and ``sh = sin(Bt/2)``:
    ``D_{B,theta} = 4 t sh <J_{n2}>``,
    ``D_{B,phi} = -4 t cos(theta) sh <J_{n1}>``,
    ``D_{theta,phi} = -8 cos(theta) sh^2 <J_{n_theta}>``.
    The cos(theta) factors follow from the phi generator and the signs from
    the frame's cross products; the tests pin this matrix against the
    generic commutator route.
    """
    if point.n_params != 3:
        raise InvalidInput("threeparam_uhlmann_closed needs a three-parameter point")
    psi = check_probe(probe, rep.N)
    n_theta, n1, n2 = direction_vectors_3p(point)
    t = point.t
    sh = np.sin(point.b * t / 2)
    ct = np.cos(point.theta)

    def mean(nvec):
        return float((psi.conj() @ (j_direction(rep, nvec) @ psi)).real)

    d_bt = 4 * t * sh * mean(n2)
    d_bp = -4 * t * ct * sh * mean(n1)
    d_tp = -8 * ct * sh**2 * mean(n_theta)
    return np.array(
        [
            [0.0, d_bt, d_bp],
            [-d_bt, 0.0, d_tp],
            [-d_bp, -d_tp, 0.0],
        ]
    )


def ai_threeparam_probe(n: int, alpha: float) -> float:
    """Incompatibility of the extreme-state probe, three parameters, N >= 4.

    Equals ``|cos(2 alpha)|`` independently of the phase, the point and the
    dimension once N >= 4.  Below N = 4 the closed form does not apply
    (N = 3 is maximally incompatible, N = 2 singular).
    """
    if int(n) != n or n < 4:
        raise InvalidInput(f"closed three-parameter incompatibility needs N >= 4, got {n!r}")
    return float(abs(np.cos(2 * alpha)))


def gamma_scaling(q_n, q_m, rel_tol: float = 1e-10) -> float | None:
    """Metrological-power ratio ``Tr(Q_N Q_M^-1)`` between two probes.

    Returns ``None`` when the reference matrix is singular at ``rel_tol``.
    """
    q_n = np.asarray(q_n, dtype=float)
    q_m = np.asarray(q_m, dtype=float)
    if q_n.shape != q_m.shape:
        raise InvalidInput(f"shape mismatch: {q_n.shape} vs {q_m.shape}")
    inv = sym_inverse(q_m, rel_tol=rel_tol)
    if inv is None:
        return None
    return float(np.trace(q_n @ inv))
