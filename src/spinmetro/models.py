"""Closed-form results for the su(2) models and the extreme-state probe family.

The probe family is ``cos(alpha)|J> + e^{1j phi} sin(alpha)|-J>`` over the
extreme eigenvectors of Jz.  For it, the two-parameter QFIM/Uhlmann
elements (dimension > 3), the qubit Bloch-vector forms and the
three-parameter Uhlmann elements admit closed expressions, implemented
here and cross-checked against the generic generator route in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import ModelPoint, direction_vectors_2p, direction_vectors_3p, require_point
from .errors import InvalidInput
from .linalg import (SpinRep, _slot_rule, _window_moments, check_probe, j_direction,
                     require_float, require_int)
# Bound here for perfbench/tests, which check that the benchmark's tracer
# wraps every module binding of this pinned function.
from .linalg import sym_inverse  # noqa: F401

__all__ = [
    "MAX_DIM",
    "ProbeSpec",
    "make_probe",
    "extreme_moments",
    "bloch_vector",
    "Qubit2pResult",
    "qubit2p_closed",
    "qudit2p_closed",
    "threeparam_uhlmann_closed",
]


# Largest probe dimension.  An extreme-state probe costs the same at any N,
# since its moments come from its support (:func:`extreme_moments`), and
# its Jz eigenvalues and squared ladder elements stay exact in float64.
# What N bounds is an explicit state, the N-vector of make_probe or of a
# caller, which spin_moments cuts to its windows in O(N): a dense state at
# 10^6 peaks near 155 MB of traced memory there.  A larger N is rejected
# before any allocation.
MAX_DIM = 10**6


@dataclass(frozen=True)
class ProbeSpec:
    """Extreme-state superposition probe: dimension, mixing angle, phase.

    ``dim`` is an integer from 2 to :data:`MAX_DIM` (the rule of
    :func:`~spinmetro.linalg.require_int`), stored as a Python int; the
    angles are finite numbers (the rule of :func:`~spinmetro.linalg.require_float`),
    stored as Python floats.
    """

    dim: int
    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        dim = require_int(self.dim, "probe dimension")
        if dim < 2:
            raise InvalidInput(f"probe dimension must be an integer >= 2, got {dim}")
        if dim > MAX_DIM:
            raise InvalidInput(f"probe dimension must be at most {MAX_DIM}, got {dim}")
        object.__setattr__(self, "dim", dim)
        for name in ("alpha", "phi"):
            object.__setattr__(self, name, require_float(getattr(self, name), f"probe {name}"))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis positions ``(0, N - 1)`` of the probe and its two
        amplitudes there, with no N-vector."""
        return np.array([0, self.dim - 1]), np.array(_extreme_amplitudes(self.alpha, self.phi))

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Spin mean and covariance of the probe: :func:`extreme_moments` on
        a batch of one."""
        return extreme_moments(self.dim, self.alpha, self.phi)


def _extreme_amplitudes(alpha, phi) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes of ``|J>`` and ``|-J>``, ``cos(alpha)`` and
    ``e^{1j phi} sin(alpha)`` divided by their norm, elementwise.  The norm
    sums the squares as ``np.linalg.norm`` of the N-vector does, real parts
    first; it is 1 but for rounding, and dividing by it keeps the digits of
    the probe that was normalized as an N-vector."""
    first, last = np.cos(alpha), np.exp(1j * phi) * np.sin(alpha)
    norm = np.sqrt((first * first + last.real * last.real) + last.imag * last.imag)
    return first / norm, last / norm


def make_probe(spec: ProbeSpec) -> np.ndarray:
    """Build ``cos(alpha)|J> + e^{1j phi} sin(alpha)|-J>`` as an N-vector.

    In the Jz-diagonal basis (entries s down to -s) the extreme
    eigenvectors are the first and last basis vectors, so the support is
    ``{0, N - 1}`` (:meth:`ProbeSpec.support`).  The library takes a
    probe's moments from that support (:func:`extreme_moments`) and builds
    no N-vector.
    """
    index, amp = spec.support()
    psi = np.zeros(spec.dim, dtype=complex)
    psi[index] = amp
    return psi


def _slot_layout(n: int) -> np.ndarray:
    # The four slots of extreme_moments at dimension n, at the positions
    # min((0, 1, max(2, n - 2), max(3, n - 1)), n - 1): their Jz eigenvalues,
    # then the squared ladder elements between them, by the one slot rule.
    p = np.minimum([0, 1, max(2, n - 2), max(3, n - 1)], n - 1)
    return np.concatenate(_slot_rule((n - 1) / 2, p))


# _slot_layout by min(N, 5), as affine functions of N: constant below 5,
# and from 5 on each entry is a half-integer multiple of N plus a
# half-integer, so _SCALE[k] N + _SHIFT[k] is exact and has the bits of
# _slot_layout(N).  _LAST marks the slot of |-J>, min(N - 1, 3).
_SHIFT = np.array([_slot_layout(n) for n in (2, 2, 2, 3, 4, 5)])
_SCALE = np.zeros_like(_SHIFT)
_SCALE[5] = _slot_layout(6) - _SHIFT[5]
_SHIFT[5] -= 5 * _SCALE[5]
_LAST = np.arange(4) == np.minimum(np.arange(6) - 1, 3)[:, None]


def extreme_moments(dim, alpha, phi=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Spin mean and covariance of extreme-state probes from their support,
    over the broadcast shape of ``dim``, ``alpha`` and ``phi``.

    The support ``{0, N - 1}`` has the windows ``[0, 1]`` and
    ``[N - 2, N - 1]``: two from N = 5 on, one at N = 4 where they touch,
    and one at N = 3 and 2 where they overlap.  They fill four slots at the
    positions ``min((0, 1, max(2, N - 2), max(3, N - 1)), N - 1)``, a
    repeated position a pad, so :func:`~spinmetro.linalg._window_moments`
    runs once on the stack and a probe costs the same at any N; ``|-J>``
    takes the first slot at N - 1.  The slots' Jz eigenvalues and ladder
    elements come from constant tables indexed by ``min(N, 5)``.  The
    arguments are taken as they are: a :class:`ProbeSpec` or
    :func:`~spinmetro.analysis.scaling_table` has checked them.
    """
    row = np.minimum(dim, 5)
    layout = _SCALE[row] * np.asarray(dim, dtype=float)[..., None] + _SHIFT[row]
    first, last = _extreme_amplitudes(alpha, phi)
    amp = np.zeros(np.broadcast(row, last).shape + (4,), dtype=complex)
    amp[..., 0] = first
    np.copyto(amp, last[..., None], where=_LAST[row])
    return _window_moments(amp, layout[..., :4], np.sqrt(layout[..., 4:]))


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


class Qubit2pResult(NamedTuple):
    qfim: np.ndarray
    d_theta_b: float
    r_ai: float | None
    singular: bool


def qubit2p_closed(r0, point: ModelPoint) -> Qubit2pResult:
    """Two-parameter qubit model in Bloch form.

    For a probe with Bloch vector ``r0`` (``|r0| <= 1``; the algebra
    extends below the sphere, but the incompatibility claims hold for pure
    probes) the QFIM, the single Uhlmann element ``D_{theta B}`` and the
    incompatibility ``R = sqrt((n2.r0)^2 / (1 - (n1.r0)^2 - (nth.r0)^2))``
    are closed functions of the frame vectors.  When R's denominator or
    ``det Q / max(||Q||_2^2, 1)`` is at most 1e-12, the QFIM is singular
    and the result carries ``r_ai = None`` and the flag.
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (3,) or np.linalg.norm(r0) > 1.0 + 1e-12:
        raise InvalidInput("Bloch vector must be a 3-vector with norm <= 1")
    if require_point(point).n_params != 2:
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
    if denom <= 1e-12 or det_q <= 1e-12 * max(np.linalg.norm(q, 2) ** 2, 1.0):
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
    if require_point(point).n_params != 2:
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
    if require_point(point).n_params != 3:
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
