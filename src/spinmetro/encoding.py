"""Parametric su(2) Hamiltonian families and their evolution generators.

Two unitary models are supported.  The two-parameter family is
``H = B (cos(theta) Jx + sin(theta) Jz)`` with unknowns ``(B, theta)``;
the three-parameter family tilts the field direction out of the xz-plane,
``H = B * n(theta, phi) . J`` with unknowns ``(B, theta, phi)``.  The probe
evolves as ``U = exp(-1j t H)``.

For each estimated parameter ``l`` the Hermitian generator
``G_l = 1j (d_l U^dag) U`` converts the unitary family into expectation
formulas for the quantum Fisher information and Uhlmann curvature.  The
generators can be produced through three independent routes:

* :func:`closed_generators` -- exact closed forms; every generator is a
  spin component ``a_l . J`` along a known direction, and
  :func:`closed_frame` gives the rows ``a_l`` without building any matrix.
* :func:`series_generators` -- the nested-commutator series
  ``G_l = 1j * sum_n f_n ad_H^n(d_l H)`` with ``f_n = (1j t)^(n+1)/(n+1)!``,
  summed exactly in the eigenbasis of ``H``, with no truncation.
* :func:`numeric_generators` -- central finite differences of ``U``.

The routes are deliberately redundant: the closed forms are the fast path
and the other two act as oracles for them.

Parameter ordering is fixed as ``(B, theta, phi)`` everywhere, and all
matrices built downstream (QFIM, Uhlmann) use this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInput, StepInstability
from .linalg import SpinRep, expm_i, j_direction

__all__ = [
    "ModelKind",
    "ModelPoint",
    "GeneratorSet",
    "direction_vectors_2p",
    "direction_vectors_3p",
    "closed_frame",
    "hamiltonian",
    "closed_generators",
    "closed_generators_2p",
    "closed_generators_3p",
    "numeric_generators",
    "series_generators",
]


class ModelKind(Enum):
    """Which unitary family is being estimated."""

    TWO_PARAM = "two"
    THREE_PARAM = "three"

    @property
    def n_params(self) -> int:
        return 2 if self is ModelKind.TWO_PARAM else 3

    @property
    def labels(self) -> tuple[str, ...]:
        return ("B", "theta") if self is ModelKind.TWO_PARAM else ("B", "theta", "phi")


@dataclass(frozen=True)
class ModelPoint:
    """One point in parameter space plus the evolution time.

    ``phi`` must be present exactly for the three-parameter family; every
    value must be finite and the evolution time ``t`` positive.
    """

    b: float
    theta: float
    t: float
    phi: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b, self.theta, self.t, self.phi or 0.0))):
            raise InvalidInput(f"model point must be finite, got {self!r}")
        if not self.t > 0:
            raise InvalidInput(f"evolution time must be positive, got {self.t!r}")

    @property
    def n_params(self) -> int:
        return 2 if self.phi is None else 3

    def values(self) -> np.ndarray:
        """Parameter values in the fixed ordering."""
        if self.phi is None:
            return np.array([self.b, self.theta])
        return np.array([self.b, self.theta, self.phi])


def _check_phi(kind: ModelKind, phi) -> None:
    if (phi is None) != (kind is ModelKind.TWO_PARAM):
        raise InvalidInput(
            f"{kind.value}-parameter model needs phi "
            f"{'absent' if kind is ModelKind.TWO_PARAM else 'present'}, got phi={phi!r}"
        )


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered Hermitian generators, one per estimated parameter.

    ``matrices`` has shape (d, N, N) in the fixed ``(B, theta[, phi])``
    ordering.  ``herm_residuals`` is populated only by the finite-difference
    route and records the Hermitization residual per parameter.
    """

    labels: tuple[str, ...]
    matrices: np.ndarray
    herm_residuals: tuple[float, ...] | None = None

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[0] != len(self.labels) or m.shape[1] != m.shape[2]:
            raise InvalidInput(f"generator stack has shape {m.shape}, labels {self.labels}")
        herm_gap = np.abs(m - m.conj().transpose(0, 2, 1)).max(initial=0.0)
        if herm_gap > 1e-10 * max(np.abs(m).max(initial=0.0), 1.0):
            raise InvalidInput(f"generators must be Hermitian (residual {herm_gap:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrices", m)

    @property
    def n_params(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __iter__(self):
        return iter(self.matrices)


def _vectors(shape, rows) -> np.ndarray:
    # (*shape, len(rows), 3) array from rows of three components that
    # broadcast to shape.  Filling in place keeps a scalar call cheap.
    out = np.empty(shape + (len(rows), 3))
    for i, row in enumerate(rows):
        for k, c in enumerate(row):
            out[..., i, k] = c
    return out


def _directions_2p(b, theta, t) -> np.ndarray:
    # Rows n_theta, n_theta_prime, n1, n2, broadcast over b and theta.
    half = np.multiply(b, t / 2)
    ch, sh, ct, st = np.cos(half), np.sin(half), np.cos(theta), np.sin(theta)
    return _vectors(
        np.broadcast(b, theta).shape,
        [(ct, 0.0, st), (-st, 0.0, ct), (ch * st, -sh, -ch * ct), (sh * st, ch, -sh * ct)],
    )


def _directions_3p(b, theta, t, phi) -> np.ndarray:
    # Rows n_theta, n1, n2, broadcast over b, theta and phi.
    half = np.multiply(b, t / 2)
    ch, sh, ct, st = np.cos(half), np.sin(half), np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return _vectors(
        np.broadcast(b, theta, phi).shape,
        [
            (ct * cp, ct * sp, st),
            (sh * sp + ch * st * cp, -sh * cp + ch * st * sp, -ch * ct),
            (ch * sp - sh * st * cp, -ch * cp - sh * st * sp, sh * ct),
        ],
    )


def direction_vectors_2p(point: ModelPoint):
    """Unit direction vectors of the two-parameter model.

    Returns ``(n_theta, n_theta_prime, n1, n2)`` where ``n_theta`` is the
    field direction, ``n_theta_prime`` its theta-derivative, and ``n1``,
    ``n2`` span the plane the theta-generator rotates in; ``n2`` equals
    ``n_theta x n1`` identically.
    """
    return tuple(_directions_2p(point.b, point.theta, point.t))


def direction_vectors_3p(point: ModelPoint):
    """Unit direction vectors of the three-parameter model.

    Returns ``(n_theta, n1, n2)``: the field direction and the two
    rotating-frame directions attached to the theta and phi generators.
    The triple is orthonormal with ``n_theta x n2 = n1``.
    """
    return tuple(_directions_3p(point.b, point.theta, point.t, point.phi))


def closed_frame(kind: ModelKind, b, theta, t: float, phi=None) -> np.ndarray:
    """Frame ``A`` of the closed-form generators, ``G_l = A[..., l, :] . J``.

    Two parameters: ``G_B = -t J_{n_theta}`` and
    ``G_theta = 2 sin(Bt/2) J_{n1}``.  Three parameters add
    ``G_phi = 2 sin(Bt/2) cos(theta) J_{n2}``; the cos(theta) factor is
    required, since at theta = pi/2 the Hamiltonian is independent of phi,
    so its generator must vanish there.  All three forms are checked
    against the series and finite-difference routes in the tests.

    ``b`` and ``theta`` (and ``phi``) broadcast against each other, so a
    scalar point is a batch of one; the result has shape ``(..., d, 3)``.
    ``phi`` must be given exactly for the three-parameter model.
    """
    _check_phi(kind, phi)
    if not t > 0:
        raise InvalidInput(f"evolution time must be positive, got {t!r}")
    sh = np.sin(np.multiply(b, t / 2))
    if kind is ModelKind.TWO_PARAM:
        frame = _directions_2p(b, theta, t)[..., [0, 2], :]  # n_theta, n1
        prefactors = (-t, 2 * sh)
    else:
        frame = _directions_3p(b, theta, t, phi)
        prefactors = (-t, 2 * sh, 2 * sh * np.cos(theta))
    for l, pref in enumerate(prefactors):
        frame[..., l, :] *= np.asarray(pref)[..., None]
    return frame


def _field_hamiltonians(rep: SpinRep, kind: ModelKind, b, theta, t: float, phi=None):
    # B n . J over the broadcast leading axes of b, theta (and phi): (..., N, N).
    _check_phi(kind, phi)
    if kind is ModelKind.TWO_PARAM:
        n = _directions_2p(b, theta, t)[..., 0, :]
    else:
        n = _directions_3p(b, theta, t, phi)[..., 0, :]
    return np.asarray(b)[..., None, None] * j_direction(rep, n)


def hamiltonian(rep: SpinRep, kind: ModelKind, point: ModelPoint) -> np.ndarray:
    """Field Hamiltonian ``B * n . J`` at the given point."""
    return _field_hamiltonians(rep, kind, point.b, point.theta, point.t, point.phi)


def closed_generators_2p(rep: SpinRep, point: ModelPoint) -> GeneratorSet:
    """Closed-form generators of the two-parameter model (see :func:`closed_frame`)."""
    if point.n_params != 2:
        raise InvalidInput("closed_generators_2p needs a two-parameter point")
    return closed_generators(rep, ModelKind.TWO_PARAM, point)


def closed_generators_3p(rep: SpinRep, point: ModelPoint) -> GeneratorSet:
    """Closed-form generators of the three-parameter model (see :func:`closed_frame`)."""
    if point.n_params != 3:
        raise InvalidInput("closed_generators_3p needs a three-parameter point")
    return closed_generators(rep, ModelKind.THREE_PARAM, point)


def closed_generators(rep: SpinRep, kind: ModelKind, point: ModelPoint) -> GeneratorSet:
    """Dense closed-form generators ``G_l = a_l . J`` from :func:`closed_frame`."""
    frame = closed_frame(kind, point.b, point.theta, point.t, point.phi)
    jvec = np.stack([rep.jx, rep.jy, rep.jz])
    return GeneratorSet(labels=kind.labels, matrices=np.tensordot(frame, jvec, axes=1))


def _fd_steps(values: np.ndarray, step: float) -> np.ndarray:
    # Per-parameter step h = step * max(1, |lambda_l|): balances truncation
    # against roundoff for double precision at step ~ 1e-5.
    return step * np.maximum(1.0, np.abs(values))


def numeric_generators(
    rep: SpinRep, kind: ModelKind, point: ModelPoint, step: float = 1e-5
) -> GeneratorSet:
    """Generators by central finite differences of the evolution unitary.

    For each parameter, ``d_l U^dag`` is approximated with a central
    difference, then ``G_l = 1j (d_l U^dag) U`` is explicitly Hermitized as
    ``(A + A^dag)/2``.  The unitaries at the ``2d + 1`` points ``lambda``
    and ``lambda +- h_l`` are exponentiated as one stack.  The Hermitization
    residual is recorded on the returned set; a residual above 1e-4 raises
    :class:`StepInstability`, naming the first parameter that exceeds it.
    """
    _check_phi(kind, point.phi)
    if not step > 0:
        raise InvalidInput("finite-difference step must be positive")
    values = point.values()
    steps = _fd_steps(values, step)
    d = values.size
    # Rows: lambda, then lambda + h_l for each l, then lambda - h_l.
    pts = np.concatenate([values[None], values + np.diag(steps), values - np.diag(steps)])
    b, theta, *phi = pts.T
    u = expm_i(_field_hamiltonians(rep, kind, b, theta, point.t, *phi), point.t)
    u_dag = np.swapaxes(u.conj(), -1, -2)
    du_dag = (u_dag[1 : d + 1] - u_dag[d + 1 :]) / (2 * steps)[:, None, None]
    raw = 1j * du_dag @ u[0]
    raw_dag = np.swapaxes(raw.conj(), -1, -2)
    resids = np.linalg.norm(raw - raw_dag, axis=(-2, -1)) / (
        2 * np.maximum(np.linalg.norm(raw, axis=(-2, -1)), 1.0)
    )
    unstable = np.flatnonzero(resids > 1e-4)
    if unstable.size:
        l = unstable[0]
        raise StepInstability(
            f"finite-difference generator for {kind.labels[l]} is not Hermitian "
            f"(residual {resids[l]:.3e}); adjust the step"
        )
    return GeneratorSet(
        labels=kind.labels, matrices=(raw + raw_dag) / 2, herm_residuals=tuple(resids.tolist())
    )


def _hamiltonian_derivatives(rep: SpinRep, kind: ModelKind, point: ModelPoint) -> np.ndarray:
    # Stack (d, N, N) of d_l H = c_l (m_l . J): unit directions m_l, prefactors c_l.
    b, theta = point.b, point.theta
    if kind is ModelKind.TWO_PARAM:
        dirs = _directions_2p(b, theta, point.t)[:2]  # n_theta, n_theta_prime
        prefactors = np.array([1.0, b])
    else:
        ct, st = np.cos(theta), np.sin(theta)
        cp, sp = np.cos(point.phi), np.sin(point.phi)
        dirs = np.array(
            [
                _directions_3p(b, theta, point.t, point.phi)[0],
                [-st * cp, -st * sp, ct],
                [-sp, cp, 0.0],
            ]
        )
        prefactors = np.array([1.0, b, b * ct])
    return prefactors[:, None, None] * j_direction(rep, dirs)


def series_generators(rep: SpinRep, kind: ModelKind, point: ModelPoint) -> GeneratorSet:
    """Generators from the nested-commutator series, summed exactly.

    ``G_l = 1j * sum_n f_n ad_H^n(d_l H)`` with
    ``f_n = (1j t)^(n+1) / (n+1)!``.  In the eigenbasis ``H = V diag(E) V^dag``,
    ``ad_H`` multiplies entry ``(j, k)`` by ``w = E_j - E_k``, so the series
    sums to ``G_l = V [(V^dag d_l H V) o K] V^dag`` with the kernel
    ``K = (1 - e^{i t w}) / (1j w) = -t e^{i t w / 2} sinc(t w / 2)``, which
    is ``-t`` at ``w = 0`` (R. M. Wilcox, J. Math. Phys. 8, 962 (1967)).
    The route uses only ``H`` and ``d_l H``, so it stays independent of
    the closed frame and of finite differences.
    """
    _check_phi(kind, point.phi)
    e, v = np.linalg.eigh(hamiltonian(rep, kind, point))
    tw = point.t * (e[:, None] - e[None, :])
    kernel = -point.t * np.exp(0.5j * tw) * np.sinc(tw / (2 * np.pi))
    dh = _hamiltonian_derivatives(rep, kind, point)
    g = v @ ((v.conj().T @ dh @ v) * kernel) @ v.conj().T
    return GeneratorSet(labels=kind.labels, matrices=(g + g.conj().transpose(0, 2, 1)) / 2)
