"""Parametric su(2) Hamiltonian families and their evolution generators.

Two unitary models are supported.  The two-parameter family is
``H = B (cos(theta) Jx + sin(theta) Jz)`` with unknowns ``(B, theta)``;
the three-parameter family tilts the field direction out of the xz-plane,
``H = B * n(theta, phi) . J`` with unknowns ``(B, theta, phi)``.  The probe
evolves as ``U = exp(-1j t H)``.  The two-parameter family is the
three-parameter one at ``phi = 0``: every two-parameter quantity is built
as the (B, theta) rows of the three-parameter construction there, so its
(Q, D) is the (B, theta) block of the three-parameter (Q, D) at ``phi = 0``.
Both models share one field frame ``(n_theta, n1, n2)``
(:func:`direction_vectors`), with one sign convention,
``n_theta x n2 = n1``.

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
and the other two act as oracles for them.  Every generator of both models
is an su(2) element ``a_l . J``, so two routes also have vector forms that
return the rows ``a_l`` and build no matrix: :func:`series_frame` applies
the series kernel to the 3-vectors of ``d_l H``, and :func:`numeric_frame`
takes complex-step derivatives of the spin-1/2 ``U``, an exact unit
quaternion.  Like the dense routes they use only the field direction,
``d_l H`` and ``U``, never the closed frame, so they stay independent
oracles for it; the report's route residuals come from them.  They take
one point and do their arithmetic in Python numbers, since on 3-vectors
and d <= 3 rows a numpy call costs more than the arithmetic it does; only
their returned arrays are numpy.  Python numbers ignore ``np.errstate``,
so both raise :class:`NumericalFailure` themselves where a phase
overflows.

Parameter ordering is fixed as ``(B, theta, phi)`` everywhere, and all
matrices built downstream (QFIM, Uhlmann) use this ordering.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .linalg import (SpinRep, expm_i, j_direction, require_broadcast, require_float,
                     require_floats, require_positive, require_symmetric)

__all__ = ["ModelPoint", "closed_frame", "numeric_frame", "series_frame"]


@dataclass(frozen=True)
class ModelPoint:
    """One point in parameter space plus the evolution time.

    The point carries the model: with no ``phi`` it is a point of the
    two-parameter family, with one a point of the three-parameter family.
    Every value must be a finite number (the rule of
    :func:`~spinmetro.linalg.require_float`) and the evolution time ``t``
    positive (:func:`~spinmetro.linalg.require_positive`); each is stored
    as the Python float those rules return.
    """

    b: float
    theta: float
    t: float
    phi: float | None = None

    def __post_init__(self):
        for name in ("b", "theta") + (() if self.phi is None else ("phi",)):
            value = require_float(getattr(self, name), f"model point {name}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "t", require_positive(self.t, "model point t", "evolution time"))

    @property
    def n_params(self) -> int:
        return 2 if self.phi is None else 3

    @property
    def labels(self) -> tuple[str, ...]:
        """Parameter names in the fixed ordering."""
        return ("B", "theta", "phi")[: self.n_params]

    def values(self) -> np.ndarray:
        """Parameter values in the fixed ordering."""
        return np.array([self.b, self.theta, self.phi][: self.n_params])


def require_point(point) -> ModelPoint:
    """Return ``point``, raising :class:`InvalidInput` unless it is a
    :class:`ModelPoint`."""
    if not isinstance(point, ModelPoint):
        raise InvalidInput(f"model point must be a ModelPoint, got {point!r}")
    return point


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered Hermitian generators, one per estimated parameter.

    ``matrices`` has shape (d, N, N) in the fixed ``(B, theta[, phi])``
    ordering.  ``herm_residuals`` is populated only by the finite-difference
    route and records the Hermitization residual per parameter.  A
    generator that is not Hermitian (the rule of
    :func:`~spinmetro.linalg.require_symmetric`) raises :class:`InvalidInput`.
    """

    labels: tuple[str, ...]
    matrices: np.ndarray
    herm_residuals: tuple[float, ...] | None = None

    def __post_init__(self):
        m = require_symmetric(self.matrices, name="generator")
        if m.ndim != 3 or m.shape[0] != len(self.labels):
            raise InvalidInput(f"generator stack has shape {m.shape}, labels {self.labels}")
        m = np.ascontiguousarray(m, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrices", m)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]


def _vectors(shape, rows) -> np.ndarray:
    # (*shape, len(rows), 3) array from rows of three components that
    # broadcast to shape.  Filling in place keeps a scalar call cheap.
    out = np.empty(shape + (len(rows), 3))
    for i, row in enumerate(rows):
        for k, c in enumerate(row):
            out[..., i, k] = c
    return out


def _half_phase(b, t: float):
    # B t / 2 for every route.  Below t = 1, where B t cannot overflow, the
    # product is halved: a subnormal t / 2 loses digits (same bits otherwise).
    return b * t / 2 if t < 1 else b * (t / 2)


def _directions(b, theta, t, phi, d=None) -> np.ndarray:
    # Rows n_theta, n1, n2 of the three-parameter model, broadcast over b,
    # theta and phi.  The two-parameter model takes its rows at phi = 0.
    # With d, the first d rows of the closed frame instead: each row times
    # its scale, -t, 2 sin(Bt/2) and 2 sin(Bt/2) cos(theta).
    half = _half_phase(b, t)
    ch, sh, ct, st = np.cos(half), np.sin(half), np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rows = [
        (ct * cp, ct * sp, st),
        (sh * sp + ch * st * cp, -sh * cp + ch * st * sp, -ch * ct),
        (ch * sp - sh * st * cp, -ch * cp - sh * st * sp, sh * ct),
    ]
    if d is not None:
        scales = (-t, 2 * sh, 2 * sh * ct)[:d]
        rows = [[c * scale for c in row] for row, scale in zip(rows, scales)]
    return _vectors(np.broadcast(b, theta, phi).shape, rows)


def direction_vectors(point: ModelPoint):
    """Unit direction vectors ``(n_theta, n1, n2)`` of the point's model.

    ``n_theta`` is the field direction, and ``n1`` and ``n2`` are the
    rotating-frame directions of the theta and phi generators.  The triple
    is orthonormal with ``n_theta x n2 = n1``, one sign convention for both
    models: a two-parameter point takes the three-parameter rows at
    phi = 0, where its theta generator rotates in the plane of ``n1`` and
    ``n2``.
    """
    point = require_point(point)
    return tuple(_directions(point.b, point.theta, point.t,
                             0.0 if point.phi is None else point.phi))


def closed_frame(b, theta, t: float, phi=None) -> np.ndarray:
    """Frame ``A`` of the closed-form generators, ``G_l = A[..., l, :] . J``.

    Two parameters: ``G_B = -t J_{n_theta}`` and
    ``G_theta = 2 sin(Bt/2) J_{n1}``.  Three parameters add
    ``G_phi = 2 sin(Bt/2) cos(theta) J_{n2}``; the cos(theta) factor is
    required, since at theta = pi/2 the Hamiltonian is independent of phi,
    so its generator must vanish there.  All three forms are checked
    against the series and finite-difference routes in the tests.

    The model is that of a point with this ``phi``: two parameters with
    none, three with one.  The two-parameter frame is the first two rows
    of the three-parameter frame at phi = 0.  ``b`` and ``theta`` (and
    ``phi``) broadcast against each other (the rule of
    :func:`~spinmetro.linalg.require_broadcast`), so a scalar point is a
    batch of one; the result has shape ``(..., d, 3)``.  ``t`` is held to
    :func:`~spinmetro.linalg.require_positive` and the angles and field to
    :func:`~spinmetro.linalg.require_floats`.
    """
    d = 2 if phi is None else 3
    t = require_positive(t, "evolution time")
    b, theta = require_floats(b, "field strength"), require_floats(theta, "field angle")
    phi = 0.0 if phi is None else require_floats(phi, "field azimuth")
    require_broadcast("field strength, angle and azimuth", b, theta, phi)
    return _directions(b, theta, t, phi, d)


def _field_hamiltonians(rep: SpinRep, b, theta, t: float, phi=None):
    # B n . J over the broadcast leading axes of b, theta (and phi): (..., N, N).
    n = _directions(b, theta, t, 0.0 if phi is None else phi)[..., 0, :]
    return np.asarray(b)[..., None, None] * j_direction(rep, n)


def hamiltonian(rep: SpinRep, point: ModelPoint) -> np.ndarray:
    """Field Hamiltonian ``B * n . J`` at the given point."""
    point = require_point(point)
    return _field_hamiltonians(rep, point.b, point.theta, point.t, point.phi)


def closed_generators(rep: SpinRep, point: ModelPoint) -> GeneratorSet:
    """Dense closed-form generators ``G_l = a_l . J`` from :func:`closed_frame`."""
    point = require_point(point)
    frame = closed_frame(point.b, point.theta, point.t, point.phi)
    jvec = np.stack([rep.jx, rep.jy, rep.jz])
    return GeneratorSet(labels=point.labels, matrices=np.tensordot(frame, jvec, axes=1))


def numeric_generators(rep: SpinRep, point: ModelPoint, step: float = 1e-5) -> GeneratorSet:
    """Generators by central finite differences of the evolution unitary.

    For each parameter, ``d_l U^dag`` is approximated with a central
    difference over the unitaries at ``lambda +- h_l``, with
    ``h_l = step * max(1, |lambda_l|)``, then ``G_l = 1j (d_l U^dag) U`` is
    explicitly Hermitized as ``(A + A^dag)/2``.  The Hermitization residual
    is recorded on the returned set; a residual above 1e-4 raises
    :class:`NumericalFailure`, naming the first parameter that exceeds it.
    ``step`` is held to :func:`~spinmetro.linalg.require_positive`.
    """
    point = require_point(point)
    step = require_positive(step, "finite-difference step")
    values = point.values()

    def unitary(at):
        b, theta, *phi = at
        return expm_i(_field_hamiltonians(rep, b, theta, point.t, *phi), point.t)

    u = unitary(values)
    mats, resids = [], []
    for l, value in enumerate(values):
        h = step * max(1.0, abs(value))
        plus, minus = values.copy(), values.copy()
        plus[l] += h
        minus[l] -= h
        raw = 1j * ((unitary(plus) - unitary(minus)).conj().T / (2 * h)) @ u
        raw_dag = raw.conj().T
        resids.append(float(np.linalg.norm(raw - raw_dag) / (2 * max(np.linalg.norm(raw), 1.0))))
        mats.append((raw + raw_dag) / 2)
    for label, resid in zip(point.labels, resids):
        if resid > 1e-4:
            raise NumericalFailure(
                f"finite-difference generator for {label} is not Hermitian "
                f"(residual {resid:.3e}); adjust the step"
            )
    return GeneratorSet(labels=point.labels, matrices=np.stack(mats), herm_residuals=tuple(resids))


_SQRT_HALF = math.sqrt(0.5)


def _quaternion(half: complex, theta: complex, phi: complex) -> tuple[complex, ...]:
    # The spin-1/2 U = w - 1j x . sigma at phase half = B t / 2, as (w, x),
    # continued to complex arguments.  cmath raises ValueError on an
    # infinite argument, which here can only come from a phase that overflowed.
    try:
        sh = cmath.sin(half)
        sh_ct = sh * cmath.cos(theta)
        return cmath.cos(half), sh_ct * cmath.cos(phi), sh_ct * cmath.sin(phi), sh * cmath.sin(theta)
    except ValueError:
        raise NumericalFailure(f"complex-step route: phase B t / 2 overflows ({half!r})") from None


def numeric_frame(point: ModelPoint):
    """Frame ``G_l = A[l] . J`` by complex-step derivatives of the spin-1/2 unitary.

    In spin-1/2, ``U = w - 1j x . sigma`` is the unit quaternion
    ``w = cos(Bt/2)``, ``x = sin(Bt/2) n`` with no eigensolver.  It is
    analytic in each parameter, so evaluated with ``cmath`` at the point
    shifted by ``1j h_l`` along parameter ``l`` it gives ``Re q = U`` and
    ``Im q / h_l = d_l U`` to ``O(h_l^2)``, with no difference taken
    (J. N. Lyness and C. B. Moler, SIAM J. Numer. Anal. 4, 202 (1967)).
    The steps are exact powers of two: ``2**-50`` for the angles, and for
    ``B`` the one that makes ``h_B t`` about ``2**-50``, so that ``h^2``
    terms lie far below rounding at every ``t`` and no step underflows.
    The derivative gives ``d_l U^dag = dw + 1j dx . sigma``, and the
    quaternion product ``1j (d_l U^dag) U = 1j s - c . sigma`` has
    ``s = w dw + x . dx`` and ``c = w dx - dw x + dx x x``.  Its Hermitian
    part is the generator, ``a_l = -2 c`` since ``J = sigma / 2``.  The
    scalar part ``s`` vanishes for an exact derivative, so the residual
    ``|s| / max(|(s, c)|, 1 / sqrt(2))`` stays at rounding level; it is the
    Hermitization residual that :func:`numeric_generators` measures in
    spin-1/2.

    The route works in Python complex numbers, one parameter at a time, and
    uses only the field direction and ``U``, never the closed frame.  A
    phase ``B t / 2`` that overflows raises :class:`NumericalFailure`.

    Returns ``(frame, residuals)``: the ``(d, 3)`` rows ``a_l`` and the
    ``(d,)`` residuals.
    """
    point = require_point(point)
    base = (point.b, point.theta, 0.0 if point.phi is None else point.phi)
    steps = (math.ldexp(1.0, -50 - math.frexp(point.t)[1]), 2.0**-50, 2.0**-50)
    rows, resids = [], []
    for l in range(point.n_params):
        h = steps[l]
        at = list(base)
        at[l] = complex(base[l], h)
        qw, q1, q2, q3 = _quaternion(_half_phase(at[0], point.t), at[1], at[2])
        w, x1, x2, x3 = qw.real, q1.real, q2.real, q3.real
        dw, d1, d2, d3 = qw.imag / h, q1.imag / h, q2.imag / h, q3.imag / h
        # (s, c) is the quaternion product of (dw, dx) with U = (w, x)
        s = w * dw + x1 * d1 + x2 * d2 + x3 * d3
        c1 = -x1 * dw + w * d1 + x3 * d2 - x2 * d3
        c2 = -x2 * dw - x3 * d1 + w * d2 + x1 * d3
        c3 = -x3 * dw + x2 * d1 - x1 * d2 + w * d3
        rows.append((-2 * c1, -2 * c2, -2 * c3))
        resids.append(abs(s) / max(math.hypot(s, c1, c2, c3), _SQRT_HALF))
    return np.array(rows), np.array(resids)


def _derivative_directions(point: ModelPoint):
    # d_l H = c_l (m_l . J): the d unit directions m_l, three floats each,
    # and the d prefactors c_l.  Rows n_theta, d_theta n and
    # d_phi n / cos(theta), the first d kept.
    d = point.n_params
    b, theta = point.b, point.theta
    phi = 0.0 if point.phi is None else point.phi
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    dirs = [(ct * cp, ct * sp, st), (-st * cp, -st * sp, ct), (-sp, cp, 0.0)][:d]
    return dirs, [1.0, b, b * ct][:d]


def _hamiltonian_derivatives(rep: SpinRep, point: ModelPoint) -> np.ndarray:
    # Stack (d, N, N) of d_l H = c_l (m_l . J).
    dirs, prefactors = _derivative_directions(point)
    return np.array(prefactors)[:, None, None] * j_direction(rep, np.array(dirs))


def series_generators(rep: SpinRep, point: ModelPoint) -> GeneratorSet:
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
    e, v = np.linalg.eigh(hamiltonian(rep, point))
    tw = point.t * (e[:, None] - e[None, :])
    kernel = -point.t * np.exp(0.5j * tw) * np.sinc(tw / (2 * np.pi))
    dh = _hamiltonian_derivatives(rep, point)
    g = v @ ((v.conj().T @ dh @ v) * kernel) @ v.conj().T
    return GeneratorSet(labels=point.labels, matrices=(g + g.conj().transpose(0, 2, 1)) / 2)


def _sinc(x: float) -> float:
    # sin(x) / x, exactly 1 at x = 0.
    return math.sin(x) / x if x else 1.0


def series_frame(point: ModelPoint) -> np.ndarray:
    """Frame of :func:`series_generators`, ``G_l = A[l] . J``, with no matrix.

    With ``H = B n . J`` and ``d_l H = v_l . J``, the commutator with ``H``
    rotates ``v_l`` about ``n``, so the series sums to the Wilcox kernel
    acting on the 3-vector ``v_l``:
    ``a_l = -t v_par - (sin(tB) / B) v_perp + ((1 - cos(tB)) / B) n x v_perp``,
    with ``v_par = (v_l . n) n`` and ``v_perp = v_l - v_par``.  The two
    coefficients are taken as ``t sinc(tB)`` and ``t sin(tB/2) sinc(tB/2)``,
    so ``B = 0`` is exact.  The route uses only ``n`` and ``d_l H``.

    The kernel acts in Python floats on each unit direction ``m_l`` of
    ``d_l H = c_l m_l . J``, and ``-t c_l`` scales the result.  A ``tB``
    that overflows raises :class:`NumericalFailure`.  Returns the ``(d, 3)``
    rows.
    """
    dirs, prefactors = _derivative_directions(require_point(point))
    x = point.b * point.t
    if not math.isfinite(x):
        raise NumericalFailure(f"series route: B t overflows at {point!r}")
    s, c = _sinc(x), math.sin(x / 2) * _sinc(x / 2)
    n1, n2, n3 = dirs[0]
    rows = []
    for (m1, m2, m3), prefactor in zip(dirs, prefactors):
        along = n1 * m1 + n2 * m2 + n3 * m3
        # K m = (m . n) n + s (m - (m . n) n) - c n x m
        k1 = along * n1 + s * (m1 - along * n1) - c * (n2 * m3 - n3 * m2)
        k2 = along * n2 + s * (m2 - along * n2) - c * (n3 * m1 - n1 * m3)
        k3 = along * n3 + s * (m3 - along * n3) - c * (n1 * m2 - n2 * m1)
        scale = -point.t * prefactor
        rows.append((scale * k1, scale * k2, scale * k3))
    return np.array(rows)
