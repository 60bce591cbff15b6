"""Parametric su(2) Hamiltonian families and their evolution generators.

Two unitary models are supported.  The two-parameter family is
``H = B (cos(theta) Jx + sin(theta) Jz)`` with unknowns ``(B, theta)``;
the three-parameter family tilts the field direction out of the xz-plane,
``H = B * n(theta, phi) . J`` with unknowns ``(B, theta, phi)``.  The probe
evolves as ``U = exp(-1j t H)``.  The two-parameter family is the
three-parameter one at ``phi = 0``: every two-parameter quantity is built
as the (B, theta) rows of the three-parameter construction there, so its
(Q, D) is the (B, theta) block of the three-parameter (Q, D) at ``phi = 0``.

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
is an su(2) element ``a_l . J``, so the series and finite-difference routes
also have vector forms that return their rows ``a_l`` and build no matrix:
:func:`series_frame` applies the series kernel to the 3-vectors of
``d_l H``, and :func:`numeric_frame` differences the spin-1/2 ``U``, an
exact unit quaternion.  Like the dense routes they use only the field
direction, ``d_l H`` and ``U``, never the closed frame, so they stay
independent oracles for it; the report's route residuals come from them.
They take one point and do their arithmetic in Python floats, since on
3-vectors and d <= 3 rows a numpy call costs more than the arithmetic it
does; only their returned arrays are numpy.  Python floats ignore
``np.errstate``, so both raise :class:`NumericalFailure` themselves where
a product or a shifted point overflows.

Parameter ordering is fixed as ``(B, theta, phi)`` everywhere, and all
matrices built downstream (QFIM, Uhlmann) use this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, StepInstability
from .linalg import (SpinRep, expm_i, j_direction, require_broadcast, require_float,
                     require_floats, require_hermitian, require_positive)

__all__ = [
    "ModelPoint",
    "GeneratorSet",
    "direction_vectors_2p",
    "direction_vectors_3p",
    "closed_frame",
    "hamiltonian",
    "closed_generators",
    "numeric_generators",
    "numeric_frame",
    "series_generators",
    "series_frame",
]


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


def require_point(point, n_params: int | None = None) -> ModelPoint:
    """Return ``point``, raising :class:`InvalidInput` unless it is a
    :class:`ModelPoint`, of the model with ``n_params`` parameters if given."""
    if not isinstance(point, ModelPoint):
        raise InvalidInput(f"model point must be a ModelPoint, got {point!r}")
    if n_params not in (None, point.n_params):
        need = "absent" if n_params == 2 else "present"
        raise InvalidInput(f"{n_params}-parameter model needs phi {need}, got phi={point.phi!r}")
    return point


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered Hermitian generators, one per estimated parameter.

    ``matrices`` has shape (d, N, N) in the fixed ``(B, theta[, phi])``
    ordering.  ``herm_residuals`` is populated only by the finite-difference
    route and records the Hermitization residual per parameter.  A
    generator that is not Hermitian to 1e-10 of its own norm (the rule of
    :func:`~spinmetro.linalg.require_hermitian`) raises :class:`InvalidInput`.
    """

    labels: tuple[str, ...]
    matrices: np.ndarray
    herm_residuals: tuple[float, ...] | None = None

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[0] != len(self.labels) or m.shape[1] != m.shape[2]:
            raise InvalidInput(f"generator stack has shape {m.shape}, labels {self.labels}")
        require_hermitian(m, tol=1e-10, name="generator")
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


def _directions(b, theta, t, phi, scales=None) -> np.ndarray:
    # Rows n_theta, n1, n2 of the three-parameter model, broadcast over b,
    # theta and phi.  The two-parameter model takes its rows at phi = 0.
    # With scales, the first len(scales) rows, each times its scale.
    half = _half_phase(b, t)
    ch, sh, ct, st = np.cos(half), np.sin(half), np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rows = [
        (ct * cp, ct * sp, st),
        (sh * sp + ch * st * cp, -sh * cp + ch * st * sp, -ch * ct),
        (ch * sp - sh * st * cp, -ch * cp - sh * st * sp, sh * ct),
    ]
    if scales is not None:
        rows = [[c * scale for c in row] for row, scale in zip(rows, scales)]
    return _vectors(np.broadcast(b, theta, phi).shape, rows)


def direction_vectors_2p(point: ModelPoint):
    """Unit direction vectors of the two-parameter model.

    Returns ``(n_theta, n_theta_prime, n1, n2)`` where ``n_theta`` is the
    field direction, ``n_theta_prime`` its theta-derivative, and ``n1``,
    ``n2`` span the plane the theta-generator rotates in; ``n2`` equals
    ``n_theta x n1`` identically.  They are the three-parameter rows at
    phi = 0, where the three-parameter ``n2`` is ``n1 x n_theta``.  A
    point with a ``phi`` raises :class:`InvalidInput`.
    """
    require_point(point, 2)
    n_theta, n1, n2 = _directions(point.b, point.theta, point.t, 0.0)
    return n_theta, np.array([-np.sin(point.theta), 0.0, np.cos(point.theta)]), n1, -n2


def direction_vectors_3p(point: ModelPoint):
    """Unit direction vectors of the three-parameter model.

    Returns ``(n_theta, n1, n2)``: the field direction and the two
    rotating-frame directions attached to the theta and phi generators.
    The triple is orthonormal with ``n_theta x n2 = n1``.  A point with
    no ``phi`` raises :class:`InvalidInput`.
    """
    require_point(point, 3)
    return tuple(_directions(point.b, point.theta, point.t, point.phi))


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
    sh = np.sin(_half_phase(b, t))
    return _directions(b, theta, t, phi, (-t, 2 * sh, 2 * sh * np.cos(theta))[:d])


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


def _fd_steps(point: ModelPoint, step: float) -> list[float]:
    # The steps h_l = step * max(1, |lambda_l|), which balance truncation
    # against roundoff at step ~ 1e-5, as Python floats in the order of
    # point.labels.
    point = require_point(point)
    step = require_positive(step, "finite-difference step")
    values = (point.b, point.theta, point.phi)[: point.n_params]
    return [step * max(1.0, abs(value)) for value in values]


def _fd_points(point: ModelPoint, step: float):
    # The steps h_l of _fd_steps and the columns (b, theta[, phi]) of the
    # points lambda, then lambda + h_l for each l, then lambda - h_l.
    steps, values = np.array(_fd_steps(point, step)), point.values()
    shift = np.zeros((steps.size, steps.size))
    shift.flat[:: steps.size + 1] = steps
    return steps, np.concatenate([values[None], values + shift, values - shift]).T


def numeric_generators(rep: SpinRep, point: ModelPoint, step: float = 1e-5) -> GeneratorSet:
    """Generators by central finite differences of the evolution unitary.

    For each parameter, ``d_l U^dag`` is approximated with a central
    difference, then ``G_l = 1j (d_l U^dag) U`` is explicitly Hermitized as
    ``(A + A^dag)/2``.  The unitaries at the ``2d + 1`` points ``lambda``
    and ``lambda +- h_l`` are exponentiated as one stack.  The Hermitization
    residual is recorded on the returned set; a residual above 1e-4 raises
    :class:`StepInstability`, naming the first parameter that exceeds it.
    ``step`` is held to :func:`~spinmetro.linalg.require_positive`.
    """
    steps, (b, theta, *phi) = _fd_points(point, step)
    d = steps.size
    u = expm_i(_field_hamiltonians(rep, b, theta, point.t, *phi), point.t)
    u_dag = np.swapaxes(u.conj(), -1, -2)
    du_dag = (u_dag[1 : d + 1] - u_dag[d + 1 :]) / (2 * steps)[:, None, None]
    raw = 1j * du_dag @ u[0]
    raw_dag = np.swapaxes(raw.conj(), -1, -2)
    resids = np.linalg.norm(raw - raw_dag, axis=(-2, -1)) / (
        2 * np.maximum(np.linalg.norm(raw, axis=(-2, -1)), 1.0)
    )
    _raise_if_unstable(point.labels, resids)
    return GeneratorSet(
        labels=point.labels, matrices=(raw + raw_dag) / 2, herm_residuals=tuple(resids.tolist())
    )


def _raise_if_unstable(labels: tuple[str, ...], resids) -> None:
    for label, resid in zip(labels, resids):
        if resid > 1e-4:
            raise StepInstability(
                f"finite-difference generator for {label} is not Hermitian "
                f"(residual {resid:.3e}); adjust the step"
            )


_SQRT_HALF = math.sqrt(0.5)


def _quaternion(half: float, theta: float, phi: float) -> tuple[float, float, float, float]:
    # The spin-1/2 U = w - 1j x . sigma at phase half = B t / 2, as (w, x).
    # math raises ValueError on an infinite argument, which here can only
    # come from a phase or a shifted point that overflowed.
    try:
        sh = math.sin(half)
        sh_ct = sh * math.cos(theta)
        return math.cos(half), sh_ct * math.cos(phi), sh_ct * math.sin(phi), sh * math.sin(theta)
    except ValueError:
        raise NumericalFailure(
            f"finite-difference point overflows: phase {half!r}, angles {theta!r}, {phi!r}"
        ) from None


def numeric_frame(point: ModelPoint, step: float = 1e-5):
    """Frame of :func:`numeric_generators`, from the exact spin-1/2 unitary.

    In spin-1/2, ``U = w - 1j x . sigma`` is the unit quaternion
    ``w = cos(Bt/2)``, ``x = sin(Bt/2) n`` with no eigensolver.  Its central
    differences at the ``2d + 1`` points ``lambda`` and ``lambda +- h_l``,
    with ``h_l = step * max(1, |lambda_l|)``, give
    ``d_l U^dag = dw + 1j dx . sigma``, and the quaternion product
    ``1j (d_l U^dag) U = 1j s - c . sigma`` has ``s = w dw + x . dx`` and
    ``c = w dx - dw x + dx x x``.  Its Hermitian part is the generator,
    ``a_l = -2 c`` since ``J = sigma / 2``.  The scalar part ``s`` vanishes
    for an exact derivative; it gives the Hermitization residual that
    :func:`numeric_generators` measures in spin-1/2,
    ``|s| / max(|(s, c)|, 1 / sqrt(2))``.  A residual above 1e-4 raises
    :class:`StepInstability`, naming the first parameter that exceeds it.
    ``step`` is held to :func:`~spinmetro.linalg.require_positive`.

    The route works in Python floats, one parameter at a time.  A step, a
    shifted point, a phase or a norm that overflows raises
    :class:`NumericalFailure`.

    Returns ``(frame, residuals)``: the ``(d, 3)`` rows ``a_l`` and the
    ``(d,)`` residuals.
    """
    steps = _fd_steps(point, step)
    base = [point.b, point.theta, 0.0 if point.phi is None else point.phi]
    w, x1, x2, x3 = _quaternion(_half_phase(base[0], point.t), base[1], base[2])
    rows, resids = [], []
    for l, (label, h) in enumerate(zip(point.labels, steps)):
        plus, minus = base.copy(), base.copy()
        plus[l] += h
        minus[l] -= h
        pw, p1, p2, p3 = _quaternion(_half_phase(plus[0], point.t), plus[1], plus[2])
        mw, m1, m2, m3 = _quaternion(_half_phase(minus[0], point.t), minus[1], minus[2])
        two_h = 2 * h
        dw, d1, d2, d3 = (pw - mw) / two_h, (p1 - m1) / two_h, (p2 - m2) / two_h, (p3 - m3) / two_h
        # (s, c) is the quaternion product of (dw, dx) with U = (w, x)
        s = w * dw + x1 * d1 + x2 * d2 + x3 * d3
        c1 = -x1 * dw + w * d1 + x3 * d2 - x2 * d3
        c2 = -x2 * dw - x3 * d1 + w * d2 + x1 * d3
        c3 = -x3 * dw + x2 * d1 - x1 * d2 + w * d3
        norm = math.sqrt(s * s + c1 * c1 + c2 * c2 + c3 * c3)
        if not (math.isfinite(norm) and math.isfinite(two_h)):
            raise NumericalFailure(
                f"finite-difference generator for {label} overflows (step {step!r})")
        rows.append((-2 * c1, -2 * c2, -2 * c3))
        resids.append(abs(s) / max(norm, _SQRT_HALF))
    _raise_if_unstable(point.labels, resids)
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
