"""Shared helpers for the spinmetro test suite."""

import functools

import numpy as np
import pytest

from spinmetro import ModelKind, ModelPoint, build_spin_rep, expm_i, hamiltonian


@functools.lru_cache(maxsize=None)
def rep(n):
    return build_spin_rep(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def haar_state(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2


def ai_two_param(q, d):
    """Two-parameter incompatibility ``sqrt(det D / det Q)``, or ``None``
    when ``det Q <= 0``: an oracle for R that needs no eigensolver."""
    det_q = float(np.linalg.det(q))
    if det_q <= 0:
        return None
    return float(np.sqrt(max(float(np.linalg.det(d)), 0.0) / det_q))


def evolved_family(spin, kind, point, probe):
    """Map parameter values to the evolved pure state of the model."""

    def family(values):
        pt = point.replace_values(values)
        return expm_i(hamiltonian(spin, kind, pt), pt.t) @ probe

    return family


def two_param_points():
    """A small sample of regular two-parameter points, t = 5."""
    return [
        ModelPoint(b=0.9, theta=0.7, t=5.0),
        ModelPoint(b=0.45, theta=1.9, t=5.0),
        ModelPoint(b=1.1, theta=2.6, t=5.0),
    ]


def three_param_points():
    return [
        ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.1),
        ModelPoint(b=0.45, theta=2.2, t=5.0, phi=4.4),
        ModelPoint(b=1.1, theta=0.3, t=5.0, phi=2.8),
    ]


def points_for(kind):
    return two_param_points() if kind is ModelKind.TWO_PARAM else three_param_points()
