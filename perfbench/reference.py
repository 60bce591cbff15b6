"""Fixed reference kernel, the yardstick for the host's speed of the moment.

On a shared host the same op runs up to twice as fast in one second as in
the next, and the host's speed drifts over minutes, so raw op times from
two runs of the same code differ by more than a regression worth catching.
The worker times this kernel between ops and reports each op's time as a
multiple of the kernel's time measured around it (unit ``ref``).  The
kernel does the kinds of work the ops do: small Hermitian eigensolves,
complex einsums over a stack of matrices, and float-to-text formatting.
It never calls ``spinmetro``, so a change to the library cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["timed"]

_rng = np.random.default_rng(20240311)


def _complex(*shape):
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


_HERMITIAN = [m + m.conj().T for m in _complex(16, 6, 6)]
_STACK = _complex(48, 3, 12, 12)


def _kernel() -> float:
    acc = 0.0
    cells = []
    for _ in range(6):
        for h in _HERMITIAN:
            w, v = np.linalg.eigh(h)
            acc += float(w[0]) + float(abs(v[0, 0]))
            cells.append(repr(acc))
    acc += float(np.einsum("gaij,gbji->gab", _STACK, _STACK).real.sum())
    return acc + len(",".join(cells))


def timed() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
