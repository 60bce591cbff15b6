"""Exception hierarchy shared by all spinmetro modules.

Two broad classes matter for callers: :class:`InvalidInput` covers bad
arguments and malformed configurations (the CLI maps these to exit code 2),
while :class:`NumericalFailure` covers runtime numerical-consistency
violations (exit code 1); it has no subclasses, and its message names the
check that failed.  Singular matrices are *not* errors anywhere in
this package; they are reported through flags or ``None`` returns.
"""


class SpinMetroError(Exception):
    """Base class for all errors raised by spinmetro."""


class InvalidInput(SpinMetroError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailure(SpinMetroError, RuntimeError):
    """A numerical consistency check failed at runtime."""
