"""Experiment drivers: grid scans, scaling tables, rank experiments, reports.

Everything here is deterministic given its configuration.  Scans, scaling
tables and reports take (Q, D) from the probe's spin moments through the
N-independent frame kernel, with no N x N matrix; the dense generator route
matches it to rounding (the tests pin this).  The rank experiment draws its
trials in order from one generator seeded by its configuration, so a run's
draws are a prefix of any longer run's.  A scaling table fits every
alpha's log-log slope in one centered least-squares pass, each row summed
on its own, so a slope does not depend on the other alphas.  Both CSV
outputs are grids, written by one grid writer that lays out the whole body
once, as text the axis values and the values of a column that holds one
value per outer axis value (a scaling table's slope, one per alpha), and
then formats every other value with one ``%``: '.' decimals, ','
delimiters, a header row and 17 significant digits, so repeated runs are
bytewise identical.
A missing value marks a singular QFIM and nothing else.  Every result
object holds it as NaN (:func:`~spinmetro.metrology.bounds`,
:class:`ScanResult`, :class:`ScalingResult`); only the JSON report dicts
hold ``None``, written ``null``.  In a CSV file it is an empty field: a singular scan cell's R,
Delta and T, and the Gamma and slope of an alpha with a singular baseline.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .encoding import ModelPoint, closed_frame, numeric_frame, require_point, series_frame
from .errors import InvalidInput, NumericalFailure
from .linalg import (eigh_inverse, require_float, require_floats, require_int,
                     require_positive, spin_moments)
from .metrology import _report_fields, bounds, classical_fim, frame_qfim_uhlmann
from .models import MAX_DIM, ProbeSpec, extreme_moments

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_TABLE_PROBES",
    "MAX_RANK_PARAMS",
    "MAX_RANK_OUTCOMES",
    "ScanConfig",
    "ScanResult",
    "run_scan",
    "ScalingResult",
    "scaling_table",
    "RankExperimentConfig",
    "fim_rank_experiment",
    "metrics_report",
    "write_json",
]

TWO_PI = 2 * np.pi


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, the one place the library opens a file.

    An existing file is overwritten in place and then cut to the length of
    ``text``; the write is not atomic and not synced.  Opening without
    ``O_TRUNC`` keeps ext4 from flushing the file on close, a flush the next
    overwrite of it would wait for.  Only a regular file is cut, so a
    character device such as ``/dev/null`` or a pipe works as a path too.
    The text is written as UTF-8 by ``os.write``, repeated on a short write.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_csv(path, header, outer, inner, columns, outer_columns=()) -> None:
    """Write a grid: one row per (outer, inner) pair of axis values, outer-major.

    A row holds its outer and inner axis values, then one value from each
    of ``columns``, each of which holds ``len(outer) * len(inner)`` values
    in row order, and last one value from each of ``outer_columns``, each
    of which holds one value per outer axis value, the same on every row of
    its block.
    Floats get 17 significant digits and NaN an empty field; a boolean
    column is written as 1/0.  The layout of the whole body is built once,
    each axis value and each ``outer_columns`` value formatted into it as
    text, so that one ``%`` format then writes every value of ``columns``.
    ``%.17g`` writes a NaN as ``nan`` and no other value with those letters,
    so one replace on the body empties the NaN fields, axis fields included.
    """

    def field(values: np.ndarray) -> str:
        return "%d" if values.dtype == bool else "%.17g"

    def texts(values) -> list[str]:
        values = np.asarray(values)
        return list(map(field(values).__mod__, values.tolist()))

    columns = [np.asarray(column).ravel() for column in columns]
    cells = "".join("," + field(column) for column in columns)
    rows = [text + cells for text in texts(inner)]

    def block(x: str, *ends: str) -> tuple[str, str, str]:
        # the parts of "x," + row + tail for every row of the inner axis: x
        # is the text of an outer value, tail that of its outer_columns
        # values and "\n"; the rows are joined once, here, and the parts of
        # every block once, into the layout
        tail = "".join("," + text for text in ends) + "\n"
        return x + ",", (tail + x + ",").join(rows), tail

    blocks = itertools.starmap(block, zip(texts(outer), *map(texts, outer_columns)))
    layout = "".join(itertools.chain.from_iterable(blocks))
    values = tuple(itertools.chain.from_iterable(zip(*(column.tolist() for column in columns))))
    body = layout % values
    # from here the body and one copy of it at a time set the peak
    del layout, values
    body = body.replace("nan", "")
    _write_text(path, ",".join(header) + "\n" + body)


# The report of metrics_report as json.dumps(sort_keys=True, indent=2)
# lays it out: keys sorted, two spaces a level.  Each %s takes the JSON text
# of one scalar.  LABELS and MATRIX stand for the blocks that depend on the
# number of parameters d: a list of d scalars and d rows of d scalars.
_REPORT_LAYOUT = """{
  "D": MATRIX,
  "Q": MATRIX,
  "c_h": %s,
  "c_sld": %s,
  "delta": %s,
  "det_q": %s,
  "dim": %s,
  "generator_route_residuals": {
    "numeric_vs_closed": %s,
    "series_vs_closed": %s
  },
  "labels": LABELS,
  "model": %s,
  "point": {
    "B": %s,
    "phi": %s,
    "t": %s,
    "theta": %s
  },
  "probe": {
    "alpha": %s,
    "phi": %s
  },
  "r_ai": %s,
  "singular": %s
}
"""
_REPORT_KEYS = frozenset(re.findall(r'^  "(\w+)"', _REPORT_LAYOUT, re.M))

# The JSON text of a scalar by its exact type, as json.dumps writes it.  A
# NaN or an infinity comes out as one of _NON_FINITE, which JSON lacks.
_JSON_SCALARS = {
    float: float.__repr__,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}
_NON_FINITE = frozenset(map(float.__repr__, (math.nan, math.inf, -math.inf)))


@functools.cache
def _report_template(d: int) -> str:
    """:data:`_REPORT_LAYOUT` for ``d`` parameters, one ``%s`` a scalar."""
    labels = "[\n" + ",\n".join(["    %s"] * d) + "\n  ]"
    row = "[\n" + ",\n".join(["      %s"] * d) + "\n    ]"
    matrix = "[\n    " + ",\n    ".join([row] * d) + "\n  ]"
    return _REPORT_LAYOUT.replace("LABELS", labels).replace("MATRIX", matrix)


def _report_text(doc) -> str | None:
    """The text of a report whose keys are :data:`_REPORT_KEYS`, or ``None``.

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2)`` and
    a newline.  ``None`` stands for a doc that the template cannot write as
    json.dumps would: one whose nested keys, list lengths or value types
    are not a report's (``d >= 1`` labels, ``d x d`` lists ``Q`` and ``D``,
    and scalars of the types in :data:`_JSON_SCALARS`), or that holds a NaN
    or an infinity.
    """
    point, probe, resid = doc["point"], doc["probe"], doc["generator_route_residuals"]
    labels, d_rows, q_rows = doc["labels"], doc["D"], doc["Q"]
    if not (type(point) is type(probe) is type(resid) is dict
            and type(labels) is type(d_rows) is type(q_rows) is list):
        return None
    d, rows = len(labels), d_rows + q_rows
    if not ((len(point), len(probe), len(resid)) == (4, 2, 2) and d >= 1
            and len(rows) == 2 * d and all(type(row) is list and len(row) == d for row in rows)):
        return None
    try:
        values = [
            *itertools.chain.from_iterable(rows),
            doc["c_h"], doc["c_sld"], doc["delta"], doc["det_q"], doc["dim"],
            resid["numeric_vs_closed"], resid["series_vs_closed"],
            *labels, doc["model"],
            point["B"], point["phi"], point["t"], point["theta"],
            probe["alpha"], probe["phi"], doc["r_ai"], doc["singular"],
        ]
        fields = [_JSON_SCALARS[type(value)](value) for value in values]
    except KeyError:
        return None
    if not _NON_FINITE.isdisjoint(fields):
        return None
    return _report_template(d) % tuple(fields)


def write_json(path, doc) -> None:
    """Write ``doc`` as sorted, indented JSON, the text of
    ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    A report of :func:`metrics_report` is written from a fixed template
    (:func:`_report_text`): with an indent, CPython's ``json.dumps`` runs
    its pure-Python encoder, at more than twice the template's cost.  Any
    other doc goes through ``json.dumps``.  A NaN or infinity has no JSON
    form: it raises :class:`NumericalFailure`.  A circular reference, a value
    of no JSON type or keys that cannot be sorted raise :class:`InvalidInput`.
    Each is raised before the file is opened, so nothing is written.
    """
    text = _report_text(doc) if type(doc) is dict and doc.keys() == _REPORT_KEYS else None
    if text is None:
        encode = functools.partial(json.dumps, doc, sort_keys=True, indent=2)
        try:
            text = encode(allow_nan=False) + "\n"
        except TypeError as exc:
            raise InvalidInput(f"report cannot be written as JSON: {exc}") from None
        except ValueError as exc:
            # json.dumps raises ValueError for a non-finite number and for a
            # circular reference alike: only a doc that encodes once NaN is
            # allowed held a non-finite number
            try:
                encode(allow_nan=True)
            except ValueError:
                raise InvalidInput(f"report cannot be written as JSON: {exc}") from None
            raise NumericalFailure(f"report holds a non-finite number: {exc}") from exc
    _write_text(path, text)


def _store_int(config, name: str) -> int:
    """Store field ``name`` of a frozen ``config`` as a Python int and return
    it, by the rule of :func:`~spinmetro.linalg.require_int`."""
    number = require_int(getattr(config, name), name)
    object.__setattr__(config, name, number)
    return number


# Largest scan grid, in cells: a scan's traced peak grows by about 657 B a
# cell for the three-parameter model and 345 B for the two-parameter model
# (201^2 cells, N = 4), both in run_scan (the CSV writer peaks at about
# 370 B), so the cap keeps it within a 1 GB budget.  A larger grid is
# rejected before anything is allocated.
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of one T(theta, B) grid scan.

    The grid covers theta in ``[0, 2 pi]`` and one period of the model in
    the field strength, B in ``[0, 2 pi / t]``.  The model is a
    :class:`~spinmetro.encoding.ModelPoint`'s with ``phi = model_phi``
    (``None`` for the two-parameter model).  The probe can be a
    :class:`ProbeSpec` or an explicit amplitude vector, and it sets the
    dimension.  The grid has 2 or more points per axis and at most
    :data:`MAX_GRID_CELLS` cells; the counts are integers, not bools, and
    are stored as Python ints.  ``rel_tol`` is checked when the scan
    runs, by :func:`~spinmetro.metrology.bounds`.
    """

    probe: ProbeSpec | np.ndarray
    t: float
    model_phi: float | None = None
    theta_count: int = 101
    b_count: int = 101
    rel_tol: float = 1e-10

    def __post_init__(self):
        require_positive(self.t, "t", "evolution time")
        if self.model_phi is not None:
            require_float(self.model_phi, "model_phi")
        theta_count, b_count = (_store_int(self, name) for name in ("theta_count", "b_count"))
        if theta_count < 2 or b_count < 2:
            raise InvalidInput("grid needs at least 2 points per axis")
        if theta_count * b_count > MAX_GRID_CELLS:
            raise InvalidInput(f"grid has {theta_count * b_count} cells, at most {MAX_GRID_CELLS}")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Flattened grid in row-major (theta outer, B inner) order.

    Its fields are arrays, which have no single truth value, so a result
    compares by identity, as ``object`` does, and hashes by it.
    """

    config: ScanConfig
    theta: np.ndarray
    b: np.ndarray
    r_ai: np.ndarray
    delta: np.ndarray
    det_q: np.ndarray
    singular: np.ndarray

    HEADER = ("theta", "B", "R", "Delta", "T", "det_q", "singular")

    @property
    def t_gap(self) -> np.ndarray:
        return self.r_ai - self.delta

    def write_csv(self, path) -> None:
        n_b = self.config.b_count
        _write_csv(path, self.HEADER, self.theta[::n_b], self.b[:n_b],
                   (self.r_ai, self.delta, self.t_gap, self.det_q, self.singular))


def run_scan(config: ScanConfig) -> ScanResult:
    """Evaluate R, Delta and T = R - Delta over the (theta, B) grid.

    Cells with a singular QFIM (relative eigenvalue ratio below
    ``config.rel_tol``) are flagged and carry no bound values.
    """
    thetas = np.linspace(0.0, TWO_PI, config.theta_count)
    bs = np.linspace(0.0, TWO_PI / config.t, config.b_count)
    th_grid, b_grid = np.meshgrid(thetas, bs, indexing="ij")
    theta = th_grid.ravel()
    b = b_grid.ravel()
    frame = closed_frame(b, theta, config.t, config.model_phi)
    probe = config.probe
    moments = probe.moments() if isinstance(probe, ProbeSpec) else spin_moments(probe)
    q, d = frame_qfim_uhlmann(frame, *moments)
    singular, r_ai, _, _, delta, det_q = bounds(q, d, rel_tol=config.rel_tol)
    return ScanResult(
        config=config, theta=theta, b=b, r_ai=r_ai, delta=delta, det_q=det_q, singular=singular
    )


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Gamma (alphas x dims) and one fitted log-log slope per probe angle,
    both NaN for an alpha whose baseline QFIM is singular.

    Like :class:`ScanResult`, it compares and hashes by identity.
    """

    alphas: tuple[float, ...]
    dims: tuple[int, ...]
    gamma: np.ndarray
    slope: np.ndarray

    HEADER = ("alpha", "N", "Gamma", "slope")

    def write_csv(self, path) -> None:
        _write_csv(path, self.HEADER, self.alphas, self.dims, (self.gamma,), (self.slope,))


def scaling_dim(n) -> int:
    """One dimension of a scaling table as a Python int: an integer (the rule
    of :func:`~spinmetro.linalg.require_int`) in [4, :data:`MAX_DIM`], else
    :class:`InvalidInput`.  The command line holds both ends of a ``LO-HI``
    range to it before it hands the range over."""
    n = require_int(n, "scaling dimension")
    if not 4 <= n <= MAX_DIM:
        raise InvalidInput(f"scaling dimensions must lie in [4, {MAX_DIM}], got {n}")
    return n


# Largest scaling table, in probes: len(alphas) * (1 + len(dims)), the
# baselines included.  A table's traced peak grows by about 710 B a probe
# (one alpha and 2 * 10^4 to 2 * 10^5 dimensions, either model; about 570 B
# with 40 alphas), mostly the stacked windows and moments of the moments
# kernel, so the cap keeps it within a 1 GB budget.  A larger table is
# rejected before anything is allocated.
MAX_TABLE_PROBES = 10**6


def _sized(values, name: str):
    """``values`` itself if it has a length, as a list or a range has, else
    a tuple of it; :class:`InvalidInput` if it is not iterable."""
    try:
        len(values)
        return values
    except TypeError:
        pass
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInput(f"{name} must be a sequence, got {values!r}") from None


def scaling_table(
    alphas,
    dims,
    point: ModelPoint,
    probe_phi: float = 0.0,
    rel_tol: float = 1e-10,
) -> ScalingResult:
    """Gamma = Tr(Q_N Q_baseline^-1) across dimensions, with fitted slopes.

    The model is the ``point``'s.  The baseline is the qubit (N = 2) for
    the two-parameter model.  The three-parameter model has a singular
    qubit QFIM, so the smallest nonsingular dimension N = 4 serves as
    baseline instead; its slope is fitted against log N (versus log(N - 1)
    for two parameters).  An alpha whose baseline QFIM is singular gets NaN
    Gamma and slope (empty CSV fields); a Gamma that is not finite raises
    :class:`NumericalFailure`.
    A slope needs at least two distinct dimensions, each listed once (each
    held to :func:`scaling_dim`), and at least one probe angle; each angle
    and ``probe_phi`` is a finite number (the rule of
    :func:`~spinmetro.linalg.require_float`).  The table has at most
    :data:`MAX_TABLE_PROBES` probes, counted from the lengths of ``alphas``
    and ``dims`` before either is expanded, and every dimension is checked
    before any is computed.  One :func:`~spinmetro.models.extreme_moments`
    call gives the spin moments of every (alpha, N) probe, baselines
    included, from their supports; one
    :func:`~spinmetro.metrology.frame_qfim_uhlmann` call every QFIM of the
    table, one :func:`~spinmetro.linalg.eigh_inverse` call every baseline's
    inverse, and one batched trace every Gamma.
    """
    point = require_point(point)
    alphas, dims = _sized(alphas, "probe angles"), _sized(dims, "scaling dimensions")
    probes = len(alphas) * (1 + len(dims))
    if probes > MAX_TABLE_PROBES:
        raise InvalidInput(f"scaling table has {probes} probes, at most {MAX_TABLE_PROBES}")
    dims = tuple(map(scaling_dim, dims))
    if len(dims) < 2 or len(set(dims)) != len(dims):
        raise InvalidInput(
            f"scaling needs two or more distinct dimensions, each listed once; got {dims}"
        )
    alphas = tuple(require_float(alpha, "probe alpha") for alpha in alphas)
    if not alphas:
        raise InvalidInput("scaling needs at least one probe angle")
    probe_phi = require_float(probe_phi, "probe phi")
    two_param = point.phi is None
    baseline_dim = 2 if two_param else 4
    frame = closed_frame(point.b, point.theta, point.t, point.phi)
    moments = extreme_moments(np.array((baseline_dim, *dims)), np.array(alphas)[:, None],
                              probe_phi)
    q = frame_qfim_uhlmann(frame, *moments)[0]
    x = np.array(dims, dtype=float) - (1.0 if two_param else 0.0)
    _, _, regular, _, base_inv = eigh_inverse(q[:, 0], rel_tol, name="QFIM")
    gamma = np.full((len(alphas), len(dims)), np.nan)
    gamma[regular] = rows = np.trace(q[regular, 1:] @ base_inv[:, None], axis1=-2, axis2=-1)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        first = regular[finite.argmin()]
        raise NumericalFailure(f"Gamma is not finite at alpha = {alphas[first]!r}")
    # least-squares slopes of log Gamma against log x, every row at once, by
    # the centered two-pass formula sum(dx dy) / sum(dx^2); np.add.reduce
    # sums each row pairwise with no BLAS call, so a row's slope depends
    # neither on the other rows nor on the BLAS thread count
    lx, ly = np.log(x), np.log(rows)
    dx = lx - np.add.reduce(lx) / lx.size
    dy = ly - np.add.reduce(ly, axis=1, keepdims=True) / lx.size
    slope = np.full(len(alphas), np.nan)
    slope[regular] = np.add.reduce(dx * dy, axis=1) / np.add.reduce(dx * dx)
    return ScalingResult(alphas=alphas, dims=dims, gamma=gamma, slope=slope)


# Trials per stacked block of the rank experiment: the draws, softmax, FIM,
# eigvalsh and det of one block are single array calls, and peak memory stays
# that of one block however many trials run.
RANK_BLOCK = 256
# Largest parameter and outcome counts of the rank experiment: a block's
# traced peak is about RANK_BLOCK * 30 B * (n d + d^2), 236 MB at both caps,
# within a 256 MB budget.  Larger counts are rejected before any draw.
MAX_RANK_PARAMS = 128
MAX_RANK_OUTCOMES = 128


@dataclass(frozen=True)
class RankExperimentConfig:
    """Monte-Carlo check of the outcome-count rank bound on the FIM.

    ``n_params`` lies in [1, :data:`MAX_RANK_PARAMS`] and ``n_outcomes`` in
    [2, :data:`MAX_RANK_OUTCOMES`].  ``seed`` must be a non-negative integer
    and ``lam``, the evaluation point (default: the origin), finite with
    ``n_params`` components.  The counts and the seed are integers, not
    bools, and are stored as Python ints.
    """

    n_params: int
    n_outcomes: int
    trials: int = 1000
    seed: int = 0
    lam: np.ndarray | None = None

    def __post_init__(self):
        d, n, trials, seed = (_store_int(self, name)
                              for name in ("n_params", "n_outcomes", "trials", "seed"))
        if not 1 <= d <= MAX_RANK_PARAMS:
            raise InvalidInput(f"need 1 to {MAX_RANK_PARAMS} parameters, got {d}")
        if not 2 <= n <= MAX_RANK_OUTCOMES:
            raise InvalidInput(f"need 2 to {MAX_RANK_OUTCOMES} outcomes, got {n}")
        if trials < 1:
            raise InvalidInput("need at least one trial")
        if seed < 0:
            raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
        if self.lam is not None:
            lam = require_floats(self.lam, "evaluation point")
            if lam.shape != (self.n_params,):
                raise InvalidInput(f"evaluation point must have {self.n_params} components")
            if not np.isfinite(lam).all():
                raise InvalidInput(f"evaluation point must be finite, got {lam.tolist()}")

    def lam_point(self) -> np.ndarray:
        if self.lam is None:
            return np.zeros(self.n_params)
        return np.asarray(self.lam, dtype=float)


def _softmax_family(a, b, lam):
    """Probabilities and analytic gradients of p_i  propto  exp(a_i + b_i . lam),
    over leading axes: ``a (..., n)`` and ``b (..., n, d)`` give ``p (..., n)``
    and ``grads (..., d, n)`` with ``grads[..., j, i] = d p_i / d lam_j``."""
    z = a + b @ lam
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    mean_b = (p[..., None, :] @ b)[..., 0, :]  # (..., d)
    grads = p[..., None, :] * (np.swapaxes(b, -1, -2) - mean_b[..., :, None])
    return p, grads


def fim_rank_experiment(config: RankExperimentConfig) -> dict:
    """Sample softmax-affine families; verify rank(F) <= min(d, n - 1).

    One generator, ``default_rng((seed, d, n))``, draws every trial's
    standard-normal offsets ``a (n)`` and then slopes ``b (n, d)`` in trial
    order, a block of :data:`RANK_BLOCK` trials in one ``(trials, n + n d)``
    call, so a k-trial run's draws are a prefix of any longer run's and the
    result does not depend on the block size.  The block's trials are
    evaluated together.  The FIM is computed two ways: the direct
    weighted-gradient sum and the product decomposition that eliminates the
    redundant last outcome; their agreement is recorded as the
    decomposition residual.  A trial with fewer than two outcomes at
    ``p >= 1e-14`` has a vanishing FIM, up to rounding, and is left out of
    both float maxima.
    """
    d, n = config.n_params, config.n_outcomes
    lam = config.lam_point()
    rank_bound = min(d, n - 1)
    max_rank = 0
    violations = 0
    full_rank = 0
    max_resid = 0.0
    max_det_norm = 0.0
    normal = np.random.default_rng((config.seed, d, n)).standard_normal
    for first in range(0, config.trials, RANK_BLOCK):
        count = min(RANK_BLOCK, config.trials - first)
        draws = normal((count, n + n * d))
        a, b = draws[:, :n], draws[:, n:].reshape(count, n, d)
        p, grads = _softmax_family(a, b, lam)
        f = classical_fim(p, grads)
        # decomposition route: F = eta . dtil with the last outcome eliminated;
        # like classical_fim, outcomes with p < 1e-14 contribute nothing
        keep = p >= 1e-14
        dtil = grads[..., :-1]
        eta = np.divide(dtil, p[:, None, :-1], out=np.zeros_like(dtil), where=keep[:, None, :-1])
        last = np.divide(dtil.sum(axis=-1), p[:, -1:], out=np.zeros(dtil.shape[:-1]),
                         where=keep[:, -1:])
        f_decomp = (eta + last[..., None]) @ np.swapaxes(dtil, -1, -2)
        f_norm = np.linalg.norm(f, axis=(-2, -1))
        # F is symmetric, so its singular values are its |eigenvalues|
        svals = np.abs(np.linalg.eigvalsh(f))
        top = np.maximum.reduce(svals, axis=-1, keepdims=True)
        rank = (svals > 1e-10 * np.maximum(top, 1e-300)).sum(axis=-1)
        max_rank = max(max_rank, int(rank.max()))
        violations += int((rank > rank_bound).sum())
        full_rank += int((rank == d).sum())
        # a trial whose FIM vanishes has no relative residual or normalized
        # det, and is left out of both maxima: one with fewer than two
        # outcomes kept (its FIM is rounding at most) or a zero norm**d
        scale = f_norm**d
        live = (keep.sum(axis=-1) >= 2) & (scale > 0)
        resid = np.linalg.norm(f[live] - f_decomp[live], axis=(-2, -1)) / f_norm[live]
        max_resid = max(max_resid, float(resid.max(initial=0.0)))
        det_norm = np.abs(np.linalg.det(f[live])) / scale[live]
        max_det_norm = max(max_det_norm, float(det_norm.max(initial=0.0)))
    return {
        "n_params": d,
        "n_outcomes": n,
        "trials": config.trials,
        "seed": config.seed,
        "lam": [float(v) for v in lam],
        "rank_bound": rank_bound,
        "max_rank": max_rank,
        "rank_violations": violations,
        "full_rank_fraction": full_rank / config.trials,
        "max_decomposition_residual": max_resid,
        "max_normalized_det": max_det_norm,
    }


def _route_residuals(point, frame) -> dict:
    """Largest relative deviation of the series and finite-difference routes
    from the report's closed ``frame``, row by row.

    Each route gives the rows ``a_l`` of its generators ``a_l . J``, and
    ``||a . J||_2 = s |a|`` in the spin-s irrep, so ``|a - b| / max(|a|, |b|)``
    is the relative spectral-norm deviation in every irrep; it lies in
    [0, 2].  Each pair of rows is scaled by its largest entry before the
    norms are taken, so they cannot overflow and a short row is not lost to
    underflow beside a long one.  A row shorter than 2e-12, a spin-1/2
    spectral norm of 1e-12, is measured against that floor.  The rows are
    3-vectors and at most three, so the arithmetic is in Python floats.
    """
    closed = frame.tolist()
    worst = []
    for route in (series_frame(point), numeric_frame(point)[0]):
        rel = 0.0
        for (a1, a2, a3), (b1, b2, b3) in zip(route.tolist(), closed):
            top = max(abs(a1), abs(a2), abs(a3), abs(b1), abs(b2), abs(b3), sys.float_info.min)
            a1, a2, a3, b1, b2, b3 = a1 / top, a2 / top, a3 / top, b1 / top, b2 / top, b3 / top
            c1, c2, c3 = a1 - b1, a2 - b2, a3 - b3
            floor = max(math.sqrt(a1 * a1 + a2 * a2 + a3 * a3),
                        math.sqrt(b1 * b1 + b2 * b2 + b3 * b3), 2e-12 / top)
            rel = max(rel, math.sqrt(c1 * c1 + c2 * c2 + c3 * c3) / floor)
        worst.append(rel)
    return {"series_vs_closed": worst[0], "numeric_vs_closed": worst[1]}


def metrics_report(spec: ProbeSpec, point: ModelPoint, rel_tol=1e-10) -> dict:
    """Machine-readable report for one probe and point; the model is the point's.

    Carries the QFIM, Uhlmann matrix, determinant, bounds, incompatibility,
    the singularity flag and the generator cross-route residuals; singular
    points get null bound fields.  It runs :func:`run_scan`'s pipeline on one
    point, and its (Q, D) fields come from the helper that also gives those
    of the dense :func:`~spinmetro.metrology.incompat_report`.  A ``spec``
    that is not a :class:`ProbeSpec` raises :class:`InvalidInput`.
    """
    if not isinstance(spec, ProbeSpec):
        raise InvalidInput(f"probe must be a ProbeSpec, got {spec!r}")
    point = require_point(point)
    frame = closed_frame(point.b, point.theta, point.t, point.phi)
    q, d = frame_qfim_uhlmann(frame, *spec.moments())
    return {
        "model": "two" if point.phi is None else "three",
        "dim": spec.dim,
        "probe": {"alpha": spec.alpha, "phi": spec.phi},
        "point": {"B": point.b, "theta": point.theta, "phi": point.phi, "t": point.t},
        "labels": list(point.labels),
        **_report_fields(q, d, rel_tol),
        "generator_route_residuals": _route_residuals(point, frame),
    }
