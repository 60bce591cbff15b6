"""Experiment drivers: grid scans, scaling tables, rank experiments, reports.

Everything here is deterministic given its configuration.  Scans, scaling
tables and reports take (Q, D) from the probe's spin moments through the
N-independent frame kernel, with no N x N matrix; the dense generator route
matches it to rounding (the tests pin this).  The rank experiment draws its
trials in order from one generator seeded by its configuration, so a run's
draws are a prefix of any longer run's.  A scaling table fits every
alpha's log-log slope in one centered least-squares pass, each row summed
on its own, so a slope does not depend on the other alphas.  Both CSV
outputs are grids.  A scan computes its grid, on two threads where two
CPUs are usable, and one grid writer writes either as bytes, in the blocks
of one rule, :func:`_grid_blocks`: whole outer rows or a slice of one, of
at most :data:`GRID_BLOCK` cells in the writer and half as many on each of
a scan's two threads.  Beyond the result columns each holds at most
``GRID_BLOCK`` cells at a time, so a whole scan op peaks at about 61 B a
cell at 301^2 (the table at :data:`MAX_GRID_CELLS`), and a cell's work and
text do not depend on its block or its thread, so neither do the results.
Each block's axis values are laid out once as text, and then every other
value of the block is formatted with one ``%``: '.' decimals, ','
delimiters, a header row and 17 significant digits, so repeated runs are
bytewise identical, whatever the block size.  A scaling table's slope,
one per alpha, is laid out as text once per alpha, with the axis values.
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
import stat
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .encoding import ModelPoint, closed_frame, numeric_frame, require_point, series_frame
from .errors import InvalidInput, NumericalFailure
from .linalg import (SINGULAR_TOL, eigh_inverse, require_float, require_int, require_positive,
                     require_tol)
from .metrology import _report_fields, bounds, classical_fim, frame_qfim_uhlmann
from .models import MAX_DIM, ProbeSpec, extreme_moments, require_spec

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_TABLE_PROBES",
    "MAX_RANK_PARAMS",
    "MAX_RANK_OUTCOMES",
    "MAX_RANK_DRAWS",
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


# Most cells in flight in one grid, by the rule of _grid_blocks: the grid
# writer formats its cells a block of at most GRID_BLOCK at a time, and a
# scan computes them in blocks of at most GRID_BLOCK // threads on each of
# its threads, so beyond their columns each holds at most GRID_BLOCK cells'
# arrays or text at a time, however large the grid and whatever its shape.
# A block adds about 0.2 ms of fixed call overhead to a scan (closed_frame,
# frame_qfim_uhlmann and bounds, on a shared 2-vCPU host): a 51^2 scan takes
# four blocks on two threads, and its CSV two.
GRID_BLOCK = 2048


def _grid_blocks(rows: int, n: int, parts: int = 1):
    """The blocks of a grid of ``rows`` outer rows of ``n`` cells, in row
    order, each as three slices: of its outer rows, of its cells of each
    of those rows, and of its cells in the grid's row order.

    A block holds at most ``GRID_BLOCK // parts`` cells (one at least), so
    ``parts`` blocks in flight hold at most :data:`GRID_BLOCK`: the fewest
    blocks of whole outer rows, their count rounded up to a multiple of
    ``parts`` where the rows allow and their row counts at most one apart,
    or, where one outer row holds more, slices of at most that many cells
    of each row in turn, the last one short.
    """
    size = max(1, GRID_BLOCK // parts)
    if n > size:
        spans = [(first, first + 1, lo, min(lo + size, n))
                 for first in range(rows) for lo in range(0, n, size)]
    else:
        count = -(-rows // (size // n))
        count = min(rows, -(-count // parts) * parts)
        spans = [(rows * k // count, rows * (k + 1) // count, 0, n) for k in range(count)]
    for first, stop, lo, hi in spans:
        yield slice(first, stop), slice(lo, hi), slice(first * n + lo, (stop - 1) * n + hi)


def _write_text(path, chunks) -> None:
    """Write the bytes ``chunks`` to ``path`` in order, the one place the
    library opens a file.

    An existing file is overwritten in place and then cut to the total
    length of the chunks; the write is not atomic and not synced.  Opening
    without ``O_TRUNC`` keeps ext4 from flushing the file on close, a flush
    the next overwrite of it would wait for.  Only a regular file is cut, so
    a character device such as ``/dev/null`` or a pipe works as a path too.
    Each chunk is written by ``os.write``, repeated on a short write, as it
    comes, so ``chunks`` may be a generator that makes the next chunk only
    once the last one is written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = 0
        for chunk in chunks:
            size += len(chunk)
            rest = memoryview(chunk)
            while rest:
                rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_csv(path, header, outer, inner, columns) -> None:
    """Write a grid: one row per (outer, inner) pair of axis values, outer-major.

    A row holds its outer and inner axis values, then one value from each
    of ``columns``.  A cell column holds ``len(outer) * len(inner)`` values
    in row order; a shorter one, ``len(outer)`` values where rows have more
    than one inner value, is a per-outer column, whose value is the same on
    every row of its outer value and is written after the cell columns.
    Floats get 17 significant digits and NaN an empty field; a boolean
    column is written as 1/0.  The rows go to the file as bytes, a block of
    :func:`_grid_blocks` at a time: whole outer rows, at most
    :data:`GRID_BLOCK` cells, or, where one outer row holds more, a slice of
    at most ``GRID_BLOCK`` of its cells.  A block's layout holds its axis
    and per-outer values, formatted as text for that block alone, once per
    outer value, so that one bytes ``%`` then writes one float stack of the
    block's slices of the cell columns (``%d`` prints a flag's 1.0/0.0 as
    1/0).  Beyond ``columns`` the writer holds one block's stack and text,
    about 20 B a cell of a 301^2 scan (the table at :data:`MAX_GRID_CELLS`).
    ``%.17g`` writes a NaN as ``nan`` and no other value with those letters,
    so one replace on each block empties its NaN fields, axis fields
    included.  The header is written as it is.
    """

    def field(values: np.ndarray) -> bytes:
        return b"%d" if values.dtype == bool else b"%.17g"

    def texts(values) -> list[bytes]:
        values = np.asarray(values)
        return list(map(field(values).__mod__, values.tolist()))

    inner = np.asarray(inner)
    size = len(outer) * len(inner)
    columns = [np.asarray(column).ravel() for column in columns]
    outers = [np.asarray(outer), *(column for column in columns if column.size < size)]
    columns = [column for column in columns if column.size >= size]
    cells = b"".join(b"," + field(column) for column in columns)

    def block(rows: list[bytes], x: bytes, *ends: bytes) -> tuple[bytes, bytes, bytes]:
        # the parts of "x," + row + tail for each of rows: x is the text of
        # an outer value, tail that of its per-outer values and "\n"
        tail = b"".join(b"," + text for text in ends) + b"\n"
        return x + b",", (tail + x + b",").join(rows), tail

    def chunks():
        yield (",".join(header) + "\n").encode()
        for outer_rows, inner_cells, grid_cells in _grid_blocks(len(outer), len(inner)):
            group = zip(*(texts(axis[outer_rows]) for axis in outers))
            rows = [text + cells for text in texts(inner[inner_cells])]
            layout = b"".join(itertools.chain.from_iterable(block(rows, *head) for head in group))
            values = np.stack([column[grid_cells] for column in columns], axis=-1)
            yield (layout % tuple(values.ravel().tolist())).replace(b"nan", b"")

    _write_text(path, chunks())


def write_json(path, doc) -> None:
    """Write ``doc`` as ``json.dumps(doc, sort_keys=True)`` and a newline:
    sorted keys on one line, by CPython's C encoder, which runs only
    without an indent.

    A NaN or infinity has no JSON form: it raises :class:`NumericalFailure`.
    A circular reference, a value of no JSON type or keys that cannot be
    sorted raise :class:`InvalidInput`.  Each is raised before the file is
    opened, so nothing is written.
    """
    encode = functools.partial(json.dumps, doc, sort_keys=True)
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
    _write_text(path, (text.encode(),))


def _store_int(config, name: str) -> int:
    """Store field ``name`` of a frozen ``config`` as a Python int and return
    it, by the rule of :func:`~spinmetro.linalg.require_int`."""
    number = require_int(getattr(config, name), name)
    object.__setattr__(config, name, number)
    return number


# Largest scan grid, in cells.  A whole scan op, run_scan and then its
# writer, holds the grid's theta and B (16 B a cell), R, Delta, det_q and
# the flags (25 B) and the writer's T = R - Delta (8 B), and blocks of at
# most GRID_BLOCK cells in all at a time.  Its traced peak, in B a cell at
# N = 4, on two threads as on one to within 1 B:
#
#     grid     two parameters    three parameters
#     101^2         143                161
#     201^2          77                 77
#     301^2          61                 61
#
# and 50 at the cap (1000^2, 50 MB), so the cap keeps a scan within a 64 MB
# budget.  Computed in one batch, run_scan peaked at 343 and 657 B a cell,
# about 0.66 GB at the cap, within a 1 GB budget.  A larger grid is
# rejected before anything is allocated.
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of one T(theta, B) grid scan.

    The grid covers theta in ``[0, 2 pi]`` and one period of the model in
    the field strength, B in ``[0, 2 pi / t]``.  The model is a
    :class:`~spinmetro.encoding.ModelPoint`'s with ``phi = model_phi``
    (``None`` for the two-parameter model).  The probe is a
    :class:`ProbeSpec` (the rule of :func:`~spinmetro.models.require_spec`),
    and it sets the dimension.  The grid has 2 or more points per axis and
    at most :data:`MAX_GRID_CELLS` cells; the counts are integers, not
    bools, and are stored as Python ints.  ``rel_tol`` is a singularity
    tolerance (the rule of :func:`~spinmetro.linalg.require_tol`), stored
    as a Python float.
    """

    probe: ProbeSpec
    t: float
    model_phi: float | None = None
    theta_count: int = 101
    b_count: int = 101
    rel_tol: float = SINGULAR_TOL

    def __post_init__(self):
        require_spec(self.probe)
        require_positive(self.t, "t", "evolution time")
        if self.model_phi is not None:
            require_float(self.model_phi, "model_phi")
        theta_count, b_count = (_store_int(self, name) for name in ("theta_count", "b_count"))
        if theta_count < 2 or b_count < 2:
            raise InvalidInput("grid needs at least 2 points per axis")
        if theta_count * b_count > MAX_GRID_CELLS:
            raise InvalidInput(f"grid has {theta_count * b_count} cells, at most {MAX_GRID_CELLS}")
        object.__setattr__(self, "rel_tol", require_tol(self.rel_tol))


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


def _scan_threads() -> int:
    """The threads :func:`run_scan` computes its blocks on: two where the
    process may run on two or more CPUs, else one."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        usable = os.cpu_count() or 1
    return min(2, usable)


def run_scan(config: ScanConfig) -> ScanResult:
    """Evaluate R, Delta and T = R - Delta over the (theta, B) grid.

    Cells with a singular QFIM (relative eigenvalue ratio below
    ``config.rel_tol``) are flagged and carry no bound values.  The probe's
    spin moments are taken once, by ``config.probe.moments()`` at a cost
    that does not depend on N; then each block of :func:`_grid_blocks`
    gets its frame, (Q, D) and bounds, written by slice into the result
    columns.  The blocks are computed on :func:`_scan_threads` threads, the
    calling thread and at most one helper started and joined here, each
    under the caller's numpy error state, in blocks of at most
    ``GRID_BLOCK // threads`` cells.  So beyond the columns, 41 B a cell,
    the scan holds at most :data:`GRID_BLOCK` cells' arrays at a time (the
    table at :data:`MAX_GRID_CELLS`).  A cell's arithmetic does not depend
    on its block or thread, so the results are the same bits whatever the
    block size or the thread count.  The blocks are handed out in grid
    order; once one fails, a thread finishes the block it holds and starts
    no other, and the failure of the first failed block is raised, the one
    a scan on one thread raises.  Every block is computed before the result
    exists, so a scan that fails in any block leaves no result for a
    writer.  A field period ``2 pi / t`` that is not a finite float (``t``
    below about 3.5e-308) raises :class:`NumericalFailure` before any axis
    is built.
    """
    period = TWO_PI / float(config.t)
    if not math.isfinite(period):
        raise NumericalFailure(f"field period 2 pi / t is not a finite float at t = {config.t!r}")
    thetas = np.linspace(0.0, TWO_PI, config.theta_count)
    bs = np.linspace(0.0, period, config.b_count)
    theta, b = np.repeat(thetas, bs.size), np.tile(bs, thetas.size)
    r_ai, delta, det_q = (np.empty(theta.size) for _ in range(3))
    singular = np.empty(theta.size, dtype=bool)
    moments = config.probe.moments()
    threads = _scan_threads()
    blocks = enumerate(_grid_blocks(thetas.size, bs.size, threads))
    lock, failures, errors = threading.Lock(), {}, np.geterr()

    def work():
        # a new thread starts with numpy's default error state, so each
        # worker enters the caller's
        with np.errstate(**errors):
            while True:
                with lock:
                    k, block = (None, None) if failures else next(blocks, (None, None))
                if block is None:
                    return
                rows, row_cells, cells = block
                try:
                    # the block's frame from its axis slices, broadcast: its
                    # trig runs once per axis value of the block
                    frame = closed_frame(bs[row_cells], thetas[rows, None], config.t,
                                         config.model_phi)
                    q, d = frame_qfim_uhlmann(frame.reshape((-1,) + frame.shape[-2:]), *moments)
                    singular[cells], r_ai[cells], _, _, delta[cells], det_q[cells] = bounds(
                        q, d, rel_tol=config.rel_tol)
                except BaseException as exc:
                    with lock:
                        failures[k] = exc

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
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
        _write_csv(path, self.HEADER, self.alphas, self.dims, (self.gamma, self.slope))


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


def scaling_table(
    alphas,
    dims,
    point: ModelPoint,
    probe_phi: float = 0.0,
    rel_tol: float = SINGULAR_TOL,
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
    :func:`~spinmetro.linalg.require_float`).  ``alphas`` and ``dims`` are
    sequences, anything with a ``len()``; anything else raises
    :class:`InvalidInput`.  The table has at most :data:`MAX_TABLE_PROBES`
    probes, counted from those lengths before either is expanded, so a
    ``range`` of dimensions stays unexpanded until the cap check passes, and
    every dimension is checked before any is computed.  One
    :func:`~spinmetro.models.extreme_moments` call gives the spin moments of
    every (alpha, N) probe, baselines included, from their supports; one
    :func:`~spinmetro.metrology.frame_qfim_uhlmann` call every QFIM of the
    table, one :func:`~spinmetro.linalg.eigh_inverse` call every baseline's
    inverse, and one batched trace every Gamma.
    """
    point = require_point(point)
    try:
        probes = len(alphas) * (1 + len(dims))
    except TypeError:
        raise InvalidInput(f"probe angles and scaling dimensions must be sequences, "
                           f"got {alphas!r} and {dims!r}") from None
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
# Most standard-normal draws of one rank experiment, trials * n * (d + 1).
# A run costs 0.7 to 1.9e-7 s a draw (d = 2, n = 3 at 10^5 trials; d = 8,
# n = 16 at 10^5; d = n = 128 at 1000; one BLAS thread, shared 2-vCPU
# host), so the cap keeps a run within about 20 s.  It is a time budget,
# not a memory one: a run holds one block whatever its trial count.  The
# default 1000 trials fit at both caps above, 1.65e7 draws.  A larger run
# is rejected before any draw.
MAX_RANK_DRAWS = 10**8


@dataclass(frozen=True)
class RankExperimentConfig:
    """Monte-Carlo check of the outcome-count rank bound on the FIM.

    ``n_params`` lies in [1, :data:`MAX_RANK_PARAMS`] and ``n_outcomes`` in
    [2, :data:`MAX_RANK_OUTCOMES`], a run of ``trials >= 1`` makes at most
    :data:`MAX_RANK_DRAWS` draws, and ``seed`` is a non-negative integer.
    The counts and the seed are integers, not bools, and are stored as
    Python ints.
    """

    n_params: int
    n_outcomes: int
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        d, n, trials, seed = (_store_int(self, name)
                              for name in ("n_params", "n_outcomes", "trials", "seed"))
        if not 1 <= d <= MAX_RANK_PARAMS:
            raise InvalidInput(f"need 1 to {MAX_RANK_PARAMS} parameters, got {d}")
        if not 2 <= n <= MAX_RANK_OUTCOMES:
            raise InvalidInput(f"need 2 to {MAX_RANK_OUTCOMES} outcomes, got {n}")
        if trials < 1:
            raise InvalidInput("need at least one trial")
        if trials * n * (d + 1) > MAX_RANK_DRAWS:
            raise InvalidInput(f"rank experiment has {trials * n * (d + 1)} draws "
                               f"(trials x outcomes x (params + 1)), at most {MAX_RANK_DRAWS}")
        if seed < 0:
            raise InvalidInput(f"seed must be a non-negative integer, got {seed}")


def _softmax_family(a, b):
    """Probabilities and analytic gradients of p_i  propto  exp(a_i + b_i . lam)
    at lam = 0, over leading axes: ``a (..., n)`` and ``b (..., n, d)`` give
    ``p (..., n)`` and ``grads (..., d, n)`` with
    ``grads[..., j, i] = d p_i / d lam_j``."""
    z = a - a.max(axis=-1, keepdims=True)
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
    evaluated together, each at the origin ``lam = 0`` of its family, where
    its logits are ``a``.  The FIM is computed two ways: the direct
    weighted-gradient sum and the product decomposition that eliminates the
    redundant last outcome; their agreement is recorded as the
    decomposition residual.  A trial with fewer than two outcomes at
    ``p >= 1e-14`` has a vanishing FIM, up to rounding, and is left out of
    both float maxima.
    """
    d, n = config.n_params, config.n_outcomes
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
        p, grads = _softmax_family(a, b)
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
        "rank_bound": rank_bound,
        "max_rank": max_rank,
        "rank_violations": violations,
        "full_rank_fraction": full_rank / config.trials,
        "max_decomposition_residual": max_resid,
        "max_normalized_det": max_det_norm,
    }


def _route_residuals(point, frame) -> dict:
    """Largest relative deviation of the series and complex-step routes
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


def metrics_report(spec: ProbeSpec, point: ModelPoint, rel_tol=SINGULAR_TOL) -> dict:
    """Machine-readable report for one probe and point; the model is the point's.

    Carries the QFIM, Uhlmann matrix, determinant, bounds, incompatibility,
    the singularity flag and the generator cross-route residuals; singular
    points get null bound fields.  It runs :func:`run_scan`'s pipeline on one
    point, and its (Q, D) fields come from the helper that also gives those
    of the dense :func:`~spinmetro.metrology.incompat_report`.  A ``spec``
    that is not a :class:`ProbeSpec` raises :class:`InvalidInput`.
    """
    spec = require_spec(spec)
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
