"""Asymptotic verification harness.

Compares exact partial sums of r_k(n) against their main terms at checkpoint
grids, fits empirical error exponents on log-log scales, and sweeps the
truncation level of the singular-series count formula against exact counts.
Partial sums are exact integers throughout: they are taken block by block, in
int64 where a block's exact bound allows it and in Python ints otherwise, so
no sum wraps and no table-sized temporary is made. A series reads its table
through blocks(), so a repcount.TableFile is summed as it is read and never
held whole.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DomainError, InsufficientPointsError, TableTooShortError
from ._util import SAFE_LIMIT

if TYPE_CHECKING:  # at run time only the sweep uses repcount: fit loads no table code and no numpy
    import numpy as np

    from . import repcount

_SUM_BLOCK = 2**16  # entries per block of an exact prefix sum
_OBJECT_BLOCK = 2**12  # entries per Python-int sub-block


@dataclass(frozen=True)
class Checkpoint:
    """Partial sum over 1 <= n <= x next to its main term."""

    x: int
    partial_sum: int
    main_term: float
    abs_err: float
    rel_err: float

    def __post_init__(self):
        if self.x < 1:
            raise DomainError(f"checkpoint x must be >= 1, got {self.x}")
        if self.partial_sum < 0:
            raise DomainError("partial_sum must be >= 0")
        if not self.main_term > 0.0:
            raise DomainError("main_term must be positive")
        if self.rel_err < 0.0 or self.abs_err < 0.0:
            raise DomainError("errors must be >= 0")


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares of log(abs_err) against log(x)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 3:
            raise DomainError("a fit needs at least 3 points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise DomainError("r_squared must lie in [0, 1]")


@dataclass(frozen=True)
class TruncationPoint:
    """One truncation level of the singular-series count formula."""

    Q: int
    bateman: float
    abs_err: float
    rel_err: float  # nan when the exact count is 0


@dataclass(frozen=True)
class TruncationSweep:
    n: int
    r3: int
    points: tuple[TruncationPoint, ...]


def geometric_checkpoints(limit: int) -> list[int]:
    """Default grid: 1 and 3 times powers of ten from 100 up to `limit`."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    xs = []
    base = 1
    while base <= limit:
        for mult in (1, 3):
            v = base * mult
            if 100 <= v <= limit:
                xs.append(v)
        base *= 10
    if not xs:
        return [limit]
    if xs[-1] != limit:
        xs.append(limit)
    return xs


def _validate_grid(table: repcount.RepTable | repcount.TableFile, checkpoints, order: int) -> list[int]:
    if table.order != order:
        raise DomainError(
            f"need a table of order {order}, got order {table.order}"
        )
    xs = [int(x) for x in checkpoints]
    if not xs:
        raise DomainError("checkpoint grid is empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("checkpoint grid must be strictly ascending")
    if xs[0] < 1:
        raise DomainError("checkpoints must be >= 1")
    if xs[-1] > table.limit:
        raise TableTooShortError(
            f"checkpoint {xs[-1]} exceeds table limit {table.limit}"
        )
    return xs


def _chunk_sum(chunk: np.ndarray, square: bool) -> int:
    """Exact sum of chunk (or of its squares), widened to int64 first: narrow
    counts (int16, int32) squared in their own width would wrap. A chunk whose
    exact bound, top * size (top * top * size for squares, top its largest
    entry), stays below SAFE_LIMIT sums in int64; any other is cast to Python
    ints, _OBJECT_BLOCK entries at a time."""
    chunk = chunk.astype("int64", copy=False)
    top = int(chunk.max())
    if (top * top if square else top) * chunk.size < SAFE_LIMIT:
        return int((chunk * chunk if square else chunk).sum())
    total = 0
    for i in range(0, chunk.size, _OBJECT_BLOCK):
        part = chunk[i : i + _OBJECT_BLOCK].astype(object)
        total += int((part * part if square else part).sum())
    return total


def _prefix_at(blocks, xs: list[int], square: bool) -> dict[int, int]:
    """Exact sums of counts[n] (or counts[n]^2) over 1 <= n <= x for each x in
    the ascending xs, where `blocks` is the counts array or its blocks in row
    order, as a table's blocks() gives them. Each block is used only until the
    next is asked for, and every block is walked, past the last checkpoint
    too, so a file's checks all run. The entries are summed by _chunk_sum in
    chunks of at most _SUM_BLOCK, each ending at a checkpoint or a block's
    end; the running total is a Python int.
    """
    if not isinstance(blocks, Iterator):  # one counts array
        blocks = (blocks,)
    out: dict[int, int] = {}
    todo = iter(xs)
    x = next(todo, None)
    total = start = 0  # start: the row of the block's first entry
    for block in blocks:
        lo, end = max(start, 1), start + block.size
        while x is not None and lo < end:
            hi = min(lo + _SUM_BLOCK, x + 1, end)
            total += _chunk_sum(block[lo - start : hi - start], square)
            if hi == x + 1:
                out[x] = total
                x = next(todo, None)
            lo = hi
        start = end
    if x is not None:
        raise TableTooShortError(f"checkpoint {x} exceeds the last count, at n = {start - 1}")
    return out


def _constants():
    from . import constants  # local: the sweep and fit need no constant

    return constants


def _series(table, xs, square: bool, constant, power) -> list[Checkpoint]:
    """The checkpoints at xs against the main term constant() * x^power.
    constant() runs after the sums, so the module that computes it loads once
    the table's blocks are gone: a process holds the one or the other."""
    sums = _prefix_at(table.blocks(), xs, square)
    c = constant()
    cps = []
    for x in xs:
        main = c * float(x) ** power
        ps = sums[x]
        abs_err = abs(ps - main)
        cps.append(
            Checkpoint(
                x=x,
                partial_sum=ps,
                main_term=main,
                abs_err=abs_err,
                rel_err=abs_err / main,
            )
        )
    return cps


def mean_value_series(table: repcount.RepTable | repcount.TableFile, checkpoints) -> list[Checkpoint]:
    """Sum of r_3(n) over 1 <= n <= x against the main term (4/3) pi x^{3/2}."""
    xs = _validate_grid(table, checkpoints, order=3)
    return _series(table, xs, False, lambda: (4.0 / 3.0) * math.pi, 1.5)


def mean_square_series(table: repcount.RepTable | repcount.TableFile, checkpoints) -> list[Checkpoint]:
    """Sum of r_3(n)^2 over 1 <= n <= x against C3 x^2."""
    xs = _validate_grid(table, checkpoints, order=3)
    return _series(table, xs, True, lambda: _constants().mean_square_constant(), 2)


def mean_square_general(N: int, table: repcount.RepTable | repcount.TableFile, checkpoints) -> list[Checkpoint]:
    """Sum of r_N(n)^2 over 1 <= n <= x against W_N x^{N-1}, for N > 3."""
    if N <= 3:
        raise DomainError(f"mean_square_general requires N > 3, got {N}")
    xs = _validate_grid(table, checkpoints, order=N)
    return _series(table, xs, True, lambda: _constants().w_constant(N), N - 1)


def fit_error_exponent(checkpoints) -> FitResult:
    """OLS on (log x, log abs_err); zero-error points are skipped. Each sum is
    math.fsum: the exact sum of its float64 terms, rounded once."""
    pts = [
        (math.log(c.x), math.log(c.abs_err)) for c in checkpoints if c.abs_err > 0.0
    ]
    n = len(pts)
    if n < 3:
        raise InsufficientPointsError(
            f"need >= 3 checkpoints with positive error, got {n}"
        )
    xm = math.fsum(x for x, _ in pts) / n
    ym = math.fsum(y for _, y in pts) / n
    dx = [x - xm for x, _ in pts]
    dy = [y - ym for _, y in pts]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise InsufficientPointsError("checkpoints share a single x value")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    intercept = ym - slope * xm
    sst = math.fsum(d * d for d in dy)
    if sst == 0.0:
        r2 = 1.0
    else:
        res = [y - intercept - slope * x for x, y in pts]
        ssr = math.fsum(r * r for r in res)
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return FitResult(slope=slope, intercept=intercept, r_squared=r2, points_used=n)


def read_series(path) -> list[SimpleNamespace]:
    """(x, abs_err) of every data row of a series CSV, such as verify-* output.

    Comment lines and rows not led by an integer (footers) are skipped; a
    malformed data row, or one whose abs_err is inf, nan or negative, raises
    DomainError.
    """
    with open(path, newline="", errors="replace") as fh:
        lines = [line.strip() for line in fh]
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    if not rows:
        return []
    header, *data = rows
    if "x" not in header or "abs_err" not in header:
        raise DomainError(f"{path} lacks x/abs_err columns: {header}")
    xi, ei = header.index("x"), header.index("abs_err")
    points = []
    for row in data:
        if not row[0].lstrip("-").isdigit():
            continue  # footer or another non-data row
        try:
            x, abs_err = int(row[xi]), float(row[ei])
        except (IndexError, ValueError):
            bad = ",".join(row)
            raise DomainError(f"{path}: no integer x and real abs_err in {bad!r}") from None
        if x < 1:
            raise DomainError(f"{path}: x must be >= 1, got {x}")
        if not math.isfinite(abs_err):
            raise DomainError(f"{path}: abs_err must be finite, got {','.join(row)!r}")
        if abs_err < 0:
            raise DomainError(f"{path}: abs_err must be >= 0, got {','.join(row)!r}")
        points.append(SimpleNamespace(x=x, abs_err=abs_err))
    return points


def singular_truncation_sweep(n: int, Q_grid) -> TruncationSweep:
    """Truncated count formula 2 pi sqrt(n) S3(n, Q) against exact r_3(n).
    S3(n, Q) is the sequential prefix sum of the A(q, n), so within gamma_{Q-1}
    sum_{q<=Q} |A(q, n)| of their exact sum, gamma_k = k u / (1 - k u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2)."""
    from . import repcount, singular  # local: the verify-* subcommands never load singular

    qs = sorted({int(Q) for Q in Q_grid})
    if not qs:
        raise DomainError("Q grid is empty")
    if qs[0] < 1:
        raise DomainError("all Q must be >= 1")
    r3 = repcount.r3_point(n)
    factor = singular.bateman_factor(n)
    points = []
    todo = iter(qs)
    Q = next(todo)
    carry = 0.0  # the prefix sum before the block: np.cumsum's, bit for bit
    for lo, terms in singular.series_blocks(n, qs[-1]):
        terms[0] += carry
        prefix = terms.cumsum(out=terms)
        while Q is not None and Q < lo + prefix.size:
            val = float(factor * prefix[Q - lo])
            abs_err = abs(val - r3)
            rel_err = abs_err / r3 if r3 > 0 else math.nan
            points.append(TruncationPoint(Q=Q, bateman=val, abs_err=abs_err, rel_err=rel_err))
            Q = next(todo, None)
        carry = prefix[-1]
    return TruncationSweep(n=n, r3=r3, points=tuple(points))
