"""Asymptotic verification harness.

Compares exact partial sums of r_k(n) against their main terms at checkpoint
grids, fits empirical error exponents on log-log scales, and sweeps the
truncation level of the singular-series count formula against exact counts.
Partial sums are exact integers throughout: they are taken block by block, in
int64 where a block's exact bound allows it and in Python ints otherwise, so
no sum wraps and no table-sized temporary is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import repcount, singular
from .constants import mean_square_constant, w_constant
from .errors import DomainError, InsufficientPointsError, TableTooShortError
from ._util import SAFE_LIMIT

_SUM_BLOCK = 2**16  # entries per block of an exact prefix sum


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


def geometric_checkpoints(limit: int, start: int = 100) -> list[int]:
    """Default grid: 1 and 3 times powers of ten from `start` up to `limit`."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    xs = []
    base = 1
    while base <= limit:
        for mult in (1, 3):
            v = base * mult
            if start <= v <= limit:
                xs.append(v)
        base *= 10
    if not xs:
        return [limit]
    if xs[-1] != limit:
        xs.append(limit)
    return xs


def _validate_grid(table: repcount.RepTable, checkpoints, order: int) -> list[int]:
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


def _prefix_at(counts: np.ndarray, xs: list[int], square: bool) -> dict[int, int]:
    """Exact sums of counts[n] (or counts[n]^2) over 1 <= n <= x for each x.

    The entries between checkpoints are summed in blocks of _SUM_BLOCK. A block
    whose exact bound, top * size (top * top * size for squares, top its
    largest entry), stays below SAFE_LIMIT sums in int64; any other block alone
    is cast to Python ints. The running total is a Python int.
    """
    out: dict[int, int] = {}
    total = 0
    prev = 1
    for x in xs:
        for lo in range(prev, x + 1, _SUM_BLOCK):
            block = counts[lo : min(lo + _SUM_BLOCK, x + 1)]
            top = int(block.max())
            if not (top * top if square else top) * block.size < SAFE_LIMIT:
                block = block.astype(object)
            total += int((block * block if square else block).sum())
        out[x] = total
        prev = x + 1
    return out


def _series(table, xs, main_of, square: bool) -> list[Checkpoint]:
    sums = _prefix_at(table.counts, xs, square)
    cps = []
    for x in xs:
        main = main_of(x)
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


def mean_value_series(table: repcount.RepTable, checkpoints) -> list[Checkpoint]:
    """Sum of r_3(n) over 1 <= n <= x against the main term (4/3) pi x^{3/2}."""
    xs = _validate_grid(table, checkpoints, order=3)
    return _series(table, xs, lambda x: (4.0 / 3.0) * math.pi * x**1.5, square=False)


def mean_square_series(table: repcount.RepTable, checkpoints) -> list[Checkpoint]:
    """Sum of r_3(n)^2 over 1 <= n <= x against C3 x^2."""
    xs = _validate_grid(table, checkpoints, order=3)
    c3 = mean_square_constant()
    return _series(table, xs, lambda x: c3 * float(x) ** 2, square=True)


def mean_square_general(N: int, table: repcount.RepTable, checkpoints) -> list[Checkpoint]:
    """Sum of r_N(n)^2 over 1 <= n <= x against W_N x^{N-1}, for N > 3."""
    if N <= 3:
        raise DomainError(f"mean_square_general requires N > 3, got {N}")
    xs = _validate_grid(table, checkpoints, order=N)
    wn = w_constant(N)
    return _series(table, xs, lambda x: wn * float(x) ** (N - 1), square=True)


def fit_error_exponent(checkpoints) -> FitResult:
    """OLS on (log x, log abs_err); zero-error points are skipped."""
    pts = [
        (math.log(c.x), math.log(c.abs_err)) for c in checkpoints if c.abs_err > 0.0
    ]
    if len(pts) < 3:
        raise InsufficientPointsError(
            f"need >= 3 checkpoints with positive error, got {len(pts)}"
        )
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    if sxx == 0.0:
        raise InsufficientPointsError("checkpoints share a single x value")
    slope = float(np.sum((xs - xm) * (ys - ym))) / sxx
    intercept = ym - slope * xm
    sst = float(np.sum((ys - ym) ** 2))
    if sst == 0.0:
        r2 = 1.0
    else:
        ssr = float(np.sum((ys - intercept - slope * xs) ** 2))
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return FitResult(
        slope=slope, intercept=float(intercept), r_squared=r2, points_used=len(pts)
    )


def read_series(path) -> list[SimpleNamespace]:
    """(x, abs_err) of every data row of a series CSV, such as verify-* output.

    Comment lines and rows not led by an integer (footers) are skipped; a
    malformed data row raises DomainError.
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
        points.append(SimpleNamespace(x=x, abs_err=abs_err))
    return points


def singular_truncation_sweep(n: int, Q_grid) -> TruncationSweep:
    """Truncated count formula 2 pi sqrt(n) S3(n, Q) against exact r_3(n)."""
    qs = sorted({int(Q) for Q in Q_grid})
    if not qs:
        raise DomainError("Q grid is empty")
    if qs[0] < 1:
        raise DomainError("all Q must be >= 1")
    r3 = repcount.r3_point(n)
    trunc = singular.singular_series(n, qs[-1])
    prefix = np.cumsum(trunc.terms)
    factor = singular.bateman_factor(n)
    points = []
    for Q in qs:
        val = float(factor * prefix[Q - 1])
        abs_err = abs(val - r3)
        rel_err = abs_err / r3 if r3 > 0 else math.nan
        points.append(TruncationPoint(Q=Q, bateman=val, abs_err=abs_err, rel_err=rel_err))
    return TruncationSweep(n=n, r3=r3, points=tuple(points))
