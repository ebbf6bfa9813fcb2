"""Exact tables of r_k(n), the number of ways to write n as an ordered sum of
k squares of integers (signs and order both count, so r_2(1) = 4).

Tables are built by independent routes so they can be cross-checked entry by
entry: a direct lattice enumeration for one and two squares, an exact integer
convolution that stacks tables, and a two-square fold for k = 3. Every builder
is made of passes of one square-shift kernel (_add_squares), the convolution
with r_1: it adds copies of a table shifted by the squares m^2, with weight 1
at m = 0 and 2 at m >= 1. The fold's input is the lattice-enumerated r_2,
never the r_1 convolution chain, so the two routes still check each other.
The kernel builds its output in cache-sized tiles (_TILE_BYTES each). All
arithmetic is exact: each pass runs in the narrowest of int16, int32 and
int64 that holds its a-priori bound on every partial sum, so a narrow pass
cannot overflow and runs unchecked. In int64, a tile whose bound stays below
SAFE_LIMIT runs unchecked, any other checks each add and the doubling and
raises instead of wrapping. Tiles are dealt to threads in turn; threads are
capped at the CPU count.
"""

from __future__ import annotations

import math
import os
import re
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CountOverflowError, DomainError, TableTooShortError
from ._util import SAFE_LIMIT, atomic_write

_I64_MAX = (1 << 63) - 1
_TILE_BYTES = 2**19  # bytes per shift-add output tile, resident in L2
_CSV_CHUNK = 2**16  # table rows formatted per write

_BINARY_MAGIC = b"RKTB"
_HEADER = struct.Struct("<4sIQ")


@dataclass(frozen=True, eq=False)
class RepTable:
    """Immutable counts r_k(n) for 0 <= n <= limit."""

    order: int
    limit: int
    counts: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DomainError(f"order must be >= 1, got {self.order}")
        if self.limit < 0:
            raise DomainError(f"limit must be >= 0, got {self.limit}")
        c = np.asarray(self.counts)
        if c.dtype != np.int64:
            c = c.astype(np.int64)
        if c.shape != (self.limit + 1,):
            raise DomainError(
                f"counts length {c.shape} does not match limit {self.limit}"
            )
        if c.size and int(c.min()) < 0:
            raise DomainError("counts must be non-negative")
        if c.flags.writeable:
            c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def _tile_plan(src: np.ndarray, x: int, threads: int):
    """The width and output tiles of one _add_squares pass: (dtype, workers),
    where workers holds one list of tiles (lo, hi, guarded) for each of
    min(threads, tiles, os.cpu_count()) workers, dealt round-robin.

    Work per entry grows with the number of squares below it, so dealing tiles
    in turn balances the workers where contiguous halves would not. An entry
    n < hi adds 1 + 2 * isqrt(hi - 1) weighted copies of src at most, so that
    count times max(src[0:hi]) times 1.01 bounds every partial sum written
    into the tile. The pass runs in the narrowest of int16, int32 and int64
    whose maximum is above both the last tile's bound, the largest, and
    max(src[0:x + 1]), so casting src to it is exact; a tile holds
    _TILE_BYTES of that width. A narrow pass cannot overflow and is never
    guarded; an int64 tile is unguarded only when its bound stays below
    SAFE_LIMIT. The maxima are kept running over blocks of one int64 tile, so
    no x-sized array is made.
    """
    block = _TILE_BYTES // 8  # an int64 tile; narrower tiles span 2 or 4 blocks
    tops = np.maximum.accumulate(
        np.maximum.reduceat(src[: x + 1], np.arange(0, x + 1, block))
    )

    def bound(hi):
        top = float(tops[(hi - 1) // block])
        return (1 + 2 * math.isqrt(hi - 1)) * top * 1.01

    need = max(bound(x + 1), float(tops[-1]))
    dtype = next((t for t in (np.int16, np.int32) if need < np.iinfo(t).max), np.int64)
    size = _TILE_BYTES // np.dtype(dtype).itemsize
    tiles = []
    for lo in range(0, x + 1, size):
        hi = min(lo + size, x + 1)
        tiles.append((lo, hi, not bound(hi) < SAFE_LIMIT))
    workers = max(1, min(int(threads), len(tiles), os.cpu_count() or 1))
    return dtype, [tiles[i::workers] for i in range(workers)]


def _add_tile(tile, lo, src, guarded: bool) -> None:
    """Fill the zeroed tile, which starts at entry lo, with
    src[n] + 2 * sum over 1 <= m, m^2 <= n of src[n - m^2].

    Each shifted segment is summed straight into the tile, which is then
    doubled once and the m = 0 segment added. A guarded tile checks every add
    and the doubling: terms are non-negative, so a wrap shows as a negative
    entry right after the add that caused it.
    """
    hi = lo + tile.size
    for m in range(1, math.isqrt(hi - 1) + 1):
        sq = m * m
        start = max(lo, sq)
        dst = tile[start - lo :]
        dst += src[start - sq : hi - sq]
        if guarded and int(dst.min()) < 0:
            raise CountOverflowError("count accumulator exceeds 64-bit range")
    if guarded and int(tile.max()) > _I64_MAX // 2:
        raise CountOverflowError("doubled count exceeds 64-bit range")
    tile *= 2
    tile += src[lo:hi]
    if guarded and int(tile.min()) < 0:
        raise CountOverflowError("count accumulator exceeds 64-bit range")


def _add_squares(src: np.ndarray, x: int, threads: int) -> np.ndarray:
    """Exact out[n] = src[n] + 2 * sum over 1 <= m, m^2 <= n of src[n - m^2]
    for n <= x: src convolved with r_1.

    The output has the pass's width (see _tile_plan): the narrowest of int16,
    int32 and int64 that holds its bound. Only the int64 tiles whose bound
    reaches SAFE_LIMIT are checked.
    """
    dtype, plan = _tile_plan(src, x, threads)
    src = src[: x + 1].astype(dtype, copy=False)  # exact: the width holds every entry
    out = np.zeros(x + 1, dtype=dtype)

    def run(tiles):
        for lo, hi, guarded in tiles:
            _add_tile(out[lo:hi], lo, src, guarded)

    if len(plan) == 1:
        run(plan[0])
        return out
    from concurrent.futures import ThreadPoolExecutor  # local: only a multi-worker pass uses it

    with ThreadPoolExecutor(max_workers=len(plan)) as pool:
        for fut in [pool.submit(run, tiles) for tiles in plan]:
            fut.result()
    return out


def build_r1(x: int) -> RepTable:
    """Counts for one square: 2 at positive perfect squares, 1 at 0."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    counts = np.zeros(x + 1, dtype=np.int64)
    counts[0] = 1
    roots = np.arange(1, math.isqrt(x) + 1, dtype=np.int64)
    counts[roots * roots] = 2
    return RepTable(order=1, limit=x, counts=counts)


def _r2_lattice(x: int) -> np.ndarray:
    """r_2 counts by direct enumeration, one lattice row at a time, in int32.

    Every nonzero pair turns by quarter turns into exactly one pair (a, b) with
    a >= 1 and b >= 0, so row a adds 4 at a^2 + b^2 for each b; the origin
    counts 1. r_2(n) <= 4 d(n) stays far below 2^31.
    """
    counts = np.zeros(x + 1, dtype=np.int32)
    counts[0] = 1
    squares = np.arange(math.isqrt(x) + 1, dtype=np.int64) ** 2
    for a in range(1, squares.size):
        # the indices of one row are distinct, so the buffered += adds each 4
        counts[a * a + squares[: math.isqrt(x - a * a) + 1]] += 4
    return counts


def build_r3_fold(x: int, threads: int = 1) -> RepTable:
    """Three-square counts via r_3(n) = sum over m^2 <= n of r_2(n - m^2).

    The r_2 input comes from lattice enumeration, not from convolving r_1
    tables, so this builder and build_rk cross-validate each other.
    """
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    counts = _add_squares(_r2_lattice(x), x, threads)
    return RepTable(order=3, limit=x, counts=counts)


def r3_point(n: int) -> int:
    """Slow exact r_3(n) for spot checks: enumerate two coordinates, test the rest."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    total = 0
    for m1 in range(math.isqrt(n) + 1):
        w1 = 2 if m1 else 1
        rem1 = n - m1 * m1
        for m2 in range(math.isqrt(rem1) + 1):
            rem = rem1 - m2 * m2
            root = math.isqrt(rem)
            if root * root == rem:
                w = w1 * (2 if m2 else 1) * (2 if root else 1)
                total += w
    return total


def build_rk(x: int, k: int, threads: int = 1) -> RepTable:
    """r_k table by iterated convolution against the one-square table: k - 1
    passes of the square-shift kernel over r_1."""
    if k < 1:
        raise DomainError(f"order must be >= 1, got {k}")
    if k == 1:
        return build_r1(x)
    counts = build_r1(x).counts  # r_1 is not kept: each pass holds only its source
    for _ in range(k - 1):
        counts = _add_squares(counts, x, threads)
    return RepTable(order=k, limit=x, counts=counts)


def save_csv(table: RepTable, path, header_comment: str | None = None) -> None:
    """Write `n,count` rows, atomically; an optional single comment line goes first."""
    with atomic_write(path) as fh:
        counts = np.asarray(table.counts)
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("n,count\n")
        for lo in range(0, counts.size, _CSV_CHUNK):  # Python ints, a chunk at a time
            chunk = counts[lo : lo + _CSV_CHUNK]
            pairs = np.empty(2 * chunk.size, dtype=np.int64)
            pairs[0::2] = np.arange(lo, lo + chunk.size)
            pairs[1::2] = chunk
            fh.write(("%d,%d\n" * chunk.size) % tuple(pairs.tolist()))


def load_csv(path, order: int) -> RepTable:
    """Read a table written by save_csv. The CSV carries no order, so the
    caller must state it. Malformed content of any kind raises DomainError."""
    # A valid table is ASCII. Decoding every other byte to U+FFFD also keeps
    # loadtxt from the code points that crash its parser (numpy 2.4.6).
    with open(path, newline="", encoding="ascii", errors="replace") as fh:
        header = fh.readline()
        while header.startswith("#"):  # comment lines come only before the header
            header = fh.readline()
        if header.rstrip("\r\n") != "n,count":
            raise DomainError(f"expected header n,count, got {header.strip()!r}")
        try:
            with warnings.catch_warnings():  # an empty body is reported below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            cell = re.search(r"string '(.*)' to int64", str(exc))
            if cell and re.fullmatch(r"\s*[+-]?[0-9]+\s*", cell.group(1)):
                raise DomainError("a cell lies outside the 64-bit range") from None
            raise DomainError(f"a row is not an n,count row: {exc}") from None
    if rows.size == 0:
        raise DomainError("table file has no rows")
    if rows.shape[1] != 2:
        raise DomainError(f"rows have {rows.shape[1]} cells; not an n,count row")
    bad = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
    if bad.size:
        raise DomainError(f"rows out of order at line {bad[0] + 2}")
    return RepTable(order=order, limit=len(rows) - 1, counts=rows[:, 1].copy())


def load_table(path, order: int, limit: int) -> RepTable:
    """Read a table of the given order covering at least `limit`, in either
    format; the binary magic tells them apart."""
    with open(path, "rb") as fh:
        binary = fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
    table = load_binary(path) if binary else load_csv(path, order=order)
    if table.order != order:
        raise DomainError(f"table {path} has order {table.order}, expected {order}")
    if table.limit < limit:
        raise TableTooShortError(f"table {path} covers n <= {table.limit}, not {limit}")
    return table


def save_binary(table: RepTable, path) -> None:
    """Compact dump, written atomically: 16-byte header (magic, k, x), then
    little-endian 64-bit counts."""
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, table.order, table.limit))
        # counts are non-negative, so their int64 bytes are their uint64 bytes;
        # the buffer is written as it is, without a copy
        fh.write(np.ascontiguousarray(table.counts, dtype="<i8").data)


def load_binary(path) -> RepTable:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise DomainError("truncated table file")
        magic, order, limit = _HEADER.unpack(head)
        if magic != _BINARY_MAGIC:
            raise DomainError(f"bad magic {magic!r}")
        body = fh.read()
    expected = (limit + 1) * 8
    if len(body) != expected:
        raise DomainError(
            f"table body has {len(body)} bytes, expected {expected}"
        )
    raw = np.frombuffer(body, dtype="<u8")
    if raw.size and int(raw.max()) > _I64_MAX:
        raise CountOverflowError("stored count exceeds 63-bit range")
    counts = raw.view("<i8")  # every count is below 2^63: the same bytes as int64
    return RepTable(order=order, limit=limit, counts=counts)
