"""Exact tables of r_k(n), the number of ways to write n as an ordered sum of
k squares of integers (signs and order both count, so r_2(1) = 4).

Tables are built by independent routes so they can be cross-checked entry by
entry: a direct lattice enumeration for one and two squares, an exact integer
convolution that stacks tables, and a two-square fold for k = 3. The
convolution and the fold share one shift-add kernel (_shift_add), but the
fold's input is the lattice-enumerated r_2, never the r_1 convolution chain,
so the two routes still check each other. The kernel builds its output in
cache-sized tiles (_TILE entries), each taking every shifted source segment
that reaches it. All arithmetic is exact in int64: a tile whose a-priori bound
stays below SAFE_LIMIT runs unchecked, any other checks every product and sum
and raises instead of wrapping. Tiles are dealt to threads in turn; threads
are capped at the CPU count.
"""

from __future__ import annotations

import math
import os
import re
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import CountOverflowError, DomainError, TableTooShortError
from ._util import SAFE_LIMIT, atomic_write

TAG_DIRECT = "direct-lattice"
TAG_CONVOLUTION = "convolution"
TAG_FOLD = "two-square-fold"
TAG_POSITIVE = "positive-only"
TAG_FILE = "file"

BUILDER_TAGS = frozenset(
    {TAG_DIRECT, TAG_CONVOLUTION, TAG_FOLD, TAG_POSITIVE, TAG_FILE}
)

_I64_MAX = (1 << 63) - 1
_TILE = 2**15  # output entries per shift-add tile: 256 KiB of int64, resident in L2
_CSV_CHUNK = 2**16  # table rows formatted per write

_BINARY_MAGIC = b"RKTB"
_HEADER = struct.Struct("<4sIQ")


@dataclass(frozen=True, eq=False)
class RepTable:
    """Immutable counts r_k(n) for 0 <= n <= limit, with builder provenance."""

    order: int
    limit: int
    counts: np.ndarray
    builder_tag: str

    def __post_init__(self):
        if self.order < 1:
            raise DomainError(f"order must be >= 1, got {self.order}")
        if self.limit < 0:
            raise DomainError(f"limit must be >= 0, got {self.limit}")
        if self.builder_tag not in BUILDER_TAGS:
            raise DomainError(f"unknown builder_tag {self.builder_tag!r}")
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


def _tile_plan(offsets, weights, src: np.ndarray, x: int, threads: int):
    """The output tiles (lo, hi, guarded) of _shift_add, dealt round-robin to
    min(threads, tiles, os.cpu_count()) workers: one list of tiles per worker.

    Work per entry grows with the number of offsets below it, so dealing tiles
    in turn balances the workers where contiguous halves would not. A tile is
    unguarded only when (sum of the weights at offsets below hi) *
    max(src[0:hi]) * 1.01 < SAFE_LIMIT: that bounds every product and every
    partial sum written into it, since each entry n < hi adds w * src[n - off]
    over off <= n. The maximum is kept running from tile to tile, so no
    x-sized array is made.
    """
    offsets = np.asarray(offsets)
    below = np.cumsum(np.asarray(weights, dtype=np.float64))
    tiles = []
    top = 0
    for lo in range(0, x + 1, _TILE):
        hi = min(lo + _TILE, x + 1)
        top = max(top, int(src[lo:hi].max()))
        k = int(np.searchsorted(offsets, hi))  # offsets ascend: these are < hi
        bound = (float(below[k - 1]) if k else 0.0) * float(top) * 1.01
        tiles.append((lo, hi, not bound < SAFE_LIMIT))
    workers = max(1, min(int(threads), len(tiles), os.cpu_count() or 1))
    return [tiles[i::workers] for i in range(workers)]


def _add_tile(tile, lo, runs, src, acc) -> None:
    """tile[n - lo] += w * src[n - off] for every offset off <= n of every run
    (w, offsets), over the entries n of the tile, which starts at lo.

    The segments of a run of several offsets are summed in `acc` (scratch of
    at least the tile's size) and scaled by w once, so the fold's weight-2 run
    costs one add per segment, not a multiply and an add. Unchecked: the
    tile's plan bound covers it.
    """
    hi = lo + tile.size
    for w, offsets in runs:
        if offsets[0] >= hi:
            break
        base = max(lo, offsets[0])  # the run reaches the entries n >= base
        grouped = w != 1 and len(offsets) > 1
        sums = acc[: hi - base] if grouped else tile[base - lo :]
        if grouped:
            sums.fill(0)
        for off in offsets:
            if off >= hi:
                break
            start = max(lo, off)
            seg = src[start - off : hi - off]
            if w != 1 and not grouped:
                seg = np.multiply(seg, w, out=acc[: seg.size])
            sums[start - base :] += seg
        if grouped:
            sums *= w
            tile[base - lo :] += sums


def _add_tile_checked(tile, lo, runs, src, acc) -> None:
    """_add_tile one product at a time, for a tile whose bound fails.

    Every product and every running sum is checked against the int64 ceiling;
    terms are non-negative, so a wrap is visible as a negative entry
    immediately after the add that caused it.
    """
    hi = lo + tile.size
    for w, offsets in runs:
        for off in offsets:
            if off >= hi:
                return
            start = max(lo, off)
            seg = src[start - off : hi - off]
            top = int(seg.max())
            if top and w > _I64_MAX // top:
                raise CountOverflowError(
                    f"count product {w}*{top} exceeds 64-bit range"
                )
            dst = tile[start - lo :]
            dst += np.multiply(seg, w, out=acc[: seg.size])
            if int(dst.min()) < 0:
                raise CountOverflowError("count accumulator exceeds 64-bit range")


def _shift_add(offsets, weights, src: np.ndarray, x: int, threads: int) -> np.ndarray:
    """Exact out[n] = sum_j weights[j] * src[n - offsets[j]] for n <= x.

    Offsets ascend and weights are non-negative. The output is built one
    cache-sized tile at a time, each tile taking every offset below its end;
    only the tiles whose bound (see _tile_plan) reaches SAFE_LIMIT are checked.
    """
    out = np.zeros(x + 1, dtype=np.int64)
    plan = _tile_plan(offsets, weights, src, x, threads)
    # runs (w, offsets) of consecutive offsets sharing one nonzero weight
    pairs = groupby(zip(map(int, offsets), map(int, weights)), key=itemgetter(1))
    runs = [(w, [off for off, _ in group]) for w, group in pairs if w]

    def run(tiles):
        acc = np.empty(_TILE, dtype=np.int64)
        for lo, hi, guarded in tiles:
            add = _add_tile_checked if guarded else _add_tile
            add(out[lo:hi], lo, runs, src, acc)

    if len(plan) == 1:
        run(plan[0])
        return out
    with ThreadPoolExecutor(max_workers=len(plan)) as pool:
        for fut in [pool.submit(run, tiles) for tiles in plan]:
            fut.result()
    return out


def _convolve_counts(c1: np.ndarray, c2: np.ndarray, x: int, threads: int) -> np.ndarray:
    """Exact out[n] = sum_{m<=n} c1[m]*c2[n-m] for n <= x, overflow-checked."""
    c1 = c1[: x + 1]
    c2 = c2[: x + 1]
    # iterate over the sparser factor; a chain of r_1 convolutions then costs
    # O(sqrt(x)) vector adds instead of O(x)
    if np.count_nonzero(c1) > np.count_nonzero(c2):
        c1, c2 = c2, c1
    offsets = np.flatnonzero(c1)
    if offsets.size == 0:
        return np.zeros(x + 1, dtype=np.int64)
    return _shift_add(offsets, c1[offsets], c2, x, threads)


def build_r1(x: int) -> RepTable:
    """Counts for one square: 2 at positive perfect squares, 1 at 0."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    counts = np.zeros(x + 1, dtype=np.int64)
    counts[0] = 1
    roots = np.arange(1, math.isqrt(x) + 1, dtype=np.int64)
    counts[roots * roots] = 2
    return RepTable(order=1, limit=x, counts=counts, builder_tag=TAG_DIRECT)


def convolve(t1: RepTable, t2: RepTable, x: int, threads: int = 1) -> RepTable:
    """Additive stacking: result counts r_{k1+k2}(n) = sum_m r_k1(m) r_k2(n-m)."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    if t1.limit < x or t2.limit < x:
        raise TableTooShortError(
            f"need tables covering {x}, got limits {t1.limit} and {t2.limit}"
        )
    counts = _convolve_counts(t1.counts, t2.counts, x, threads)
    return RepTable(
        order=t1.order + t2.order,
        limit=x,
        counts=counts,
        builder_tag=TAG_CONVOLUTION,
    )


def _r2_lattice(x: int) -> np.ndarray:
    """r_2 counts by direct enumeration of the non-negative quadrant.

    A pair with both coordinates positive stands for 4 signed pairs; a pair
    on an axis stands for 2; the origin for 1.
    """
    counts = np.zeros(x + 1, dtype=np.int64)
    counts[0] = 1
    amax = math.isqrt(x)
    if amax == 0:
        return counts
    roots = np.arange(1, amax + 1, dtype=np.int64)
    counts[roots * roots] += 4
    batch: list[np.ndarray] = []
    batched = 0
    for a in range(1, amax + 1):
        bmax = math.isqrt(x - a * a)
        if bmax == 0:
            continue
        b = np.arange(1, bmax + 1, dtype=np.int64)
        batch.append(a * a + b * b)
        batched += bmax
        if batched >= 4_000_000:
            counts += 4 * np.bincount(np.concatenate(batch), minlength=x + 1)
            batch, batched = [], 0
    if batch:
        counts += 4 * np.bincount(np.concatenate(batch), minlength=x + 1)
    return counts


def build_r3_fold(x: int, threads: int = 1) -> RepTable:
    """Three-square counts via r_3(n) = sum over m^2 <= n of r_2(n - m^2).

    The r_2 input comes from lattice enumeration, not from convolving r_1
    tables, so this builder and build_rk cross-validate each other.
    """
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    mmax = math.isqrt(x)
    squares = [m * m for m in range(mmax + 1)]
    weights = [1] + [2] * mmax
    counts = _shift_add(squares, weights, _r2_lattice(x), x, threads)
    return RepTable(order=3, limit=x, counts=counts, builder_tag=TAG_FOLD)


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


def build_rstar(x: int, threads: int = 1) -> RepTable:
    """Counts of n as a sum of three squares of strictly positive integers."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    s1 = np.zeros(x + 1, dtype=np.int64)
    roots = np.arange(1, math.isqrt(x) + 1, dtype=np.int64)
    s1[roots * roots] = 1
    s2 = _convolve_counts(s1, s1, x, threads)
    s3 = _convolve_counts(s2, s1, x, threads)
    return RepTable(order=3, limit=x, counts=s3, builder_tag=TAG_POSITIVE)


def is_representable(n: int) -> bool:
    """Three-square criterion: false exactly for n = 4^a (8k + 7)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7


def build_rk(x: int, k: int, threads: int = 1) -> RepTable:
    """r_k table by iterated convolution against the one-square table."""
    if k < 1:
        raise DomainError(f"order must be >= 1, got {k}")
    r1 = build_r1(x)
    if k == 1:
        return r1
    table = r1
    for _ in range(k - 1):
        table = convolve(table, r1, x, threads=threads)
    return table


def save_csv(table: RepTable, path, header_comment: str | None = None) -> None:
    """Write `n,count` rows, atomically; an optional single comment line goes first."""
    with atomic_write(path) as fh:
        counts = np.asarray(table.counts)
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("n,count\n")
        for lo in range(0, counts.size, _CSV_CHUNK):  # Python ints, a chunk at a time
            chunk = counts[lo : lo + _CSV_CHUNK].tolist()
            fh.write("".join([f"{n},{c}\n" for n, c in enumerate(chunk, lo)]))


def load_csv(path, order: int, builder_tag: str = TAG_FILE) -> RepTable:
    """Read a table written by save_csv. The CSV carries no order, so the
    caller must state it. Malformed content of any kind raises DomainError."""
    # A valid table is ASCII. Decoding every other byte to U+FFFD also keeps
    # loadtxt from the code points that crash its parser (numpy 2.4.6).
    with open(path, newline="", encoding="ascii", errors="replace") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        header = next(lines, "")
        if header.rstrip("\r\n") != "n,count":
            raise DomainError(f"expected header n,count, got {header.strip()!r}")
        try:
            with warnings.catch_warnings():  # an empty body is reported below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
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
    return RepTable(
        order=order, limit=len(rows) - 1, counts=rows[:, 1].copy(), builder_tag=builder_tag
    )


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
        fh.write(np.ascontiguousarray(table.counts, dtype="<u8").tobytes())


def load_binary(path, builder_tag: str = TAG_FILE) -> RepTable:
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
    counts = raw.astype(np.int64)
    return RepTable(order=order, limit=limit, counts=counts, builder_tag=builder_tag)
