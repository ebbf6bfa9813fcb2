"""Exact tables of r_k(n), the number of ways to write n as an ordered sum of
k squares of integers (signs and order both count, so r_2(1) = 4).

Tables are built by independent routes so they can be cross-checked entry by
entry: a direct lattice enumeration for one and two squares, an exact integer
convolution that stacks tables, and a two-square fold for k = 3. The
convolution and the fold share one shift-add kernel (_shift_add), but the
fold's input is the lattice-enumerated r_2, never the r_1 convolution chain,
so the two routes still check each other. All arithmetic is exact in int64;
the kernel detects overflow and raises instead of wrapping. Threads are capped
at the CPU count.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


def _chunk_ranges(n: int, threads: int) -> list[tuple[int, int]]:
    """Split range(n) into at most min(threads, n, os.cpu_count()) contiguous chunks."""
    threads = max(1, min(int(threads), n, os.cpu_count() or 1)) if n > 0 else 1
    if threads == 1 or n == 0:
        return [(0, n)]
    step = -(-n // threads)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _accumulate_shifts(out, offsets, weights, src, lo, hi, guarded):
    """out[n] += sum_j weights[j] * src[n - offsets[j]] for lo <= n < hi.

    Only out[lo:hi] is touched, so disjoint ranges are safe to run in
    parallel. In guarded mode every product and every running sum is checked
    against the int64 ceiling; terms are non-negative, so a wrap is visible
    as a negative entry immediately after the add that caused it.
    """
    for off, w in zip(offsets, weights):
        off = int(off)
        if off >= hi:
            break
        w = int(w)
        if w == 0:
            continue
        start = max(lo, off)
        seg = src[start - off : hi - off]
        if guarded:
            top = int(seg.max(initial=0))
            if top and w > _I64_MAX // top:
                raise CountOverflowError(
                    f"count product {w}*{top} exceeds 64-bit range"
                )
        out[start:hi] += w * seg
        if guarded and seg.size and int(out[start:hi].min()) < 0:
            raise CountOverflowError("count accumulator exceeds 64-bit range")


def _run_chunked(apply_chunk, x: int, threads: int):
    chunks = _chunk_ranges(x + 1, threads)
    if len(chunks) == 1:
        apply_chunk(*chunks[0])
        return
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(apply_chunk, lo, hi) for lo, hi in chunks]
        for fut in futures:
            fut.result()


def _shift_add(offsets, weights, src: np.ndarray, x: int, threads: int) -> np.ndarray:
    """Exact out[n] = sum_j weights[j] * src[n - offsets[j]] for n <= x.

    Offsets ascend. Accumulation is unguarded only when a conservative bound
    on every entry stays below SAFE_LIMIT.
    """
    out = np.zeros(x + 1, dtype=np.int64)
    bound = float(np.sum(weights, dtype=np.float64)) * float(src.max()) * 1.01
    guarded = not bound < SAFE_LIMIT

    def chunk(lo, hi):
        _accumulate_shifts(out, offsets, weights, src, lo, hi, guarded)

    _run_chunked(chunk, x, threads)
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
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("n,count\n")
        fh.writelines(f"{n},{c}\n" for n, c in enumerate(table.counts))


def load_csv(path, order: int, builder_tag: str = TAG_FILE) -> RepTable:
    """Read a table written by save_csv. The CSV carries no order, so the
    caller must state it. Malformed content of any kind raises DomainError."""
    values: list[int] = []
    with open(path, newline="", errors="replace") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(rows, None)
            if header != ["n", "count"]:
                raise DomainError(f"expected header n,count, got {header}")
            for i, (n, c) in enumerate(rows):
                if int(n) != i:
                    raise DomainError(f"rows out of order at line {i + 2}")
                values.append(int(c))
        except (ValueError, csv.Error) as exc:
            raise DomainError(f"line {len(values) + 2} is not an n,count row: {exc}") from None
    if not values:
        raise DomainError("table file has no rows")
    try:
        counts = np.array(values, dtype=np.int64)
    except OverflowError:
        raise DomainError("a count lies outside the 64-bit range") from None
    return RepTable(
        order=order, limit=len(values) - 1, counts=counts, builder_tag=builder_tag
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
