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

Table files: a CSV is any `#` lines, the header `n,count`, then one row per n
from 0 up, both cells unsigned decimal without leading zeros, each line ended
by LF or CRLF (the last may lack it); a binary file is a 16-byte header, then
little-endian int64 counts. A built table keeps the width of its last pass
(a fold table to 10^8 is int32, 4 B per entry): save_binary widens it to
int64 one chunk at a time, and save_csv formats each chunk at its own width.
TableFile is the one reader of either format. It takes a limit and reads the
rows 0..limit once, as int64 blocks in row order: a CSV parsed _CSV_BLOCK
bytes at a time, a binary body read _BIN_CHUNK counts at a time into one
reused buffer. So a sum over a file holds one block at any limit
(verify-meansquare --table r3.bin peaks at 33 MiB at 10^6 and at 10^7,
against 29 MiB for a run that loads numpy and does no work).
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CountOverflowError, DomainError, TableTooShortError
from ._util import SAFE_LIMIT, atomic_write

_I64_MAX = (1 << 63) - 1
_TILE_BYTES = 2**19  # bytes per shift-add output tile, resident in L2
_CSV_CHUNK = 2**16  # table rows formatted per write
_BIN_CHUNK = 2**16  # counts per binary write, and per block read
_CSV_BLOCK = 2**16  # bytes of a CSV table parsed at a time

_BINARY_MAGIC = b"RKTB"
_HEADER = struct.Struct("<4sIQ")


@dataclass(frozen=True, eq=False)
class RepTable:
    """Immutable counts r_k(n) for 0 <= n <= limit.

    Counts of int16, int32 or int64 keep their width: a built table holds the
    output of its last _add_squares pass, with no int64 copy, and a caller's
    array is shared through a read-only view (the caller's stays writable).
    Any other dtype is converted to int64. A reader that squares or sums the
    counts must widen them first (verify._chunk_sum widens one chunk at a time).
    """

    order: int
    limit: int
    counts: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DomainError(f"order must be >= 1, got {self.order}")
        if self.limit < 0:
            raise DomainError(f"limit must be >= 0, got {self.limit}")
        c = np.asarray(self.counts)
        if c.dtype not in (np.int16, np.int32, np.int64):
            c = c.astype(np.int64)
        if c.shape != (self.limit + 1,):
            raise DomainError(
                f"counts length {c.shape} does not match limit {self.limit}"
            )
        if c.size and int(c.min()) < 0:
            raise DomainError("counts must be non-negative")
        c = c.view()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def blocks(self) -> Iterator[np.ndarray]:
        """The counts as one block, as TableFile.blocks gives a file's."""
        return iter((self.counts,))


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
    """Counts for one square: 2 at positive perfect squares, 1 at 0, in int16."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    counts = np.zeros(x + 1, dtype=np.int16)
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
    """Slow exact r_3(n) for spot checks, by enumeration alone: for each m1,
    every m2 with m1^2 + m2^2 <= n at once, and whether the rest is a square.
    The float square root of the rest is within one of its integer root: one
    below is corrected in int64, and one above squares past the rest, so it
    counts nothing, as it should. n stays below 2^62, so no square wraps."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n >= 1 << 62:
        raise DomainError(f"n must be < 2^62, got {n}")
    squares = np.arange(math.isqrt(n) + 1, dtype=np.int64) ** 2
    total = 0
    for m1 in range(squares.size):
        rem1 = n - m1 * m1
        rem = rem1 - squares[: math.isqrt(rem1) + 1]
        root = np.sqrt(rem, dtype=np.float64).astype(np.int64)
        root += (root + 1) * (root + 1) <= rem
        m2 = np.flatnonzero(root * root == rem)
        weights = (1 + (m2 > 0)) * (1 + (root[m2] > 0))  # 2 for each nonzero coordinate
        total += (2 if m1 else 1) * int(weights.sum())
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
    """Write `n,count` rows, atomically; an optional single comment line goes first.
    A chunk's rows are uint8 rows of right-aligned digits, less their zero padding."""
    if header_comment and ("\r" in header_comment or "\n" in header_comment):
        raise DomainError("a header comment must be one line, without CR or LF")
    with atomic_write(path, binary=True) as fh:
        counts = np.asarray(table.counts)
        if header_comment:
            fh.write(f"# {header_comment}\n".encode())
        fh.write(b"n,count\n")
        for lo in range(0, counts.size, _CSV_CHUNK):
            chunk = counts[lo : lo + _CSV_CHUNK]
            wn, wc = len(str(lo + chunk.size - 1)), len(str(int(chunk.max())))
            rows = np.zeros((chunk.size, wn + wc + 2), dtype=np.uint8)
            rows[:, wn], rows[:, -1] = ord(","), ord("\n")
            for q, end, width in ((np.arange(lo, lo + chunk.size), wn, wn), (chunk, wn + wc + 1, wc)):
                for j in range(1, width + 1):  # left of a leading digit, q is 0: padding
                    rows[:, end - j] = np.where((q > 0) | (j == 1), q % 10 + ord("0"), 0)
                    q = q // 10
            fh.write(rows[rows != 0])


def _parse_rows(seg: bytes, row: int, line: int) -> np.ndarray:
    """The int64 counts of whole `n,count` LF-ended lines whose n must run from
    `row` up; `line` is the file line number of the first one."""
    b = np.frombuffer(seg, dtype=np.uint8)
    digits = b - np.uint8(ord("0"))  # every other byte wraps to 10 or more
    ends = np.flatnonzero(digits > 9)  # a comma, then an LF, in every row
    starts = np.concatenate(([0], ends[:-1] + 1))
    sizes = ends - starts  # no cell is written empty or with a leading zero
    if (ends.size % 2 or (b[ends[0::2]] != ord(",")).any() or (b[ends[1::2]] != ord("\n")).any()
            or sizes.min() < 1 or ((digits[starts] == 0) & (sizes > 1)).any()):
        raise DomainError("a row is not an n,count row")
    if sizes.max() > 19:
        raise DomainError("a cell lies outside the 64-bit range")
    n, count = np.zeros((2, ends.size // 2), dtype=np.uint64)  # 19 digits stay below 2^64
    for k, cells in enumerate((n, count)):
        last, size = ends[k::2] - 1, sizes[k::2]
        for j in range(int(size.max())):  # the j-th digit from the right, or 0
            cells += digits[last - j] * (size > j) * np.uint64(10**j)
    if max(int(n.max()), int(count.max())) > _I64_MAX:
        raise DomainError("a cell lies outside the 64-bit range")
    bad = np.flatnonzero(n.view(np.int64) != np.arange(row, row + n.size))
    if bad.size:
        raise DomainError(f"rows out of order at line {line + bad[0]}")
    return count.view(np.int64)


def _csv_lines(fh, rows: int) -> Iterator[bytes]:
    """Up to `rows` whole lines of fh from where it stands, CRLF read as LF, in
    segments of about _CSV_BLOCK bytes: each block read is cut after its last
    LF, or after the LF of the last line wanted. A last line without its LF is
    given one."""
    tail = b""
    while rows > 0 and (block := fh.read(_CSV_BLOCK)):
        # a CR left at a block's end waits in the tail for its LF; a lone CR stays
        seg = (tail + block).replace(b"\r\n", b"\n")
        cut = seg.rfind(b"\n") + 1
        lines = seg.count(b"\n", 0, cut)
        if lines > rows:  # the last line wanted ends in this block
            cut = int(np.flatnonzero(np.frombuffer(seg, dtype=np.uint8) == ord("\n"))[rows - 1]) + 1
            lines = rows
        rows -= lines
        tail = seg[cut:]
        if cut:
            yield seg[:cut]
        if len(tail) > 40 and rows > 0:  # longer than any row: 19 digits, a comma, 19, a CR
            raise DomainError("a row is not an n,count row")
    if rows > 0 and tail:  # the file ended
        yield tail + b"\n"


def _csv_blocks(fh, path, order: int, limit: int) -> Iterator[np.ndarray]:
    """The counts of the rows 0..limit of the CSV table open in fh, or of every
    row if it has fewer, as int64 blocks in row order, one per segment of
    _csv_lines; the rest of the file is not read. The CSV carries no order, so
    rows 0 and 1, when read, must be r_k(0) = 1 and r_k(1) = 2k for the order
    the caller states. Malformed content raises DomainError."""
    line = 1
    while (header := fh.readline(9)).startswith(b"#"):  # comments come only before the header
        while header and not header.endswith(b"\n"):  # the rest of a long comment
            header = fh.readline(_CSV_BLOCK)
        line += 1
    if header not in (b"n,count\n", b"n,count\r\n", b"n,count"):
        got = header[:40].decode("ascii", "replace").strip()
        raise DomainError(f"expected header n,count, got {got!r}")
    if os.fstat(fh.fileno()).st_size == fh.tell():
        raise DomainError("table file has no rows")

    def check(head):  # r_k(0) = 1 and r_k(1) = 2k tell the order
        if head != [1, 2 * order][: len(head)]:
            got = ", ".join(f"r({i}) = {c}" for i, c in enumerate(head))
            raise DomainError(f"table {path} has {got}; "
                              f"an order-{order} table has r(0) = 1, r(1) = {2 * order}")

    row, head = 0, []
    for seg in _csv_lines(fh, limit + 1):
        counts = _parse_rows(seg, row, line + 1 + row)
        row += counts.size
        if len(head) < 2:
            head += counts[: 2 - len(head)].tolist()
            if len(head) == 2:
                check(head)
        yield counts
    if len(head) < 2:  # one row was read
        check(head)


def _binary_header(fh) -> tuple[int, int]:
    """The order and stored limit in the header of the binary table open in
    fh, which starts with the magic; the body's size is checked against the
    file's."""
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise DomainError("truncated table file")
    _, order, stored = _HEADER.unpack(head)
    size, expected = os.fstat(fh.fileno()).st_size - _HEADER.size, (stored + 1) * 8
    if size != expected:
        raise DomainError(f"table body has {size} bytes, expected {expected}")
    return order, stored


def _binary_blocks(fh, rows: int) -> Iterator[np.ndarray]:
    """The first `rows` counts of the binary body that fh stands at, in blocks
    read into one reused buffer of _BIN_CHUNK counts: a block holds its
    values only until the next is asked for."""
    buf = np.empty(min(rows, _BIN_CHUNK), dtype="<i8")
    for lo in range(0, rows, _BIN_CHUNK):
        block = buf[: rows - lo]
        if fh.readinto(block) != block.nbytes:
            raise DomainError("table file changed while it was read")
        if int(block.min()) < 0:  # a stored count of 2^63 or more reads as negative
            raise CountOverflowError("stored count exceeds 63-bit range")
        yield block


def _check_covers(path, order: int, limit: int, got_order: int, got_limit: int) -> None:
    if got_order != order:
        raise DomainError(f"table {path} has order {got_order}, expected {order}")
    if got_limit < limit:
        raise TableTooShortError(f"table {path} covers n <= {got_limit}, not {limit}")


@dataclass(frozen=True)
class TableFile:
    """The counts 0..limit of an order-`order` table file in either format,
    read as a stream: blocks() holds one block of the file at a time, whatever
    the limit. The binary magic tells the formats apart, and rows past the
    limit are not read."""

    path: str | os.PathLike
    order: int
    limit: int

    def blocks(self) -> Iterator[np.ndarray]:
        """The counts as int64 blocks in row order, read anew on each call; a
        block holds its values only until the next is asked for. A binary
        file's order and limit are checked before its body is read, a CSV's
        limit when its rows run out (TableTooShortError)."""
        with open(self.path, "rb") as fh:
            binary = fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
            fh.seek(0)
            if binary:
                _check_covers(self.path, self.order, self.limit, *_binary_header(fh))
                yield from _binary_blocks(fh, self.limit + 1)
                return
            rows = 0
            for block in _csv_blocks(fh, self.path, self.order, self.limit):
                rows += block.size
                yield block
        _check_covers(self.path, self.order, self.limit, self.order, rows - 1)


def save_binary(table: RepTable, path) -> None:
    """Compact dump, written atomically: 16-byte header (magic, k, x), then
    little-endian 64-bit counts, widened _BIN_CHUNK counts at a time."""
    with atomic_write(path, binary=True) as fh:
        counts = np.asarray(table.counts)
        fh.write(_HEADER.pack(_BINARY_MAGIC, table.order, table.limit))
        # counts are non-negative, so their int64 bytes are their uint64 bytes;
        # a chunk already in <i8 is written as it is, without a copy
        for lo in range(0, counts.size, _BIN_CHUNK):
            fh.write(np.ascontiguousarray(counts[lo : lo + _BIN_CHUNK], dtype="<i8").data)

