"""Exact tables of r_k(n), the number of ways to write n as an ordered sum of
k squares of integers (signs and order both count, so r_2(1) = 4).

Tables are built by independent routes so they can be cross-checked entry by
entry: a direct lattice enumeration for one and two squares, an exact integer
convolution that stacks tables, and a two-square fold for k = 3. Every builder
is made of passes of one square-shift kernel (_shift_add_in_place), the
convolution with r_1: it adds copies of a table shifted by the squares m^2,
with weight 1 at m = 0 and 2 at m >= 1. The fold's input is the
lattice-enumerated r_2, never the r_1 convolution chain, and only the fold
uses the 2-adic identities of r_2 and r_3, so the two routes still check each
other. A pass runs over a table in natural order, or over the fold's class
layout (see _fold): seven rows of n mod 8, of which it sums five. The kernel
writes each pass over its table in place: it sums cache-sized tiles
(_TILE_BYTES each) from the top of the table down, into one scratch tile per
worker, and a pass that widens the table widens it inside r_1's buffer, which
build_rk reserves at the final width; so a build holds one table at its
final width and a tile per worker (3.5 B per entry for the fold, 4 B for r_3
and r_4 by convolution, 8 B for r_8). All arithmetic is exact:
each pass runs in the narrowest of int16, int32 and int64 that holds its
a-priori bound on every partial sum, so a narrow pass cannot overflow and
runs unchecked. In int64, a tile whose bound stays below SAFE_LIMIT runs
unchecked, any other checks each add and the doubling and raises instead of
wrapping. Tiles are dealt to workers in turn, and workers
are capped at the CPU count.

Table files: a CSV is any `#` lines, the header `n,count`, then one row per n
from 0 up, both cells unsigned decimal without leading zeros, each line ended
by LF or CRLF (the last may lack it); a binary file is a 16-byte header, then
little-endian int64 counts. A built table keeps the width of its last pass
(a fold table to 10^8 is int32, 3.5 B per entry). Both writers read it in
natural order through RepTable.blocks: save_binary widens it to int64 one
chunk at a time, and save_csv formats each chunk at its own width.
TableFile is the one reader of either format. It takes a limit and reads the
rows 0..limit once, as int64 blocks in row order: a CSV parsed _CSV_BLOCK
bytes at a time, a binary body read _BIN_CHUNK counts at a time into one
reused buffer. So a sum over a file holds one block at any limit
(verify-meansquare --table r3.bin peaks at 30.1 MiB at 10^6 and at 10^7,
against 29.4 MiB for a run that loads numpy and builds a table to 100).
"""

from __future__ import annotations

import math
import os
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CountOverflowError, DomainError, TableTooShortError
from ._util import SAFE_LIMIT, atomic_write

_I64_MAX = (1 << 63) - 1
_TILE_BYTES = 2**19  # bytes per shift-add output tile, resident in L2
_CSV_CHUNK = 2**13  # table rows formatted per write, and per block of a built table
_BIN_CHUNK = 2**16  # counts per block read from a binary file
_CSV_BLOCK = 2**16  # bytes of a CSV table parsed at a time

_BINARY_MAGIC = b"RKTB"
_HEADER = struct.Struct("<4sIQ")


class RepTable:
    """Immutable counts r_k(n) for 0 <= n <= limit, in natural order (limit + 1
    entries) or in the fold's class layout (see _fold), shape (7, limit // 8 + 1).

    Counts of int16, int32 or int64 keep their width: a built table holds the
    output of its last pass, with no int64 copy, and a caller's array is
    shared through a read-only view (the caller's stays writable). Any other
    dtype is converted to int64. A reader that squares or sums the counts
    must widen them first (verify._chunk_sum widens one chunk at a time).
    """

    __slots__ = ("order", "limit", "_held")

    def __init__(self, order: int, limit: int, counts):
        if order < 1:
            raise DomainError(f"order must be >= 1, got {order}")
        if limit < 0:
            raise DomainError(f"limit must be >= 0, got {limit}")
        c = np.asarray(counts)
        if c.dtype not in (np.int16, np.int32, np.int64):
            c = c.astype(np.int64)
        if c.shape not in ((limit + 1,), (7, limit // 8 + 1)):
            raise DomainError(f"counts shape {c.shape} does not match limit {limit}")
        if c.size and int(c.min()) < 0:
            raise DomainError("counts must be non-negative")
        c = c.view()
        c.setflags(write=False)
        for name, value in zip(self.__slots__, (order, limit, c)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RepTable is immutable: cannot set {name}")

    @property
    def counts(self) -> np.ndarray:
        """The counts in natural order, read-only: a class layout's are a copy."""
        counts = next(self.blocks(8 * self.limit + 8))
        counts.setflags(write=False)
        return counts

    def blocks(self, size: int = _CSV_CHUNK) -> Iterator[np.ndarray]:
        """The counts in natural order, as TableFile.blocks gives a file's,
        `size` (a multiple of 8) at a time: views of natural counts, or a
        class layout's written into one reused buffer (_fold.natural_blocks)."""
        held = self._held
        if held.ndim == 2:
            from ._fold import natural_blocks  # loaded by the fold that built the table

            return natural_blocks(held, self.limit, size // 8)
        return (held[lo : lo + size] for lo in range(0, held.size, size))


def _width(need: float):
    """The narrowest of int16, int32 and int64 whose maximum is above need."""
    return next((t for t in (np.int16, np.int32) if need < np.iinfo(t).max), np.int64)


# The classes a pass over a table of modulus `mod` sums, in phases: a natural
# table is one class (mod 1); the fold's class layout sums r_3 in classes 3,
# then 2 and 6, then 1 and 5 (mod 8), and derives 0 and 4 (see _fold.fill_4n).
# Each phase's classes are read only by that phase and the ones before it.
_PHASES = {1: ((0,),), 8: ((3,), (2, 6), (1, 5))}


def _tile_plan(table: np.ndarray, threads: int, mod: int = 1):
    """The width and output tiles of one pass over table, of shape (classes,
    rows), where row i of class c holds n = mod * i + c: (dtype, workers),
    where workers holds one list of tiles (lo, hi, guarded), rows lo..hi - 1
    of every output class, for each of min(threads, tiles, os.cpu_count())
    workers, dealt round-robin from the bottom; each worker sums its tiles
    from the top down.

    Work per row grows with the number of squares below it, so dealing tiles
    in turn balances the workers where contiguous halves would not, and
    neighbouring tiles, which the in-place write-back order makes wait on one
    another, go to different workers. An entry n < mod * hi adds 1 + 2 *
    isqrt(mod * hi - 1) weighted copies of the table's rows below hi at most,
    so that count times their maximum times 1.01 bounds every partial sum
    written into the tile. The pass runs in the narrowest of int16, int32 and
    int64 whose maximum is above both the last tile's bound, the largest, and
    the table's maximum, so casting the table to it is exact; a tile, and each
    worker's scratch tile, holds _TILE_BYTES of that width across the classes
    of a phase (see _PHASES), so a pass holds its table and a tile per worker
    (a natural-order tile of 2^17 int32 entries, a fold tile of 2^16 rows of
    two classes). A narrow pass cannot overflow and is never guarded; an int64
    tile is unguarded only when its bound stays below SAFE_LIMIT. The maxima
    are kept running over blocks of rows, so no table-sized array is made.
    """
    rows, block = table.shape[1], _TILE_BYTES // 8
    tops = np.maximum.accumulate(
        np.maximum.reduceat(table, np.arange(0, rows, block), axis=1).max(axis=0)
    )

    def bound(hi):
        top = float(tops[(hi - 1) // block])
        return (1 + 2 * math.isqrt(mod * hi - 1)) * top * 1.01

    dtype = _width(max(bound(rows), float(tops[-1])))
    size = _TILE_BYTES // (max(map(len, _PHASES[mod])) * np.dtype(dtype).itemsize)
    tiles = []
    for lo in range(0, rows, size):
        hi = min(lo + size, rows)
        tiles.append((lo, hi, not bound(hi) < SAFE_LIMIT))
    workers = max(1, min(int(threads), len(tiles), os.cpu_count() or 1))
    return dtype, [tiles[i::workers] for i in range(workers)]


def _terms(sources, mod, c, hi):
    """The (source class row, shift) of each m >= 1 that output class c takes
    below row hi: entry n = mod * i + c adds 2 * source[i - shift], where
    n - m^2 = mod * (i - shift) + s for the source class s = (c - m^2) mod mod.
    The shift is ceil((m^2 - c) / mod). A natural-order table is its one
    class, s = 0; in the fold, a class s = 3 mod 4 holds r_2(n) = 0 and is
    skipped."""
    for m in range(1, math.isqrt(mod * (hi - 1) + c) + 1):
        s = (c - m * m) % mod
        if s % 4 != 3:
            yield sources[s], (m * m - c + s) // mod


def _add_tile(tile, lo, terms, centre, guarded: bool) -> None:
    """Fill the tile, which holds rows lo.. of an output class, with
    centre[i] + 2 * sum over the (source, shift) of terms of source[i - shift],
    for each row i of the tile with i >= shift.

    Each shifted segment is summed straight into the zeroed tile, which is
    then doubled once and the centre added. A guarded tile checks every add
    and the doubling: terms are non-negative, so a wrap shows as a negative
    entry right after the add that caused it.
    """
    hi = lo + tile.size
    tile.fill(0)
    for src, shift in terms:
        dst = tile[shift - lo :] if shift > lo else tile
        dst += src[max(lo - shift, 0) : hi - shift]
        if guarded and int(dst.min()) < 0:
            raise CountOverflowError("count accumulator exceeds 64-bit range")
    if guarded and int(tile.max()) > _I64_MAX // 2:
        raise CountOverflowError("doubled count exceeds 64-bit range")
    tile *= 2
    tile += centre[lo:hi]
    if guarded and int(tile.min()) < 0:
        raise CountOverflowError("count accumulator exceeds 64-bit range")


def _shift_add_in_place(table: np.ndarray, plan, mod: int = 1) -> None:
    """One pass over table, of shape (classes, rows), written over it, for the
    tiles of plan (see _tile_plan): each class c of _PHASES[mod] becomes its
    m = 0 term, table[c], plus twice its _terms: r_1 convolved with the table.
    (The fold's class 3 takes its m = 0 term from r_2's class 3, all zero.)

    A tile reads only rows below its top, so the tiles are summed from the
    top of the table down, a phase at a time, each into its worker's scratch
    tile, and a tile's phase p is written back only once phase p of every
    tile above it has been summed: frontier[p] is the lowest row of the tiles
    summed in phase p with every tile above them. As a phase's classes are
    read only by that phase and the ones before it, every term reads the
    table as it was before the pass. The worker of the tile just below a
    frontier never waits, so the workers cannot deadlock. The calling thread
    is the first worker, and the others are
    threads joined before the pass returns. A worker that raises wakes the
    others, which stop before their next write-back; then the first exception
    is raised again, and the table is left part-updated.
    """
    phases = _PHASES[mod]
    frontier, failed, errors = [table.shape[1]] * len(phases), False, []
    turn = threading.Condition()

    def run(tiles):
        nonlocal failed
        sources = list(table)
        scratch = np.empty((max(map(len, phases)), max(hi - lo for lo, hi, _ in tiles)), table.dtype)
        try:
            for lo, hi, guarded in reversed(tiles):
                for p, classes in enumerate(phases):
                    for tile, c in zip(scratch[:, : hi - lo], classes):
                        _add_tile(tile, lo, _terms(sources, mod, c, hi), sources[c], guarded)
                    with turn:
                        turn.wait_for(lambda: frontier[p] == hi or failed)
                        if failed:
                            return
                        frontier[p] = lo
                        turn.notify_all()
                    table[classes, lo:hi] = scratch[: len(classes), : hi - lo]
        except BaseException as exc:  # raised again once every worker has stopped
            with turn:
                failed = True
                errors.append(exc)
                turn.notify_all()

    workers = [threading.Thread(target=run, args=(tiles,)) for tiles in plan[1:]]
    for worker in workers:
        worker.start()
    run(plan[0])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def _add_squares(src: np.ndarray, x: int, threads: int, passes: int = 1) -> np.ndarray:
    """`passes` times over, exact src[n] + 2 * sum over 1 <= m, m^2 <= n of
    src[n - m^2] for n <= x, written over src[0:x + 1]: src convolved with r_1.

    Each pass runs at its own width (see _tile_plan), the narrowest of int16,
    int32 and int64 that holds its bound. src must start the buffer under it
    (table.base), which it lends to wider passes: a pass that widens the table
    widens it inside that buffer when it has room, as _r1 reserves it, one
    tile at a time from the top down. Wide chunk [lo, lo + step) covers only
    narrow entries at or above lo, so none is overwritten before it is cast
    (through a temporary: numpy 2.4 writes zeros in an overlapping casting
    assignment). So a build holds one table, at its final width, and a scratch
    tile per worker. Any other cast copies the table: a narrowing pass, or a
    widening one without room (a caller's array of x + 1 entries). Only the
    int64 tiles whose bound reaches SAFE_LIMIT are checked. Returns the last
    pass's table.
    """
    table = src[: x + 1]
    del src
    for _ in range(passes):
        dtype, plan = _tile_plan(table[None], threads)
        buf, width = table.base, np.dtype(dtype).itemsize
        if width <= table.itemsize or buf is None or buf.nbytes < table.size * width:
            table = table.astype(dtype, copy=False)
        else:
            wide, step = np.frombuffer(buf, dtype, table.size), _TILE_BYTES // width
            for lo in reversed(range(0, table.size, step)):
                wide[lo : lo + step] = table[lo : lo + step].astype(dtype)
            table = wide
        _shift_add_in_place(table[None], plan)
    return table


def _r1(x: int, passes: int = 0) -> np.ndarray:
    """r_1 counts in int16: 2 at positive perfect squares, 1 at 0, at the start
    of a zeroed buffer of x + 1 entries as wide as `passes` passes over it can
    reach. A pass over counts of maximum M needs (1 + 2 * isqrt(x)) * M * 1.01
    (see _tile_plan), so 2 * ((1 + 2 * isqrt(x)) * 1.01)^passes bounds the
    last: int32 for r_3 at 10^6, int64 for r_8 at 5*10^5, as their passes
    reach, and int64 for r_4 past about 2.6*10^5, which reaches int32. The
    pages of a large buffer that no pass reaches hold no memory."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    need = 2.0
    for _ in range(passes):  # a float product: far past int64 it reaches inf, not an error
        need *= (1 + 2 * math.isqrt(x)) * 1.01
    counts = np.zeros(x + 1, dtype=_width(need)).view(np.int16)[: x + 1]
    counts[0] = 1
    roots = np.arange(1, math.isqrt(x) + 1, dtype=np.int64)
    counts[roots * roots] = 2
    return counts


def build_r1(x: int) -> RepTable:
    """Counts for one square: 2 at positive perfect squares, 1 at 0, in int16."""
    return RepTable(order=1, limit=x, counts=_r1(x))


def build_r3_fold(x: int, threads: int = 1) -> RepTable:
    """Three-square counts via r_3(n) = sum over m^2 <= n of r_2(n - m^2), in
    the class layout of _fold, with its 2-adic cuts (see _fold.fold): a build
    holds 3.5 B per entry and a scratch tile per worker.

    The r_2 input comes from lattice enumeration, not from convolving r_1
    tables, and build_rk uses no 2-adic identity, so the two builders
    cross-validate each other.
    """
    from ._fold import fold

    return RepTable(order=3, limit=x, counts=fold(x, threads))


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


def _log_mean_bound(x: int, k: int) -> float:
    """A proven lower bound on the logarithm of the mean of r_k(0..x), or -inf.

    sum over n <= x of r_k(n) counts the lattice points in the k-ball of
    radius sqrt(x). The unit cubes around them cover the ball of radius
    sqrt(x) - sqrt(k) / 2, so the sum is at least V_k (sqrt(x) - sqrt(k) / 2)^k,
    with V_k = pi^(k/2) / Gamma(k/2 + 1), and the largest count is at least
    that over x + 1.
    """
    radius = math.sqrt(x) - math.sqrt(k) / 2
    if radius <= 0:
        return -math.inf
    return (k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1)
            + k * math.log(radius) - math.log(x + 1))


def build_rk(x: int, k: int, threads: int = 1) -> RepTable:
    """r_k table by iterated convolution against the one-square table: k - 1
    passes of the square-shift kernel over r_1, reserved at their widest
    width (see _r1). A limit at which the mean
    count, and so some count, passes 2^63 (see _log_mean_bound) raises
    CountOverflowError before any pass."""
    if k < 1:
        raise DomainError(f"order must be >= 1, got {k}")
    if x < 0:  # before _log_mean_bound, which takes sqrt(x)
        raise DomainError(f"limit must be >= 0, got {x}")
    if k == 1:
        return build_r1(x)
    if _log_mean_bound(x, k) > 63 * math.log(2) + 1e-6:  # the margin is far above the float error
        raise CountOverflowError("count accumulator exceeds 64-bit range")
    counts = _add_squares(_r1(x, k - 1), x, threads, k - 1)
    return RepTable(order=k, limit=x, counts=counts)


def save_csv(table: RepTable, path, header_comment: str | None = None) -> None:
    """Write `n,count` rows, atomically; an optional single comment line goes first.
    A chunk's rows are uint8 rows of right-aligned digits, less their zero padding."""
    if header_comment and ("\r" in header_comment or "\n" in header_comment):
        raise DomainError("a header comment must be one line, without CR or LF")
    with atomic_write(path, binary=True) as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n".encode())
        fh.write(b"n,count\n")
        for lo, chunk in zip(range(0, table.limit + 1, _CSV_CHUNK), table.blocks()):
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
    little-endian 64-bit counts, widened a block (_CSV_CHUNK counts) at a time."""
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, table.order, table.limit))
        # counts are non-negative, so their int64 bytes are their uint64 bytes;
        # a chunk already in <i8 is written as it is, without a copy
        for block in table.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<i8").data)
