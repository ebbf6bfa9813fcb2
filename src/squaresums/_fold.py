"""The class layout of the three-square fold (repcount.build_r3_fold).

A table of r_2 or r_3 to x is one array of shape (7, x // 8 + 1) whose row c
holds the counts of n = 8 i + c at column i, 3.5 B per int32 entry: both
vanish at n = 7 mod 8, which is not stored, and r_2 vanishes at n = 3 mod 4,
so class 3 of r_2 holds zeros, the slot the fold sums r_3's class 3 into.
Columns past x in the last row hold partial sums and are never read out. The
module is imported only by a fold build and by the readers of a table it
built.
"""

import math

import numpy as np

from . import repcount
from .errors import DomainError

_FILL_ROWS = 2**11  # rows of r_3 classes 0 and 4 derived at a time


def r2_lattice(x: int) -> np.ndarray:
    """r_2 counts for n <= x in the class layout, in int32, by direct
    enumeration, one lattice row at a time.

    Every nonzero pair turns by quarter turns into exactly one pair (a, b) with
    a >= 1 and b >= 0, so row a adds 4 at a^2 + b^2 for each b; the origin
    counts 1. r_2(n) <= 4 d(n) stays far below 2^31.
    """
    rows = x // 8 + 1
    counts = np.zeros((7, rows), dtype=np.int32)
    counts[0, 0] = 1
    flat = counts.reshape(-1)
    squares = np.arange(math.isqrt(x) + 1, dtype=np.int64) ** 2
    for a in range(1, squares.size):
        n = a * a + squares[: math.isqrt(x - a * a) + 1]
        # the indices of one row are distinct, so the buffered += adds each 4
        flat[(n & 7) * rows + (n >> 3)] += 4
    return counts


def fill_4n(classes: np.ndarray) -> None:
    """Classes 0 and 4 of r_3 in the class layout, written over r_2's, from
    r_3(4n) = r_3(n): r_3(8i) = r_3(2i) and r_3(8i + 4) = r_3(2i + 1), row
    i // 4 of classes 2t and 2t + 1 for t = i mod 4 (class 7 is 0). Row i
    reads row i // 4, so the rows are filled from the bottom up in chunks
    [lo, hi) with hi <= 4 lo, every row read being final, at most _FILL_ROWS
    at a time, by strided copies; r_3(0) = r_2(0) = 1 stays."""
    rows = classes.shape[1]
    classes[4, 0] = classes[1, 0]
    lo = 1
    while lo < rows:
        hi = min(4 * lo, lo + _FILL_ROWS, rows)
        for t in range(4):
            i = lo + (t - lo) % 4  # the first row >= lo with i mod 4 = t
            src = slice(i // 4, i // 4 + len(range(i, hi, 4)))
            classes[0, i:hi:4] = classes[2 * t, src]
            classes[4, i:hi:4] = classes[2 * t + 1, src] if t < 3 else 0
        lo = hi


def fold(x: int, threads: int) -> np.ndarray:
    """r_3 for n <= x in the class layout. r_2 and r_3 vanish at n = 3 mod 4
    and n = 7 mod 8, and r_3(4n) = r_3(n), so one pass over the lattice, at
    the width _tile_plan gives (a copy only when that is not int32: int16
    below about 3*10^4), sums classes 1, 2, 3, 5 and 6 of r_3 in place,
    skipping the zero source classes, about 4.5/8 of the shift-adds of a
    natural-order pass, and fill_4n derives classes 0 and 4."""
    if x < 0:
        raise DomainError(f"limit must be >= 0, got {x}")
    classes = r2_lattice(x)
    dtype, plan = repcount._tile_plan(classes, threads, 8)
    classes = classes.astype(dtype, copy=False)
    repcount._shift_add_in_place(classes, plan, 8)
    fill_4n(classes)
    return classes


def natural_blocks(classes: np.ndarray, limit: int, rows: int):
    """The counts 0..limit of a class layout in natural order, 8 * rows at a
    time, written into one reused buffer whose column for n = 7 mod 8 stays
    0: a block holds its values only until the next is asked for."""
    buf = np.zeros((min(rows, classes.shape[1]), 8), classes.dtype)
    for lo in range(0, classes.shape[1], rows):
        block = buf[: classes.shape[1] - lo]
        block[:, :7] = classes[:, lo : lo + rows].T
        yield block.reshape(-1)[: limit + 1 - 8 * lo]
