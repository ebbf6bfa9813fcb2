"""Exact count tables against literal tuple enumeration and classical identities."""

import io
import math
import os
import stat
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squaresums import _fold, repcount
from squaresums._util import SAFE_LIMIT
from squaresums.errors import CountOverflowError, DomainError, SquaresumsError, TableTooShortError

from oracles import (
    add_squares_oracle,
    brute_counts,
    brute_positive_counts,
    is_representable,
    r8_jacobi_oracle,
    rstar_counts,
)
from tablefiles import read_table


def divisor_sum_not_div_4(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % 4 != 0)


@pytest.fixture(scope="module")
def t3_fold():
    return repcount.build_r3_fold(2000)


@pytest.fixture(scope="module")
def t3_conv():
    return repcount.build_rk(2000, 3)


def _tile(dtype) -> int:
    """Entries per output tile of a natural-order pass at this width."""
    return repcount._TILE_BYTES // np.dtype(dtype).itemsize


def _natural_r2(x):
    """The lattice's r_2 to x in natural order."""
    return repcount.RepTable(2, x, _fold.r2_lattice(x)).counts


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of 4 KiB (512 int64 entries; the fold's, of two class rows,
    1024 int16 or 512 int32 rows), so small tables cross tile edges at every
    width, and the fold's classes 0 and 4 derived 32 rows at a time."""
    monkeypatch.setattr(repcount, "_TILE_BYTES", 2**12)
    monkeypatch.setattr(_fold, "_FILL_ROWS", 32)


def test_small_values_match_classical_table(t3_fold):
    assert list(t3_fold.counts[:10]) == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]
    t2 = repcount.build_rk(9, 2)
    assert list(t2.counts) == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4]
    t1 = repcount.build_r1(9)
    assert list(t1.counts) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]


def test_brute_force_oracle_all_orders():
    for k, x in ((1, 60), (2, 60), (3, 60), (4, 60), (5, 30)):
        table = repcount.build_rk(x, k)
        assert list(table.counts) == brute_counts(k, x), f"k={k}"


def test_fold_matches_brute():
    table = repcount.build_r3_fold(200)
    assert list(table.counts) == brute_counts(3, 200)


def test_fold_matches_convolution(t3_fold, t3_conv):
    assert (t3_fold.counts == t3_conv.counts).all()


def test_positive_only_matches_brute():
    rs = rstar_counts(60)
    assert list(rs) == brute_positive_counts(60)
    assert rs[0] == 0


def test_zero_coordinate_classification_identity(t3_fold):
    x = t3_fold.limit
    r3 = t3_fold.counts
    rs = rstar_counts(x)
    r2 = repcount.build_rk(x, 2).counts
    r1 = repcount.build_r1(x).counts
    rhs = 8 * rs + 3 * r2 - 3 * r1
    assert (r3[1:] == rhs[1:]).all()
    # at n = 0 the all-zero tuple is dropped by the classification
    assert r3[0] == rhs[0] + 1


def test_three_square_criterion(t3_fold):
    for n in range(t3_fold.limit + 1):
        assert (t3_fold.counts[n] > 0) == is_representable(n), n
    assert not is_representable(7)
    assert not is_representable(28)
    assert not is_representable(112)
    assert not is_representable(15)
    assert is_representable(0)
    assert is_representable(3)


def test_r3_point_matches_table(t3_fold):
    for n in (0, 1, 2, 7, 25, 121, 777, 2000):
        assert repcount.r3_point(n) == t3_fold.counts[n], n


@pytest.mark.parametrize("shift", [-0.99, 0.99])
def test_r3_point_corrects_its_float_roots_by_one(t3_fold, shift, monkeypatch):
    """r3_point takes each root from a float square root, which may be one off
    either way: with every root pushed almost one down or up, it still counts
    exactly. n reaches 2^62 nowhere, and is refused there."""
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x, **kw: sqrt(x, **kw) + shift)
    for n in [*range(50), 1024, 1681, 1999, 2000]:
        assert repcount.r3_point(n) == t3_fold.counts[n], n
    with pytest.raises(DomainError, match="2\\^62"):
        repcount.r3_point(2**62)


def test_four_square_divisor_identity():
    table = repcount.build_rk(300, 4)
    for n in range(1, 301):
        assert table.counts[n] == 8 * divisor_sum_not_div_4(n), n


def jacobi_r2(x: int) -> np.ndarray:
    """r_2(n) = 4 (d_1(n) - d_3(n)) for n <= x, from a divisor sieve, where
    d_i(n) counts the divisors of n congruent to i mod 4."""
    r2 = np.zeros(x + 1, dtype=np.int64)
    r2[0] = 1
    for d in range(1, x + 1, 2):
        r2[d::d] += 4 if d % 4 == 1 else -4
    return r2


@pytest.mark.parametrize("x", [0, 1, 2, 4, 5, 25, 10001])
def test_r2_lattice_matches_jacobi(x):
    classes = _fold.r2_lattice(x)
    assert classes.dtype == np.int32
    assert classes.shape == (7, x // 8 + 1)
    assert not classes[3].any()  # r_2 vanishes at n = 3 mod 4
    assert (_natural_r2(x) == jacobi_r2(x)).all()


def test_monotone_mass_equals_ball_count():
    x = 200
    table = repcount.build_r3_fold(x)
    mass = np.cumsum(table.counts)
    assert (np.diff(mass) >= 0).all()
    s = math.isqrt(x)
    ball = sum(
        1
        for a in range(-s, s + 1)
        for b in range(-s, s + 1)
        for c in range(-s, s + 1)
        if a * a + b * b + c * c <= x
    )
    assert mass[-1] == ball


def test_thread_count_does_not_change_results():
    single = repcount.build_r3_fold(3000, threads=1)
    multi = repcount.build_r3_fold(3000, threads=4)
    assert (single.counts == multi.counts).all()
    c1 = repcount.build_rk(3000, 4, threads=1)
    c4 = repcount.build_rk(3000, 4, threads=4)
    assert (c1.counts == c4.counts).all()


def _within(seconds, call):
    """call() on a daemon thread: its result, or the exception it raised; a
    call still running after `seconds` fails the test instead of hanging it."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:  # handed to the test, which asserts on it
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return outcome[0]


def test_more_threads_than_cores_write_disjoint_tiles(monkeypatch, small_tiles):
    # eight workers on however many cores, switching as often as possible
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 8)
    x = 60_000  # int32 class tiles of 512 rows: 15 tiles
    _, workers = repcount._tile_plan(_fold.r2_lattice(x), 8, 8)
    assert len(workers) == 8
    single = repcount.build_r3_fold(x, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _within(60, lambda: repcount.build_r3_fold(x, threads=8))
    finally:
        sys.setswitchinterval(interval)
    assert (single.counts == many.counts).all()


def test_accumulator_overflow_is_detected():
    # the fourth shifted copy of 2^61 reaches 2^63
    flat = np.full(101, 1 << 61, dtype=np.int64)
    with pytest.raises(CountOverflowError):
        repcount._add_squares(flat, 100, 1)


def test_product_overflow_is_detected():
    # out[1] = 2 * src[0] + src[1]: the sum src[0] fits in int64, its double
    # does not; in the second source the m = 0 add would lift the wrapped
    # double back above zero, so only the check before the doubling sees it
    for src in ([1 << 62, 0], [(1 << 63) - 2, 10]):
        with pytest.raises(CountOverflowError):
            repcount._add_squares(np.array(src, dtype=np.int64), 1, 1)


def test_log_mean_bound_is_below_the_exact_mean():
    """The bound against the exact mean of r_k(0..x), summed in Python ints by
    k passes over r_0, for every order up to 40."""
    x = 400
    squares = [m * m for m in range(1, math.isqrt(x) + 1)]
    counts = [1] + [0] * x  # r_0
    for k in range(1, 41):
        nxt = counts[:]
        for sq in squares:
            for n in range(sq, x + 1):
                nxt[n] += 2 * counts[n - sq]
        counts = nxt
        for top in (0, 1, 5, 50, 200, 400):
            exact = math.log(sum(counts[: top + 1]) / (top + 1))
            assert repcount._log_mean_bound(top, k) <= exact, (k, top)


def test_a_certain_overflow_is_refused_before_any_pass(monkeypatch):
    """r_8 to 10^7 fails with the guard's own error before any pass; r_8 to
    5*10^5, which fits in int64, is not refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(repcount, "_add_squares", refuse)
    with pytest.raises(CountOverflowError, match="^count accumulator exceeds 64-bit range$"):
        repcount.build_rk(10**7, 8)
    assert repcount._log_mean_bound(5 * 10**5, 8) < 63 * math.log(2)
    with pytest.raises(AssertionError, match="a pass ran"):
        repcount.build_rk(5 * 10**5, 8)


@pytest.mark.parametrize("failing", [4, 3, None], ids=["top", "below_top", "none"])
def test_a_worker_error_ends_the_pass_and_no_worker_outlives_it(failing, small_tiles, monkeypatch):
    # an error other than overflow, in either worker's tile, ends the pass
    # with that error; on success or failure, every thread the pass started
    # has ended when it returns. Of the five tiles, worker 0 sums 4, 2, 0 and
    # worker 1 sums 3, 1, each 50 ms late, so a pass that returned at tile
    # 4's error without joining would leave worker 1 running
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 2)
    tile = _tile(np.int16)
    x = 5 * tile - 1
    add = repcount._add_tile

    def add_or_fail(out, lo, *args):
        if failing is not None and lo == failing * tile:
            raise RuntimeError(f"tile {failing} failed")
        if lo // tile % 2:
            time.sleep(0.05)
        add(out, lo, *args)

    monkeypatch.setattr(repcount, "_add_tile", add_or_fail)
    src = np.ones(x + 1, np.int16)
    expected = add_squares_oracle(src, x)
    before = set(threading.enumerate())
    outcome = _within(60, lambda: repcount._add_squares(src, x, 2))
    assert set(threading.enumerate()) == before
    if failing is None:
        assert (outcome == expected).all()
    else:
        assert isinstance(outcome, RuntimeError) and str(outcome) == f"tile {failing} failed"


@pytest.mark.parametrize("failing", [4, 3], ids=["top", "below_top"])
def test_overflow_under_two_workers_raises(failing, small_tiles, monkeypatch):
    # 2^61 + 1 at n0 and at n0 + 3 meet only at n0 + 4 = n0 + 2^2 = (n0 + 3) + 1^2,
    # whose doubled sum 2^63 + 4 wraps: only the tile holding n0 fails. Of the
    # five tiles, worker 0 sums 4, 2, 0 and worker 1 sums 3, 1, so whichever
    # tile fails, the other worker waits on it and must be woken
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 2)
    tile = _tile(np.int64)
    x = 5 * tile - 1
    src = np.zeros(x + 1, np.int64)
    n0 = failing * tile
    src[[n0, n0 + 3]] = (1 << 61) + 1
    assert isinstance(_within(60, lambda: repcount._add_squares(src, x, 2)), CountOverflowError)


def test_table_validation():
    good = np.array([1, 2], dtype=np.int64)
    with pytest.raises(DomainError):
        repcount.RepTable(order=0, limit=1, counts=good)
    with pytest.raises(DomainError):
        repcount.RepTable(order=1, limit=2, counts=good)
    with pytest.raises(DomainError):
        repcount.RepTable(order=1, limit=1, counts=np.array([1, -2]))
    with pytest.raises(DomainError):
        repcount.build_r1(-1)
    with pytest.raises(DomainError):
        repcount.build_rk(10, 0)
    with pytest.raises(DomainError):
        repcount.r3_point(-1)


@pytest.mark.parametrize("k", range(1, 9))
def test_a_negative_limit_is_a_domain_error_at_every_order(k):
    """build_rk(-1, k) raises the DomainError that build_r1 and build_r3_fold
    raise, not the math domain error of the overflow bound's square root."""
    with pytest.raises(DomainError, match="limit must be >= 0"):
        repcount.build_rk(-1, k)
    with pytest.raises(DomainError, match="limit must be >= 0"):
        repcount.build_r3_fold(-1)


def test_counts_are_frozen(t3_fold):
    with pytest.raises(ValueError):
        t3_fold.counts[0] = 99


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_table_freezes_a_view_of_the_callers_array(dtype):
    a = np.array([1, 2, 0], dtype)
    t = repcount.RepTable(1, 2, a)
    a[0] = 5  # the caller's array stays writable, and the table shares it
    assert t.counts.tolist() == [5, 2, 0]
    with pytest.raises(ValueError):
        t.counts[0] = 5


def test_csv_and_binary_round_trip(tmp_path):
    chunk = repcount._CSV_CHUNK

    @settings(max_examples=30)
    @given(
        order=st.integers(1, 16),
        limit=st.sampled_from([0, 1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]),
        values=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
        comment=st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=126)),
    )
    @example(order=3, limit=chunk + 1, values=[0, 2**63 - 1], comment="generated")
    @example(order=1, limit=2, values=[2**63 - 1], comment=None)
    def check(order, limit, values, comment):
        counts = np.resize(np.array(values, dtype=np.int64), limit + 1)
        counts[:2] = (1, 2 * order)[: limit + 1]  # the rows that tell a CSV's order
        table = repcount.RepTable(order, limit, counts)
        csv_path, bin_path = tmp_path / "table.csv", tmp_path / "table.bin"
        repcount.save_csv(table, csv_path, header_comment=comment)
        repcount.save_binary(table, bin_path)
        with open(csv_path) as fh:
            assert fh.readline() == (f"# {comment}\n" if comment else "n,count\n")
        for path in (csv_path, bin_path):
            assert read_table(path, order, limit).tolist() == counts.tolist()

    check()


def test_csv_round_trip_in_blocks_of_a_few_bytes(tmp_path, monkeypatch):
    """The round trip again, with the reader's block cut to a few bytes, so
    rows, cells and CRLF pairs straddle block seams."""
    seams = []

    @settings(max_examples=30)
    @given(
        block=st.integers(1, 9),
        limit=st.integers(0, 40),
        values=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
        comment=st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=126)),
        crlf=st.booleans(),
    )
    @example(block=4, limit=1, values=[1], comment=None, crlf=True)  # body b"0,1\r|\n1,6\r\n"
    @example(block=1, limit=2, values=[2**63 - 1, 0], comment="c", crlf=False)
    def check(block, limit, values, comment, crlf):
        monkeypatch.setattr(repcount, "_CSV_BLOCK", block)
        counts = np.resize(np.array(values, dtype=np.int64), limit + 1)
        counts[:2] = (1, 6)[: limit + 1]  # the rows that tell a CSV's order
        path = tmp_path / "table.csv"
        repcount.save_csv(repcount.RepTable(3, limit, counts), path, header_comment=comment)
        if crlf:
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        body = path.read_bytes().split(b"n,count\r\n" if crlf else b"n,count\n", 1)[1]
        seams.append(b"\r" in body[block - 1 :: block])  # a CR ends a block, its LF starts the next
        assert read_table(path, 3, limit).tolist() == counts.tolist()

    check()
    assert any(seams)


def test_tile_plan_caps_threads_at_cpu_count(monkeypatch):
    # only the plan is inspected; no thread is started
    def plan(entries, threads):
        dtype, workers = repcount._tile_plan(np.zeros((1, entries), np.int64), threads)
        assert dtype is np.int16  # a zero source needs the narrowest width
        return workers

    entries = 8 * _tile(np.int16)
    workers = plan(entries, 10**6)
    assert 1 <= len(workers) <= (os.cpu_count() or 1)
    tiles = sorted(tile for tiles in workers for tile in tiles)
    assert tiles[0][0] == 0 and tiles[-1][1] == entries
    assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 4)
    assert len(plan(entries, 10**6)) == 4
    assert len(plan(entries, 3)) == 3
    tile = _tile(np.int16)
    assert plan(tile + 1, 10**6) == [[(0, tile, False)], [(tile, tile + 1, False)]]
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: None)
    assert plan(entries, 10**6) == [tiles]


def test_tile_plan_deals_tiles_round_robin(monkeypatch):
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 2)
    tile = _tile(np.int16)
    dtype, workers = repcount._tile_plan(np.zeros((1, 5 * tile)), 2)
    assert dtype is np.int16
    assert [[lo // tile for lo, _, _ in tiles] for tiles in workers] == [[0, 2, 4], [1, 3]]


def test_tile_bound_reads_every_earlier_tile():
    # src[0] alone, scaled so that the first tile's bound (1 + 2 * 255 copies)
    # stays below SAFE_LIMIT and the second's (1 + 2 * 362) does not: the
    # later tiles read src[0] back through their squares
    tile = _tile(np.int64)
    top = int(SAFE_LIMIT) // 600
    src = np.zeros(3 * tile + 1, np.int64)
    src[0] = top
    dtype, (tiles,) = repcount._tile_plan(src[None], 1)
    assert dtype is np.int64
    assert [g for _, _, g in tiles] == [False, True, True, True]
    out = repcount._add_squares(src, 3 * tile, 1)
    squares = np.arange(1, math.isqrt(3 * tile) + 1) ** 2
    assert out[0] == top and (out[squares] == 2 * top).all()
    assert np.count_nonzero(out) == squares.size + 1


@pytest.fixture(scope="module")
def r8_passes():
    """build_rk(5 * 10**5, 8) with one thread, and the (dtype, tiles) of each
    of its seven passes, recorded from _tile_plan."""
    plan, passes = repcount._tile_plan, []

    def record(*args):
        passes.append(plan(*args))
        return passes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcount, "_tile_plan", record)
        table = repcount.build_rk(500_000, 8)
    return table, [(dtype, tiles) for dtype, (tiles,) in passes]


def test_r8_guards_only_its_last_tiles(r8_passes):
    # the last pass of build_rk(5 * 10**5, 8) adds shifted copies of r_7
    # along the squares
    _, passes = r8_passes
    dtype, tiles = passes[-1]
    assert dtype is np.int64
    guarded = [g for _, _, g in tiles]
    assert guarded == sorted(guarded)  # unguarded tiles first, then guarded ones
    assert not guarded[0] and guarded[-1]
    assert guarded.count(False) > guarded.count(True)


def test_r8_passes_widen_as_their_bounds_grow(r8_passes):
    table, passes = r8_passes
    widths = [dtype for dtype, _ in passes]
    assert widths == [np.int16, np.int32, np.int32] + [np.int64] * 4
    guarded = [any(g for _, _, g in tiles) for _, tiles in passes]
    assert guarded == [False] * 6 + [True]
    assert table.counts.dtype == np.int64
    # Jacobi's formula at every n, through every guarded int64 tile
    assert (table.counts == r8_jacobi_oracle(table.limit)).all()


def test_the_reserved_width_holds_every_pass(r8_passes, monkeypatch):
    # the width _r1 reserves, from the limit and the pass count alone, is
    # never narrower than a pass: at 5*10^5 it is r_8's last width, and no
    # build_rk pass casts a copy
    _, passes = r8_passes
    assert repcount._r1(500_000, 7).base.dtype == passes[-1][0] == np.int64
    plan, widths = repcount._tile_plan, []

    def record(*args):
        dtype, workers = plan(*args)
        widths.append(np.dtype(dtype).itemsize)
        return dtype, workers

    monkeypatch.setattr(repcount, "_tile_plan", record)
    for x in (0, 1, 100, 2000, 30_000):
        for k in range(2, 9):
            widths.clear()
            table = repcount.build_rk(x, k)
            reserved = repcount._r1(x, k - 1).base.itemsize
            assert max(widths) <= reserved, (x, k)
            assert table.counts.base.nbytes == (x + 1) * reserved  # r_1's buffer, not a copy


@pytest.mark.parametrize("x", [2000, 100_000])
@pytest.mark.parametrize(
    "build, width",
    [
        (repcount.build_r1, np.int16),
        (lambda x: repcount.build_rk(x, 2), np.int16),
        (lambda x: repcount.build_rk(x, 3, threads=2), np.int32),
        (repcount.build_r3_fold, np.int32),
    ],
    ids=["r1", "rk2", "rk3", "fold"],
)
def test_tables_keep_their_last_pass_width(build, width, x, tmp_path, monkeypatch):
    # a built table holds the output of its last pass itself, not an int64
    # copy; r_1, which no pass makes, is int16. Every table is int16 at 2000;
    # at 10^5 r_3 has outgrown int16 passes (int32 holds it to 10^8). The
    # files hold int64, and so do the tables read from them.
    outputs, add = [], repcount._add_squares

    def record(*args):
        outputs.append(add(*args))
        return outputs[-1]

    monkeypatch.setattr(repcount, "_add_squares", record)
    table = build(x)
    assert table.counts.dtype == (np.int16 if x == 2000 else width)
    if outputs:
        assert table.counts.dtype == outputs[-1].dtype
        assert np.shares_memory(table.counts, outputs[-1])
    repcount.save_csv(table, tmp_path / "t.csv")
    repcount.save_binary(table, tmp_path / "t.bin")
    for path in (tmp_path / "t.csv", tmp_path / "t.bin"):
        loaded = read_table(path, table.order, table.limit)
        assert loaded.dtype == np.int64
        assert (loaded == table.counts).all()


@pytest.mark.parametrize(
    "build, x, width, per_entry",
    [
        (repcount.build_r3_fold, 2 * 10**5, np.int32, 3.5),
        (lambda x: repcount.build_rk(x, 3), 2 * 10**5, np.int32, 4),
        (lambda x: repcount.build_rk(x, 8), 10**5, np.int64, 8),
    ],
    ids=["fold", "rk3", "r8"],
)
def test_builds_hold_one_table_and_scratch_tiles(build, x, width, per_entry, monkeypatch):
    # a pass writes over its table: the fold holds its int32 class layout,
    # 3.5 B per entry, and one scratch tile; by convolution, r_1's buffer is
    # reserved at the final width and each widening pass widens inside it,
    # through one tile-sized temporary, so r_3 holds 4 B per entry and r_8
    # 8 B (6 and 12 when a widening pass cast a copy)
    monkeypatch.setattr(repcount, "_TILE_BYTES", 2**15)
    tracemalloc.start()
    try:
        table = build(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.counts.dtype == width
    assert peak <= per_entry * (x + 1) + 2 * repcount._TILE_BYTES, peak / (x + 1)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint16, np.uint32, np.uint64, np.float64])
def test_rep_table_holds_other_dtypes_as_int64(dtype):
    table = repcount.RepTable(1, 2, np.array([1, 2, 0], dtype=dtype))
    assert table.counts.dtype == np.int64
    assert table.counts.tolist() == [1, 2, 0]


@st.composite
def _add_squares_case(draw, x):
    """A non-negative source, dense or sparse, whose magnitude reaches from
    int16 and int32 passes through unguarded int64 tiles to 64-bit overflow."""
    bits = draw(st.sampled_from([62, 58, 56, 50, 40, 20, 12, 8, 4, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    src = rng.integers(0, 2**bits, size=x + 1, dtype=np.int64)
    ramp = draw(st.sampled_from([None, (0.0, 1.0), (1.0, 0.0)]))
    if ramp:  # growing with n, as counts do, or falling: a tile's bound reads earlier tiles
        src = (src * np.linspace(*ramp, x + 1)).astype(np.int64)
    if draw(st.booleans()):  # sparse: a guarded tile need not overflow
        src[rng.random(x + 1) > 0.02] = 0
    return src


# with small_tiles: int64 tiles of 512 entries, int32 of 1024, int16 of 2048;
# four workers on however many cores finish their tiles out of order
@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("x", [0, 1, 100, 511, 512, 513, 1025, 2049, 3 * 2048 + 7])
def test_tiled_kernel_matches_untiled_oracle(x, threads, small_tiles, monkeypatch):
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 8)

    @settings(max_examples=25)
    @given(src=_add_squares_case(x))
    def check(src):
        # a caller's own int64 array, which lends no room, and the same counts
        # at their narrowest width at the start of an int64 buffer, as _r1
        # reserves r_1: a wider pass widens them in place, chunk by chunk
        reserved = np.zeros(x + 1, np.int64).view(repcount._width(int(src.max())))[: x + 1]
        reserved[:] = src
        try:
            expected = add_squares_oracle(src, x)
        except CountOverflowError:
            for source in (src, reserved):
                with pytest.raises(CountOverflowError):
                    repcount._add_squares(source, x, threads)
            return
        assert (repcount._add_squares(src, x, threads) == expected).all()
        out = repcount._add_squares(reserved, x, threads)
        assert np.shares_memory(out, reserved)
        assert (out == expected).all()

    check()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("x", [1025, 2049, 3 * 2048 + 7])
def test_passes_widen_in_place_as_the_oracle_sums(x, threads, small_tiles, monkeypatch):
    # three passes over int16 counts in an int64 buffer: int32, int32, then
    # int64, each widening pass written top-down over chunks that the limit
    # does not fill (int32 chunks of 1024 entries, int64 of 512)
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 8)
    plan, widths = repcount._tile_plan, []

    def record(*args):
        dtype, workers = plan(*args)
        widths.append(dtype)
        return dtype, workers

    monkeypatch.setattr(repcount, "_tile_plan", record)
    counts = np.random.default_rng(x).integers(0, 2**15, x + 1)
    src = np.zeros(x + 1, np.int64).view(np.int16)[: x + 1]
    src[:] = counts
    out = repcount._add_squares(src, x, threads, 3)
    assert widths == [np.int32, np.int32, np.int64]
    assert out.dtype == np.int64 and np.shares_memory(out, src)
    for _ in range(3):
        counts = add_squares_oracle(counts, x)
    assert (out == counts).all()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_narrowing_fold_pass_copies_as_the_oracle_sums(threads, small_tiles):
    # to about 3*10^4 the fold's pass is int16, over its int32 lattice: a
    # narrowing cast copies rather than writing over the lattice
    x = 2000
    expected = add_squares_oracle(_natural_r2(x), x)
    table = repcount.build_r3_fold(x, threads)
    assert table.counts.dtype == np.int16
    assert (table.counts == expected).all()


def _need(x, top):
    """What a pass's width must hold (see _tile_plan): its largest bound and
    the source maximum top."""
    return max((1 + 2 * math.isqrt(x)) * float(top) * 1.01, top)


def _edge_top(x, limit):
    """The largest source maximum whose pass still fits below limit."""
    lo, hi = 0, limit  # _need(lo) < limit <= _need(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _need(x, mid) < limit else (lo, mid)
    return lo


_I16, _I32 = 2**15 - 1, 2**31 - 1


def test_pass_width_edges_match_untiled_oracle(small_tiles):
    # a source equal to top everywhere: entry x sums exactly copies * top
    @settings(max_examples=30)
    @given(
        x=st.integers(0, 3 * 2048 + 7),
        limit=st.sampled_from([_I16, _I32]),
        above=st.booleans(),
    )
    @example(x=0, limit=_I16, above=False)
    @example(x=0, limit=_I16, above=True)
    @example(x=0, limit=_I32, above=True)
    @example(x=1, limit=_I16, above=True)
    @example(x=1, limit=_I32, above=False)
    @example(x=3 * 2048 + 7, limit=_I16, above=False)
    @example(x=3 * 2048 + 7, limit=_I16, above=True)
    @example(x=3 * 2048 + 7, limit=_I32, above=False)
    @example(x=3 * 2048 + 7, limit=_I32, above=True)
    def check(x, limit, above):
        top = _edge_top(x, limit) + above
        assert (_need(x, top) < limit) is not above
        src = np.full(x + 1, top, dtype=np.int64)
        narrowest = {_I16: np.int16, _I32: np.int32}[limit]
        wider = {_I16: np.int32, _I32: np.int64}[limit]
        dtype, _ = repcount._tile_plan(src[None], 1)
        assert dtype is (wider if above else narrowest)
        expected = add_squares_oracle(src, x)  # before the pass, which may write over src
        out = repcount._add_squares(src, x, 1)
        assert out.dtype == dtype
        assert (out == expected).all()

    check()


@pytest.mark.parametrize("threads", [1, 2])
def test_builders_agree_at_random_limits(threads):
    @settings(max_examples=20)
    @given(x=st.integers(0, 2 * _tile(np.int32) + 7))
    def check(x):
        r3 = repcount.build_r3_fold(x, threads).counts
        assert (r3 == repcount.build_rk(x, 3, threads).counts).all()
        r2 = repcount.build_rk(x, 2, threads).counts
        assert (r2 == _natural_r2(x)).all()
        # zero-coordinate classification, against an r* that shares no code
        # with repcount; at n = 0 the all-zero tuple is dropped
        rhs = 8 * rstar_counts(x) + 3 * r2 - 3 * repcount.build_r1(x).counts
        assert (rhs[1:] == r3[1:]).all() and rhs[0] == r3[0] - 1

    check()


# with small_tiles, and cpu_count patched to 8 so that four workers run
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_class_layout_fold_is_the_convolution(threads, small_tiles, monkeypatch):
    """The fold, which derives classes 0 and 4 and skips the zero classes,
    against build_rk, which uses no 2-adic identity: at every limit to 64,
    and at drawn limits to 5*10^4 (int16 passes to about 3*10^4, then int32),
    with its natural blocks of several sizes."""
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 8)
    for x in range(65):
        assert (repcount.build_r3_fold(x, threads).counts == repcount.build_rk(x, 3).counts).all(), x

    @settings(max_examples=20)
    @given(x=st.integers(0, 5 * 10**4))
    @example(x=8 * 1024 * 2 - 1)  # 2048 rows: two whole int16 class tiles
    @example(x=5 * 10**4)
    def check(x):
        table = repcount.build_r3_fold(x, threads)
        expected = repcount.build_rk(x, 3).counts
        assert (table.counts == expected).all()
        for size in (8, 24, 2**14):
            blocks = [block.copy() for block in table.blocks(size)]
            assert all(block.size == size for block in blocks[:-1])
            assert (np.concatenate(blocks) == expected).all()

    check()


@pytest.mark.parametrize("x", [0, 7, 8, 9, 2**14 - 1, 2**14, 2**14 + 8, 2**16 - 1, 2**16, 2**16 + 1, 70_001])
def test_a_fold_table_writes_the_bytes_of_its_natural_counts(x, tmp_path):
    """Both writers read a fold table through its natural blocks: the files
    are those of the same counts held in natural order, across the CSV and
    binary chunk edges."""
    fold = repcount.build_r3_fold(x)
    natural = repcount.RepTable(3, x, fold.counts.copy())
    for save in (repcount.save_csv, repcount.save_binary):
        save(fold, tmp_path / "fold")
        save(natural, tmp_path / "natural")
        assert (tmp_path / "fold").read_bytes() == (tmp_path / "natural").read_bytes()


def _failing_blocks(size=None):
    """Blocks whose reading fails once a writer has started the file."""
    raise OSError(28, "No space left on device")
    yield


@pytest.mark.parametrize("save", [repcount.save_csv, repcount.save_binary])
def test_table_writers_replace_the_target_atomically(tmp_path, save):
    target = tmp_path / "table.out"
    target.write_bytes(b"previous table")
    target.chmod(0o600)
    with pytest.raises(OSError):
        save(SimpleNamespace(order=3, limit=1, blocks=_failing_blocks), target)
    assert target.read_bytes() == b"previous table"
    assert os.listdir(tmp_path) == ["table.out"]
    save(repcount.build_r1(4), target)
    assert target.read_bytes() != b"previous table"
    assert os.listdir(tmp_path) == ["table.out"]
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600  # an existing file keeps its mode
    umask = os.umask(0)
    os.umask(umask)
    save(repcount.build_r1(4), tmp_path / "new.out")
    assert stat.S_IMODE(os.stat(tmp_path / "new.out").st_mode) == 0o666 & ~umask


def test_table_writers_write_through_a_symlink(tmp_path):
    target, link = tmp_path / "table.csv", tmp_path / "link.csv"
    target.write_text("old")
    link.symlink_to(target)
    repcount.save_csv(repcount.build_r1(1), link)
    assert link.is_symlink()
    assert target.read_text() == "n,count\n0,1\n1,2\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "table.csv"]


def test_table_file_detects_the_format(tmp_path, t3_fold):
    csv_path, bin_path = tmp_path / "r3.csv", tmp_path / "r3.bin"
    repcount.save_csv(t3_fold, csv_path)
    repcount.save_binary(t3_fold, bin_path)
    for path in (csv_path, bin_path):
        assert (read_table(path, 3, t3_fold.limit) == t3_fold.counts).all()
    with pytest.raises(DomainError):
        read_table(bin_path, 4, 1)
    with pytest.raises(TableTooShortError):
        read_table(csv_path, 3, t3_fold.limit + 1)


def test_csv_of_another_order_is_refused(tmp_path):
    """A CSV carries no order: rows 0 and 1 must be r_k(0) = 1 and r_k(1) = 2k
    for the order stated, and only the rows a limit reads are checked."""
    path = tmp_path / "r8.csv"
    repcount.save_csv(repcount.build_rk(50, 8), path)
    with pytest.raises(DomainError, match=r"has r\(0\) = 1, r\(1\) = 16; an order-3 table"):
        read_table(path, 3, 50)
    assert read_table(path, 8, 50)[1] == 16
    path.write_bytes(b"n,count\n0,2\n1,6\n")
    with pytest.raises(DomainError, match=r"has r\(0\) = 2; an order-3 table"):
        read_table(path, 3, 0)


def test_loaders_read_only_the_rows_a_limit_asks_for(tmp_path, monkeypatch):
    """TableFile with every limit from 0 past the table's end, the CSV read
    in blocks of a few bytes, with LF or CRLF line ends: the counts 0..limit,
    or TableTooShortError. A malformed row after row limit is never read."""

    @settings(max_examples=60)
    @given(
        block=st.integers(1, 9),
        rows=st.integers(1, 40),
        limit=st.integers(0, 45),
        crlf=st.booleans(),
        comment=st.none() | st.just("c"),
    )
    @example(block=4, rows=3, limit=0, crlf=True, comment=None)  # row 0 ends b"0,1\r|\n"
    @example(block=9, rows=40, limit=39, crlf=False, comment="c")
    def check(block, rows, limit, crlf, comment):
        monkeypatch.setattr(repcount, "_CSV_BLOCK", block)
        counts = np.arange(rows, dtype=np.int64) * 7 % 11
        counts[:2] = (1, 6)[:rows]  # the rows that tell a CSV's order
        table = repcount.RepTable(3, rows - 1, counts)
        csv_path, bin_path = tmp_path / "t.csv", tmp_path / "t.bin"
        repcount.save_csv(table, csv_path, header_comment=comment)
        repcount.save_binary(table, bin_path)
        if crlf:
            csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
        for path in (csv_path, bin_path):
            if limit >= rows:
                with pytest.raises(TableTooShortError):
                    read_table(path, 3, limit)
                continue
            loaded = read_table(path, 3, limit)
            assert loaded.dtype == np.int64
            assert loaded.tolist() == counts[: limit + 1].tolist()
        if limit < rows - 1:  # a bad row, and a count of 2^63, past the prefix
            csv_path.write_bytes(csv_path.read_bytes() + b"x,y\n")
            raw = bytearray(bin_path.read_bytes())
            raw[-8:] = b"\xff" * 8
            bin_path.write_bytes(bytes(raw))
            for path in (csv_path, bin_path):
                assert read_table(path, 3, limit).tolist() == counts[: limit + 1].tolist()

    check()


_NOT_A_ROW = "a row is not an n,count row"
_MALFORMED_BODIES = {  # body, and the message it is refused with
    "non-integer": ("0,1\n1,x\n", _NOT_A_ROW),
    "one-cell": ("0,1\n1\n", _NOT_A_ROW),
    "three-cells": ("0,1\n1,2,3\n", _NOT_A_ROW),
    "above-2^63": ("0,1\n1,9223372036854775808\n", "a cell lies outside the 64-bit range"),
    "negative": ("0,-1\n", _NOT_A_ROW),
    "comment-below-header": ("0,1\n# note\n1,2\n", _NOT_A_ROW),
    "two-cell-comment": ("0,1\n# note,2\n1,2\n", _NOT_A_ROW),
    "leading-zero": ("0,1\n1,02\n", _NOT_A_ROW),
    "lone-cr-at-the-end": ("0,1\n1,2\r", _NOT_A_ROW),
    "cr-cr-lf": ("0,1\r\r\n1,2\n", _NOT_A_ROW),
    "trailing-blank-line": ("0,1\n1,2\n\n", _NOT_A_ROW),
    "empty-cell": (",1\n", _NOT_A_ROW),
}


@pytest.mark.parametrize("body, message", list(_MALFORMED_BODIES.values()), ids=list(_MALFORMED_BODIES))
def test_csv_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"n,count\n" + body.encode())
    with pytest.raises(DomainError) as refused:
        read_table(path, 1, 10)  # a limit past the last row, so every row is read
    assert str(refused.value) == message


def test_csv_reads_past_leading_comments(tmp_path):
    path = tmp_path / "r1.csv"
    path.write_bytes(b"# one\r\n# two\r\nn,count\r\n0,1\r\n1,2\r\n")
    assert read_table(path, 1, 1).tolist() == [1, 2]


@pytest.mark.parametrize(
    "raw",
    [
        b"n,count\n0,1\n1,2",
        b"n,count\r\n0,1\r\n1,2",
        b"# one\n#\n# two,2\r\n# a comment longer than one read of the header\nn,count\n0,1\n1,2\n",
    ],
    ids=["no-final-newline", "crlf-no-final-newline", "long-and-mixed-comments"],
)
def test_csv_accepts_a_missing_final_newline_and_any_leading_comments(tmp_path, raw):
    path = tmp_path / "r1.csv"
    path.write_bytes(raw)
    assert read_table(path, 1, 1).tolist() == [1, 2]
    with pytest.raises(TableTooShortError, match="covers n <= 1, not 10$"):
        read_table(path, 1, 10)


@pytest.mark.parametrize("comment", ["two\nlines", "a\rcarriage return", "crlf\r\n"])
def test_csv_comment_of_more_than_one_line_is_refused_before_writing(tmp_path, comment):
    # a comment with a line end would give a table that the reader refuses
    with pytest.raises(DomainError):
        repcount.save_csv(repcount.build_r1(4), tmp_path / "t.csv", header_comment=comment)
    assert os.listdir(tmp_path) == []


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,count\n0,1\n")
    with pytest.raises(DomainError):
        read_table(path, 1, 10)


def test_csv_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,count\n0,1\n2,4\n")
    with pytest.raises(DomainError, match="at line 3$"):
        read_table(path, 1, 10)
    path.write_text("# a comment\n#\nn,count\n0,1\n1,2\n3,4\n")
    with pytest.raises(DomainError, match="at line 6$"):
        read_table(path, 1, 10)


def test_binary_rejects_corruption(tmp_path, t3_fold):
    path = tmp_path / "r3.bin"
    repcount.save_binary(t3_fold, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DomainError):
        read_table(bad_magic, 3, t3_fold.limit)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(DomainError):
        read_table(truncated, 3, t3_fold.limit)
    overflow = tmp_path / "overflow.bin"
    overflow.write_bytes(raw[:16] + b"\xff" * 8 + raw[24:])
    with pytest.raises(CountOverflowError):
        read_table(overflow, 3, t3_fold.limit)


def test_binary_header_claiming_2_40_entries_allocates_nothing(tmp_path):
    path = tmp_path / "claims.bin"
    path.write_bytes(repcount._HEADER.pack(repcount._BINARY_MAGIC, 3, 2**40 - 1) + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="expected 8796093022208"):
            read_table(path, 3, 2**40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # numpy reports its buffers to tracemalloc


def test_csv_claiming_2_40_rows_allocates_only_what_its_bytes_hold(tmp_path):
    path = tmp_path / "r1.csv"
    path.write_bytes(b"n,count\n0,1\n1,2\n2,0\n")
    tracemalloc.start()
    try:
        with pytest.raises(TableTooShortError, match="covers n <= 2"):
            read_table(path, 1, 2**40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_csv_is_read_in_one_pass(tmp_path, monkeypatch):
    path = tmp_path / "r3.csv"
    table = repcount.build_r3_fold(5000)
    repcount.save_csv(table, path, header_comment="r3")
    read = 0

    def count(got):
        nonlocal read
        read += len(got)
        return got

    class Counting(io.BufferedReader):  # counts the bytes each read returns
        def read(self, *args):
            return count(super().read(*args))

        def readline(self, *args):
            return count(super().readline(*args))

    monkeypatch.setattr(repcount, "open", lambda path, mode: Counting(io.FileIO(path)), raising=False)
    monkeypatch.setattr(repcount, "_CSV_BLOCK", 1024)  # many blocks, and a short last one
    read = 0
    assert read_table(path, 3, 5000).tolist() == table.counts.tolist()
    # every byte once, after the 4 bytes read to tell the format
    assert 0 < read <= path.stat().st_size + len(repcount._BINARY_MAGIC)
    read = 0
    with pytest.raises(TableTooShortError):  # a limit past the table's end: read to the end, once
        read_table(path, 3, 6000)
    assert 0 < read <= path.stat().st_size + len(repcount._BINARY_MAGIC)


def test_streamed_reads_fail_with_pinned_errors(tmp_path, t3_fold):
    """Every mismatched, short or corrupt table file of this module's tests,
    read as a stream to its end: the exception and its message, word for
    word, with {path} for the file's path. A file without the binary magic is
    read as a CSV."""
    repcount.save_binary(t3_fold, tmp_path / "r3.bin")
    repcount.save_csv(t3_fold, tmp_path / "r3.csv")
    repcount.save_csv(repcount.build_rk(50, 8), tmp_path / "r8.csv")
    good, x = (tmp_path / "r3.bin").read_bytes(), t3_fold.limit
    claims = repcount._HEADER.pack(repcount._BINARY_MAGIC, 3, 2**40 - 1) + bytes(8)
    cases = {
        "header.csv": (b"m,count\n0,1\n", 1, 10, DomainError, "expected header n,count, got 'm,count'"),
        "order.csv": (b"n,count\n0,1\n2,4\n", 1, 10, DomainError, "rows out of order at line 3"),
        "order-after-comments.csv": (b"# a comment\n#\nn,count\n0,1\n1,2\n3,4\n", 1, 10,
                                     DomainError, "rows out of order at line 6"),
        "r8.csv": ((tmp_path / "r8.csv").read_bytes(), 3, 50, DomainError,
                   "table {path} has r(0) = 1, r(1) = 16; an order-3 table has r(0) = 1, r(1) = 6"),
        "r0.csv": (b"n,count\n0,2\n1,6\n", 3, 0, DomainError,
                   "table {path} has r(0) = 2; an order-3 table has r(0) = 1, r(1) = 6"),
        "short.csv": ((tmp_path / "r3.csv").read_bytes(), 3, x + 1, TableTooShortError,
                      "table {path} covers n <= 2000, not 2001"),
        "rows-for-2^40.csv": (b"n,count\n0,1\n1,2\n2,0\n", 1, 2**40, TableTooShortError,
                              "table {path} covers n <= 2, not 1099511627776"),
        "r3-as-r4.bin": (good, 4, 1, DomainError, "table {path} has order 3, expected 4"),
        "short.bin": (good, 3, x + 1, TableTooShortError, "table {path} covers n <= 2000, not 2001"),
        "magic.bin": (b"XXXX" + good[4:], 3, x, DomainError,
                      "expected header n,count, got 'XXXX\\x03\\x00\\x00\\x00\ufffd'"),
        "truncated.bin": (good[:-8], 3, x, DomainError, "table body has 16000 bytes, expected 16008"),
        "cut-header.bin": (good[:10], 3, x, DomainError, "truncated table file"),
        "overflow.bin": (good[:16] + b"\xff" * 8 + good[24:], 3, x, CountOverflowError,
                         "stored count exceeds 63-bit range"),
        "claims-2^40.bin": (claims, 3, 2**40, DomainError, "table body has 8 bytes, expected 8796093022208"),
    }
    for name, (data, order, limit, error, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(SquaresumsError) as streamed:
            for _ in repcount.TableFile(path, order, limit).blocks():
                pass
        assert type(streamed.value) is error, name
        assert str(streamed.value) == message.format(path=path), name


def test_origin_count(t3_fold, t3_conv):
    assert t3_fold.counts[0] == 1
    assert t3_conv.counts[0] == 1
    assert repcount.build_r1(10).counts[0] == 1
