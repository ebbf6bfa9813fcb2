"""Exact count tables against literal tuple enumeration and classical identities."""

import itertools
import math
import os
import stat
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squaresums import repcount
from squaresums.errors import CountOverflowError, DomainError, TableTooShortError


def brute_counts(k: int, x: int) -> list[int]:
    """r_k(0..x) by enumerating every signed integer k-tuple, no shortcuts."""
    counts = [0] * (x + 1)
    s = math.isqrt(x)
    for tup in itertools.product(range(-s, s + 1), repeat=k):
        total = sum(m * m for m in tup)
        if total <= x:
            counts[total] += 1
    return counts


def brute_positive_counts(x: int) -> list[int]:
    """Positive-coordinate triples only."""
    counts = [0] * (x + 1)
    s = math.isqrt(x)
    for tup in itertools.product(range(1, s + 1), repeat=3):
        total = sum(m * m for m in tup)
        if total <= x:
            counts[total] += 1
    return counts


def divisor_sum_not_div_4(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % 4 != 0)


@pytest.fixture(scope="module")
def t3_fold():
    return repcount.build_r3_fold(2000)


@pytest.fixture(scope="module")
def t3_conv():
    return repcount.build_rk(2000, 3)


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
    assert t3_fold.builder_tag == repcount.TAG_FOLD
    assert t3_conv.builder_tag == repcount.TAG_CONVOLUTION


def test_positive_only_matches_brute():
    table = repcount.build_rstar(60)
    assert list(table.counts) == brute_positive_counts(60)
    assert table.counts[0] == 0
    assert table.builder_tag == repcount.TAG_POSITIVE


def test_zero_coordinate_classification_identity(t3_fold):
    x = t3_fold.limit
    r3 = t3_fold.counts
    rs = repcount.build_rstar(x).counts
    r2 = repcount.build_rk(x, 2).counts
    r1 = repcount.build_r1(x).counts
    rhs = 8 * rs + 3 * r2 - 3 * r1
    assert (r3[1:] == rhs[1:]).all()
    # at n = 0 the all-zero tuple is dropped by the classification
    assert r3[0] == rhs[0] + 1


def test_three_square_criterion(t3_fold):
    for n in range(t3_fold.limit + 1):
        assert (t3_fold.counts[n] > 0) == repcount.is_representable(n), n
    assert not repcount.is_representable(7)
    assert not repcount.is_representable(28)
    assert not repcount.is_representable(112)
    assert not repcount.is_representable(15)
    assert repcount.is_representable(0)
    assert repcount.is_representable(3)


def test_r3_point_matches_table(t3_fold):
    for n in (0, 1, 2, 7, 25, 121, 777, 2000):
        assert repcount.r3_point(n) == t3_fold.counts[n], n


def test_four_square_divisor_identity():
    table = repcount.build_rk(300, 4)
    for n in range(1, 301):
        assert table.counts[n] == 8 * divisor_sum_not_div_4(n), n


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


def test_more_threads_than_cores_write_disjoint_tiles(monkeypatch):
    # eight workers on however many cores, switching as often as possible
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 8)
    x = 9 * repcount._TILE + 5
    single = repcount.build_r3_fold(x, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = repcount.build_r3_fold(x, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert (single.counts == many.counts).all()


def test_convolution_argument_order_is_irrelevant():
    r1 = repcount.build_r1(400)
    r2 = repcount.build_rk(400, 2)
    a = repcount.convolve(r1, r2, 400)
    b = repcount.convolve(r2, r1, 400)
    assert (a.counts == b.counts).all()
    assert a.order == b.order == 3


def test_table_too_short_raises():
    r1 = repcount.build_r1(100)
    with pytest.raises(TableTooShortError):
        repcount.convolve(r1, r1, 101)


def test_accumulator_overflow_is_detected():
    big = np.full(101, 1 << 31, dtype=np.int64)
    t = repcount.RepTable(order=1, limit=100, counts=big, builder_tag="file")
    with pytest.raises(CountOverflowError):
        repcount.convolve(t, t, 100)


def test_product_overflow_is_detected():
    huge = np.zeros(3, dtype=np.int64)
    huge[0] = 1 << 40
    huge[2] = 1 << 40
    t = repcount.RepTable(order=1, limit=2, counts=huge, builder_tag="file")
    with pytest.raises(CountOverflowError):
        repcount.convolve(t, t, 2)


def test_table_validation():
    good = np.array([1, 2], dtype=np.int64)
    with pytest.raises(DomainError):
        repcount.RepTable(order=0, limit=1, counts=good, builder_tag="file")
    with pytest.raises(DomainError):
        repcount.RepTable(order=1, limit=2, counts=good, builder_tag="file")
    with pytest.raises(DomainError):
        repcount.RepTable(order=1, limit=1, counts=good, builder_tag="nonsense")
    with pytest.raises(DomainError):
        repcount.RepTable(
            order=1, limit=1, counts=np.array([1, -2]), builder_tag="file"
        )
    with pytest.raises(DomainError):
        repcount.build_r1(-1)
    with pytest.raises(DomainError):
        repcount.build_rk(10, 0)
    with pytest.raises(DomainError):
        repcount.r3_point(-1)


def test_counts_are_frozen(t3_fold):
    with pytest.raises(ValueError):
        t3_fold.counts[0] = 99


def test_csv_round_trip(tmp_path, t3_fold):
    path = tmp_path / "r3.csv"
    repcount.save_csv(t3_fold, path, header_comment="demo")
    loaded = repcount.load_csv(path, order=3)
    assert loaded.limit == t3_fold.limit
    assert loaded.order == 3
    assert loaded.builder_tag == repcount.TAG_FILE
    assert (loaded.counts == t3_fold.counts).all()
    first = path.read_text().splitlines()[0]
    assert first == "# demo"


def test_tile_plan_caps_threads_at_cpu_count(monkeypatch):
    # only the plan is inspected; no thread is started
    def plan(entries, threads):
        return repcount._tile_plan([0], [1], np.zeros(entries, np.int64), entries - 1, threads)

    workers = plan(10**6, 10**6)
    assert 1 <= len(workers) <= (os.cpu_count() or 1)
    tiles = sorted(tile for tiles in workers for tile in tiles)
    assert tiles[0][0] == 0 and tiles[-1][1] == 10**6
    assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 4)
    assert len(plan(10**6, 10**6)) == 4
    assert len(plan(10**6, 3)) == 3
    tile = repcount._TILE
    assert plan(tile + 1, 10**6) == [[(0, tile, False)], [(tile, tile + 1, False)]]
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: None)
    assert plan(10**6, 10**6) == [tiles]


def test_tile_plan_deals_tiles_round_robin(monkeypatch):
    monkeypatch.setattr(repcount.os, "cpu_count", lambda: 2)
    tile = repcount._TILE
    workers = repcount._tile_plan([0], [1], np.zeros(5 * tile), 5 * tile - 1, 2)
    assert [[lo // tile for lo, _, _ in tiles] for tiles in workers] == [[0, 2, 4], [1, 3]]


def test_tile_bound_reads_every_earlier_tile():
    # the third tile adds src[n - 2T], which reaches back to src[0]
    tile = repcount._TILE
    src = np.zeros(3 * tile + 1, np.int64)
    src[0] = 2**61
    (tiles,) = repcount._tile_plan([0, 2 * tile], [1, 1], src, 3 * tile, 1)
    assert [g for _, _, g in tiles] == [False, False, True, True]
    out = repcount._shift_add([0, 2 * tile], [1, 1], src, 3 * tile, 1)
    assert out[0] == out[2 * tile] == 2**61 and np.count_nonzero(out) == 2


def test_r8_guards_only_its_last_tiles():
    # the last convolution of build_rk(5 * 10**5, 8) adds shifted copies of
    # r_7 along r_1; only the plan is inspected, no thread is started
    x = 500_000
    r1 = repcount.build_r1(x).counts
    r7 = repcount.build_rk(x, 7).counts
    offsets = np.flatnonzero(r1)
    (tiles,) = repcount._tile_plan(offsets, r1[offsets], r7, x, 1)
    guarded = [g for _, _, g in tiles]
    assert guarded == sorted(guarded)  # unguarded tiles first, then guarded ones
    assert not guarded[0] and guarded[-1]
    assert guarded.count(False) > guarded.count(True)


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
            if top and w > repcount._I64_MAX // top:
                raise CountOverflowError(
                    f"count product {w}*{top} exceeds 64-bit range"
                )
        out[start:hi] += w * seg
        if guarded and seg.size and int(out[start:hi].min()) < 0:
            raise CountOverflowError("count accumulator exceeds 64-bit range")


def _shift_add_oracle(offsets, weights, src, x):
    """The untiled kernel: every offset over the whole output, every add checked."""
    out = np.zeros(x + 1, dtype=np.int64)
    _accumulate_shifts(out, offsets, weights, src, 0, x + 1, guarded=True)
    return out


_T = repcount._TILE


@st.composite
def _shift_add_case(draw, x):
    """Ascending offsets with weights in runs, over a non-negative source whose
    magnitude reaches from unguarded tiles to 64-bit overflow."""
    offsets = sorted(draw(st.sets(st.integers(0, x + 10), min_size=1, max_size=24)))
    weight = st.sampled_from([2, 2, 2, 0, 1, 3, 2**20, 2**40])
    weights = draw(st.lists(weight, min_size=len(offsets), max_size=len(offsets)))
    bits = draw(st.sampled_from([62, 58, 56, 50, 40, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    src = rng.integers(0, 2**bits, size=x + 1, dtype=np.int64)
    ramp = draw(st.sampled_from([None, (0.0, 1.0), (1.0, 0.0)]))
    if ramp:  # growing with n, as counts do, or falling: a tile's bound reads earlier tiles
        src = (src * np.linspace(*ramp, x + 1)).astype(np.int64)
    return offsets, weights, src


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("x", [0, 100, _T - 1, _T, _T + 1, 3 * _T + 7])
def test_tiled_kernel_matches_untiled_oracle(x, threads):
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(case=_shift_add_case(x))
    def check(case):
        offsets, weights, src = case
        args = (np.array(offsets), np.array(weights), src, x, threads)
        try:
            expected = _shift_add_oracle(offsets, weights, src, x)
        except CountOverflowError:
            with pytest.raises(CountOverflowError):
                repcount._shift_add(*args)
            return
        assert (repcount._shift_add(*args) == expected).all()

    check()


class _FailingCounts:
    """Counts whose reading fails once a writer has started the file."""

    def __iter__(self):
        yield 1
        raise OSError(28, "No space left on device")

    def __array__(self, *args, **kwargs):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("save", [repcount.save_csv, repcount.save_binary])
def test_table_writers_replace_the_target_atomically(tmp_path, save):
    target = tmp_path / "table.out"
    target.write_bytes(b"previous table")
    target.chmod(0o600)
    with pytest.raises(OSError):
        save(SimpleNamespace(order=3, limit=1, counts=_FailingCounts()), target)
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


def test_load_table_detects_the_format(tmp_path, t3_fold):
    csv_path, bin_path = tmp_path / "r3.csv", tmp_path / "r3.bin"
    repcount.save_csv(t3_fold, csv_path)
    repcount.save_binary(t3_fold, bin_path)
    for path in (csv_path, bin_path):
        loaded = repcount.load_table(path, 3, t3_fold.limit)
        assert (loaded.counts == t3_fold.counts).all()
    with pytest.raises(DomainError):
        repcount.load_table(bin_path, 4, 1)
    with pytest.raises(TableTooShortError):
        repcount.load_table(csv_path, 3, t3_fold.limit + 1)


@pytest.mark.parametrize(
    "body",
    ["0,1\n1,x\n", "0,1\n1\n", "0,1\n1,2,3\n", "0,1\n1,9223372036854775808\n", "0,-1\n"],
    ids=["non-integer", "one-cell", "three-cells", "above-2^63", "negative"],
)
def test_csv_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("n,count\n" + body)
    with pytest.raises(DomainError):
        repcount.load_csv(path, order=1)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,count\n0,1\n")
    with pytest.raises(DomainError):
        repcount.load_csv(path, order=1)


def test_csv_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,count\n0,1\n2,4\n")
    with pytest.raises(DomainError):
        repcount.load_csv(path, order=1)


def test_binary_round_trip(tmp_path, t3_fold):
    path = tmp_path / "r3.bin"
    repcount.save_binary(t3_fold, path)
    loaded = repcount.load_binary(path)
    assert loaded.order == 3
    assert loaded.limit == t3_fold.limit
    assert (loaded.counts == t3_fold.counts).all()


def test_binary_rejects_corruption(tmp_path, t3_fold):
    path = tmp_path / "r3.bin"
    repcount.save_binary(t3_fold, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DomainError):
        repcount.load_binary(bad_magic)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(DomainError):
        repcount.load_binary(truncated)
    overflow = tmp_path / "overflow.bin"
    overflow.write_bytes(raw[:16] + b"\xff" * 8 + raw[24:])
    with pytest.raises(CountOverflowError):
        repcount.load_binary(overflow)


def test_origin_count(t3_fold, t3_conv):
    assert t3_fold.counts[0] == 1
    assert t3_conv.counts[0] == 1
    assert repcount.build_r1(10).counts[0] == 1
    assert repcount.build_rstar(10).counts[0] == 0
