"""Verification harness: exact partial sums, fits, and truncation sweeps."""

import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squaresums import repcount, singular, verify
from squaresums._util import SAFE_LIMIT
from squaresums.constants import mean_square_constant, w_constant
from squaresums.errors import (
    DomainError,
    InsufficientPointsError,
    TableTooShortError,
)
from oracles import concatenated, exact_sum
from tablefiles import read_table


@pytest.fixture(scope="module")
def t3():
    return repcount.build_r3_fold(2000)


def test_geometric_checkpoints():
    assert verify.geometric_checkpoints(10**6) == [
        100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000,
    ]
    assert verify.geometric_checkpoints(2500) == [100, 300, 1000, 2500]
    assert verify.geometric_checkpoints(50) == [50]
    with pytest.raises(DomainError):
        verify.geometric_checkpoints(0)


def test_mean_value_series_small_sums(t3):
    cps = verify.mean_value_series(t3, [1, 4, 9])
    assert [c.partial_sum for c in cps] == [6, 32, 6 + 12 + 8 + 6 + 24 + 24 + 0 + 12 + 30]
    assert cps[0].main_term == pytest.approx((4 / 3) * math.pi, rel=1e-15)
    assert cps[1].main_term == pytest.approx((4 / 3) * math.pi * 8, rel=1e-15)
    for c in cps:
        assert c.abs_err == pytest.approx(abs(c.partial_sum - c.main_term))
        assert c.rel_err == pytest.approx(c.abs_err / c.main_term)


def test_mean_square_series_small_sums(t3):
    cps = verify.mean_square_series(t3, [1, 3])
    assert cps[0].partial_sum == 36
    assert cps[1].partial_sum == 36 + 144 + 64
    assert cps[1].main_term == pytest.approx(mean_square_constant() * 9, rel=1e-15)


def test_mean_square_general_small_sums():
    t4 = repcount.build_rk(50, 4)
    cps = verify.mean_square_general(4, t4, [1, 2])
    assert cps[0].partial_sum == 64
    assert cps[1].partial_sum == 64 + 576
    assert cps[0].main_term == pytest.approx(32 * float(mpmath.zeta(3)), rel=1e-12)
    assert cps[1].main_term == pytest.approx(w_constant(4) * 8, rel=1e-12)
    with pytest.raises(DomainError):
        verify.mean_square_general(3, t4, [1])


def test_series_rejects_bad_grids(t3):
    with pytest.raises(DomainError):
        verify.mean_value_series(t3, [])
    with pytest.raises(DomainError):
        verify.mean_value_series(t3, [10, 10])
    with pytest.raises(DomainError):
        verify.mean_value_series(t3, [0, 5])
    with pytest.raises(TableTooShortError):
        verify.mean_value_series(t3, [100, 5000])
    t4 = repcount.build_rk(10, 4)
    with pytest.raises(DomainError):
        verify.mean_value_series(t4, [5])
    with pytest.raises(DomainError):
        verify.mean_square_general(4, t3, [5])


def test_exact_accumulation_beyond_int64():
    big = np.array([0, 1 << 31, (1 << 31) + 1], dtype=np.int64)
    table = repcount.RepTable(order=3, limit=2, counts=big)
    cps = verify.mean_square_series(table, [1, 2])
    assert cps[0].partial_sum == (1 << 31) ** 2
    assert cps[1].partial_sum == (1 << 31) ** 2 + ((1 << 31) + 1) ** 2


def test_fast_and_exact_paths_agree(t3):
    xs = [10, 100, 1500]
    fast = verify.mean_square_series(t3, xs)
    obj = verify._prefix_at(t3.counts.astype(object).astype(np.int64), xs, True)
    forced = verify._prefix_at(t3.counts, xs, True)
    assert forced == obj
    assert [c.partial_sum for c in fast] == [obj[x] for x in xs]


def _edge_top(size, square, above):
    """The largest entry that keeps a block of `size` entries under SAFE_LIMIT
    (top * size, or top * top * size for squares), or the next one if `above`."""
    room = (int(SAFE_LIMIT) - 1) // size
    return (math.isqrt(room) if square else room) + int(above)


@st.composite
def _boundary_case(draw, square):
    """Counts whose every block between checkpoints has an exact bound just
    below or just above SAFE_LIMIT, each side drawn per block, with ascending
    checkpoints."""
    size = draw(st.integers(2, 200))
    xs = sorted(draw(st.lists(st.integers(1, size - 1), min_size=1, max_size=8, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    counts = rng.integers(0, 100, size=size)
    prev = 1
    for x in xs:
        above = draw(st.booleans())
        step = draw(st.integers(0, 2))
        top = _edge_top(x + 1 - prev, square, above) + (step if above else -step)
        counts[prev : x + 1] = rng.integers(0, top, size=x + 1 - prev, endpoint=True)
        counts[rng.integers(prev, x + 1)] = top
        prev = x + 1
    return counts, xs


@pytest.mark.parametrize("square", [False, True])
def test_prefix_paths_agree_at_the_int64_boundary(square):
    @settings(max_examples=40)
    @given(case=_boundary_case(square))
    def check(case):
        counts, xs = case
        power = 2 if square else 1
        exact = {x: sum(int(c) ** power for c in counts[1 : x + 1]) for x in xs}
        assert verify._prefix_at(counts, xs, square) == exact
        for limit in (0.0, math.inf):  # force the Python-int path, then the int64 one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "SAFE_LIMIT", limit)
                assert verify._prefix_at(counts, xs, square) == exact

    check()


_BIG = st.sampled_from([2**31 - 1, 2**31, 2**61, 2**62 - 1, 2**62, 2**63 - 1])


@st.composite
def _block_case(draw, block):
    """Small counts with runs of entries near 2^31 or 2^62, whose sums or sums of
    squares can pass 2^63, so int64 and Python-int blocks alternate; checkpoints
    at k*block - 1, k*block and k*block + 1."""
    size = draw(st.integers(2, 8 * block + 2))
    counts = draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, size - 1))
        run = draw(st.lists(_BIG, min_size=1, max_size=4))[: size - at]
        counts[at : at + len(run)] = run
    edges = [k * block + d for k in range(1, 9) for d in (-1, 0, 1)]
    xs = draw(st.sets(st.sampled_from([e for e in edges if 1 <= e < size] or [size - 1])))
    return np.array(counts, dtype=np.int64), sorted(xs) or [size - 1]


@pytest.mark.parametrize("block", [1, 2, 8])
@pytest.mark.parametrize("square", [False, True])
def test_prefix_blocks_match_the_exact_sum(block, square, monkeypatch):
    monkeypatch.setattr(verify, "_SUM_BLOCK", block)

    @settings(max_examples=60)
    @given(case=_block_case(block))
    def check(case):
        counts, xs = case
        power = 2 if square else 1
        exact = {x: sum(int(c) ** power for c in counts[1 : x + 1]) for x in xs}
        assert verify._prefix_at(counts, xs, square) == exact

    check()


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("square", [False, True])
def test_prefix_sums_of_narrow_counts_do_not_wrap(dtype, square, monkeypatch):
    # built tables keep their pass's width; a block squared (or summed) in
    # int16 or int32 would wrap, so each is widened before it is summed
    monkeypatch.setattr(verify, "_SUM_BLOCK", 8)
    top = int(np.iinfo(dtype).max)

    @settings(max_examples=40)
    @given(
        counts=st.lists(st.integers(0, top) | st.sampled_from([top, top - 1]), min_size=2, max_size=100),
        data=st.data(),
    )
    def check(counts, data):
        xs = sorted(data.draw(st.sets(st.integers(1, len(counts) - 1), min_size=1)))
        power = 2 if square else 1
        exact = {x: sum(c**power for c in counts[1 : x + 1]) for x in xs}
        assert verify._prefix_at(np.array(counts, dtype=dtype), xs, square) == exact

    check()


def test_prefix_sums_make_no_table_sized_temporary():
    counts = np.arange(2 * 10**6, dtype=np.int64) % 1000
    counts[-1] = 2**62  # its block, and only its block, sums in Python ints
    tracemalloc.start()
    try:
        sums = verify._prefix_at(counts, [10**6, counts.size - 1], True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums[counts.size - 1] == int((counts[1:-1] ** 2).sum()) + 2**124
    assert peak < counts.nbytes // 8


def _cr_on_the_seam(rows: int) -> np.ndarray:
    """Order-3 counts of `rows` rows, all below 10 but row 2, whose width puts
    a CR as the last byte of the first _CSV_BLOCK bytes of the CRLF body."""
    counts = np.arange(rows, dtype=np.int64) % 10
    counts[:2] = 1, 6
    for width in range(1, 20):
        counts[2] = 10 ** (width - 1)
        ends = np.cumsum([len(f"{n},{c}\r\n") for n, c in enumerate(counts.tolist())])
        if repcount._CSV_BLOCK + 1 in ends:  # that row's LF opens the second block
            return counts
    raise AssertionError("no width of row 2 puts a CR on the seam")


@st.composite
def _stream_case(draw):
    """Order-3 counts of 2^16 - 1, 2^16 or 2^16 + 1 rows, or of a few, up to
    2^63 - 1, with a limit below their end and an ascending checkpoint grid."""
    rows = draw(st.sampled_from([2**16 - 1, 2**16, 2**16 + 1]) | st.integers(3, 300))
    top = draw(st.sampled_from([9, 1000, 2**31, 2**62, 2**63 - 1]))
    counts = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, top, rows, endpoint=True)
    counts[:2] = 1, 6  # the rows that tell a CSV's order
    limit = draw(st.sampled_from([rows - 1, rows - 2]) | st.integers(1, rows - 1))
    xs = draw(st.sets(st.integers(1, limit) | st.just(limit), min_size=1, max_size=12))
    return counts, limit, sorted(xs)


def test_streamed_sums_equal_the_sums_of_the_loaded_table(tmp_path):
    """A table file's blocks, summed as they are read, give the sums of the
    loaded counts, from a binary file and from a CSV with LF or CRLF line ends
    whose 64 KiB blocks cut mid-row and between a CR and its LF."""
    seams = set()
    seam_case = (_cr_on_the_seam(2**16 + 1), 2**16, [1, 6553, 2**16])

    @settings(max_examples=20)
    @given(case=_stream_case(), crlf=st.booleans())
    @example(case=seam_case, crlf=True)
    def check(case, crlf):
        counts, limit, xs = case
        table = repcount.RepTable(3, counts.size - 1, counts)
        csv_path, bin_path = tmp_path / "t.csv", tmp_path / "t.bin"
        repcount.save_csv(table, csv_path)
        repcount.save_binary(table, bin_path)
        raw = csv_path.read_bytes()
        if crlf:
            csv_path.write_bytes(raw := raw.replace(b"\n", b"\r\n"))
        body = raw[raw.index(b"\n") + 1 :]
        seams.update(body[repcount._CSV_BLOCK - 1 :: repcount._CSV_BLOCK])  # the last byte of each block
        for path in (csv_path, bin_path):
            loaded = read_table(path, 3, limit)
            for square in (False, True):
                streamed = verify._prefix_at(repcount.TableFile(path, 3, limit).blocks(), xs, square)
                assert streamed == verify._prefix_at(loaded, xs, square)

    check()
    assert ord("\r") in seams and seams - set(b"\r\n")  # a CR|LF cut, and a mid-row one


def test_prefix_sums_walk_every_block_and_refuse_a_short_stream():
    counts = np.arange(10, dtype=np.int64)
    walked = []

    def blocks():
        for lo in range(0, 10, 3):
            walked.append(lo)
            yield counts[lo : lo + 3]

    assert verify._prefix_at(blocks(), [1, 4], True) == {1: 1, 4: 1 + 4 + 9 + 16}
    assert walked == [0, 3, 6, 9]  # past the last checkpoint: a file's own checks run to its end
    with pytest.raises(TableTooShortError, match="checkpoint 10 exceeds the last count, at n = 9"):
        verify._prefix_at(blocks(), [4, 10], False)


def test_fit_recovers_synthetic_slope():
    cps = [
        verify.Checkpoint(
            x=x,
            partial_sum=1,
            main_term=1.0,
            abs_err=2.5 * x**1.5,
            rel_err=0.1,
        )
        for x in (10, 100, 1000, 10000)
    ]
    fit = verify.fit_error_exponent(cps)
    assert fit.slope == pytest.approx(1.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(2.5), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 4


def test_fit_skips_zero_error_points():
    cps = [
        verify.Checkpoint(x=x, partial_sum=1, main_term=1.0, abs_err=err, rel_err=0.1)
        for x, err in ((10, 0.0), (20, 2.0), (40, 4.0), (80, 8.0))
    ]
    fit = verify.fit_error_exponent(cps)
    assert fit.points_used == 3
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_requires_three_positive_points():
    cps = [
        verify.Checkpoint(x=x, partial_sum=1, main_term=1.0, abs_err=e, rel_err=0.1)
        for x, e in ((10, 1.0), (20, 2.0), (40, 0.0))
    ]
    with pytest.raises(InsufficientPointsError):
        verify.fit_error_exponent(cps)


def _fit_oracle(points):
    """fit_error_exponent's algebra with each fsum replaced by exact_sum: the
    exact rational sum of the float64 terms, rounded once."""
    total = lambda terms: exact_sum([np.array(terms, dtype=np.float64)])  # noqa: E731
    pts = [(math.log(p.x), math.log(p.abs_err)) for p in points if p.abs_err > 0.0]
    n = len(pts)
    xm = total([x for x, _ in pts]) / n
    ym = total([y for _, y in pts]) / n
    dx = [x - xm for x, _ in pts]
    dy = [y - ym for _, y in pts]
    slope = total([a * b for a, b in zip(dx, dy)]) / total([d * d for d in dx])
    intercept = ym - slope * xm
    sst = total([d * d for d in dy])
    res = [y - intercept - slope * x for x, y in pts]
    r2 = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - total([r * r for r in res]) / sst))
    return slope, intercept, r2


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(1, 10**12), st.floats(5e-324, 1e300)),
                min_size=3, max_size=40, unique_by=lambda row: row[0]))
def test_fit_sums_are_exact_sums_rounded_once(rows):
    """On 3-40 points with distinct x, the fit equals the oracle bit for bit."""
    points = [SimpleNamespace(x=x, abs_err=err) for x, err in rows]
    fit = verify.fit_error_exponent(points)
    got = (fit.slope, fit.intercept, fit.r_squared)
    assert list(map(float.hex, got)) == list(map(float.hex, _fit_oracle(points)))
    assert fit.points_used == len(rows)


def test_checkpoint_validation():
    with pytest.raises(DomainError):
        verify.Checkpoint(x=0, partial_sum=1, main_term=1.0, abs_err=0.0, rel_err=0.0)
    with pytest.raises(DomainError):
        verify.Checkpoint(x=1, partial_sum=-1, main_term=1.0, abs_err=0.0, rel_err=0.0)
    with pytest.raises(DomainError):
        verify.Checkpoint(x=1, partial_sum=1, main_term=0.0, abs_err=0.0, rel_err=0.0)
    with pytest.raises(DomainError):
        verify.Checkpoint(x=1, partial_sum=1, main_term=1.0, abs_err=-1.0, rel_err=0.0)
    with pytest.raises(DomainError):
        verify.FitResult(slope=1.0, intercept=0.0, r_squared=1.5, points_used=3)
    with pytest.raises(DomainError):
        verify.FitResult(slope=1.0, intercept=0.0, r_squared=0.5, points_used=2)


def test_truncation_sweep_values():
    sweep = verify.singular_truncation_sweep(2, [10, 1, 10])
    assert sweep.n == 2
    assert sweep.r3 == 12
    assert [p.Q for p in sweep.points] == [1, 10]
    assert sweep.points[0].bateman == pytest.approx(2 * math.pi * math.sqrt(2))
    for p in sweep.points:
        assert p.abs_err == pytest.approx(abs(p.bateman - 12))
        assert p.rel_err == pytest.approx(p.abs_err / 12)


def test_truncation_sweep_reads_the_prefix_sums_across_blocks():
    """Each bateman value is 2 pi sqrt(n) times np.cumsum of the terms, bit for
    bit, at Q inside, at and past the edges of the running sum's blocks."""
    qs = [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5]
    for n in (5, 199999):  # r_3(199999) = 0, as 199999 = 7 mod 8
        prefix = np.cumsum(concatenated(singular.series_blocks(n, qs[-1])))
        want = [float(singular.bateman_factor(n) * prefix[Q - 1]) for Q in qs]
        assert [p.bateman for p in verify.singular_truncation_sweep(n, qs).points] == want


def test_truncation_sweep_is_within_its_bound_of_the_exact_sum():
    """The sweep's sequential prefix is within gamma_{Q-1} sum |A(q, n)| of the
    exact sum, which truncation rounds once: 2 pi sqrt(n) times each of them
    agree within that bound times the factor, plus the rounding of the exact
    sum and of both products, at Q across the sieve's block edges."""
    u = 2.0**-53
    qs = [2**15 - 1, 2**15, 2**15 + 1, 2**16 - 1, 2**16, 2**16 + 1]
    for n in (1, 5, 199999):
        factor = singular.bateman_factor(n)
        sizes = np.abs(concatenated(singular.series_blocks(n, qs[-1])))
        points = verify.singular_truncation_sweep(n, qs).points
        assert [p.Q for p in points] == qs
        for p in points:
            exact = singular.truncation(n, p.Q)
            gamma = (p.Q - 1) * u / (1 - (p.Q - 1) * u)
            bound = factor * (gamma * math.fsum(sizes[: p.Q]) + math.ulp(exact) / 2)
            bound += (math.ulp(p.bateman) + math.ulp(factor * exact)) / 2
            assert abs(p.bateman - factor * exact) <= bound, (n, p.Q)


def test_truncation_sweep_zero_class():
    sweep = verify.singular_truncation_sweep(7, [1, 100])
    assert sweep.r3 == 0
    assert math.isnan(sweep.points[0].rel_err)
    assert sweep.points[0].abs_err == pytest.approx(abs(sweep.points[0].bateman))
    with pytest.raises(DomainError):
        verify.singular_truncation_sweep(2, [])
    with pytest.raises(DomainError):
        verify.singular_truncation_sweep(2, [0, 5])


def test_series_agrees_across_builders(t3):
    conv = repcount.build_rk(2000, 3)
    xs = [100, 1000, 2000]
    a = verify.mean_value_series(t3, xs)
    b = verify.mean_value_series(conv, xs)
    assert [c.partial_sum for c in a] == [c.partial_sum for c in b]
    sa = verify.mean_square_series(t3, xs)
    sb = verify.mean_square_series(conv, xs)
    assert [c.partial_sum for c in sa] == [c.partial_sum for c in sb]
