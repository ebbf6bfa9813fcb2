"""Verification harness: exact partial sums, fits, and truncation sweeps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squaresums import repcount, verify
from squaresums._util import SAFE_LIMIT
from squaresums.constants import mean_square_constant, w_constant, zeta_real
from squaresums.errors import (
    DomainError,
    InsufficientPointsError,
    TableTooShortError,
)


@pytest.fixture(scope="module")
def t3():
    return repcount.build_r3_fold(2000)


def test_geometric_checkpoints():
    assert verify.geometric_checkpoints(10**6) == [
        100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000,
    ]
    assert verify.geometric_checkpoints(10**6, start=10**4) == [
        10000, 30000, 100000, 300000, 1000000,
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
    assert cps[0].main_term == pytest.approx(32 * zeta_real(3.0), rel=1e-12)
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
    table = repcount.RepTable(order=3, limit=2, counts=big, builder_tag="file")
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
