"""Constant evaluations against independent high-precision references."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import concatenated, eisenstein_phi_mpmath, exact_sum, sieve_oracle
from squaresums import _binary, _sieve, constants, singular
from squaresums.cli import W_ORDER_CAP
from squaresums._sieve import SIEVE_BLOCK, multiplicative_blocks
from squaresums.errors import DomainError, NotCoprimeError
from squaresums.expsum import gauss_sum

ZETA_3 = 1.2020569031595942854
B1_REFERENCE = 1.5639231744230924294     # 8 zeta(2) / (7 zeta(3))
C3_REFERENCE = 30.870606090503587384     # 8 pi^4 / (21 zeta(3))


def zeta(s: float) -> float:
    """Riemann zeta by mpmath at 53 bits."""
    with mpmath.workprec(53):
        return float(mpmath.zeta(s))


def mpmath53(form, *args) -> float:
    """A closed form evaluated by mpmath at 53 bits: the reference of the
    int-based double route."""
    with mpmath.workprec(53):
        return float(form(mpmath, *args))


def b1_direct_via_sums(Q: int) -> float:
    """Partial sum of B1 with every |S(q,a)| evaluated as an actual sum.

    Cross-check path for the magnitude law; O(q^2) per q, keep Q modest.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    totals = []
    for q in range(1, Q + 1):
        s = 0.0
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                s += abs(gauss_sum(q, a)) ** 6
        totals.append(s / float(q) ** 6)
    return math.fsum(totals)


def test_zeta_matches_classical_values():
    for route in (zeta, lambda s: float(_binary.BINARY53.zeta(int(s)))):
        assert route(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-14)
        assert route(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-14)
        assert route(3.0) == pytest.approx(ZETA_3, abs=1e-14)


def test_zeta_matches_mpmath_off_integers():
    # the reference is computed at 50 digits, then rounded once to a double
    for s in (1.5, 2.5, 3.25, 5.0, 7.75, 11.0):
        with mpmath.workdps(50):
            want = float(mpmath.zeta(s))
        assert zeta(s) == pytest.approx(want, rel=1e-15), s


def test_closed_form_doubles_are_mpmath_at_53_bits_bit_for_bit():
    """B1, C3, every W_N the CLI accepts, phi(3/2) at each cusp, b_plus and the
    assembly, against the same forms evaluated by mpmath at 53 bits of
    working precision."""
    assert constants.b1_closed() == mpmath53(constants._b1)
    assert constants.mean_square_constant() == mpmath53(constants._c3)
    for N in range(3, W_ORDER_CAP + 1):
        assert constants.w_constant(N) == mpmath53(constants._w, N), N
    for iota in ("1", "1/2", "1/4"):
        assert constants.eisenstein_phi(iota, 1.5) == mpmath53(constants._phi, iota, 1.5), iota
    assert constants.muller_assembly() == mpmath53(constants._assembly)
    assert constants._double(constants._b_plus) == mpmath53(constants._b_plus) == 1.0


def test_zeta53_is_correctly_rounded():
    """zeta(s) for every s that a W_N up to W_ORDER_CAP uses, against mpmath
    at 400 bits rounded once to a double."""
    for s in range(2, W_ORDER_CAP + 2):
        with mpmath.workprec(400):
            want = float(mpmath.zeta(s))
        assert float(_binary.BINARY53.zeta(s)) == want, s


# doubles m 2^e with |e| <= 400: every product, quotient and difference of two
# is zero or a normal double, where the float operation rounds once at 53 bits
_DOUBLES = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-400, 400))
# ints up to 2^1000, and odd 54-bit ints shifted: exactly halfway between two doubles
_INTS = st.one_of(
    st.integers(-(2**1000), 2**1000),
    st.builds(lambda m, k, sign: sign * (2 * m + 1) << k,
              st.integers(2**52, 2**53 - 1), st.integers(0, 900), st.sampled_from([-1, 1])),
)


def binary53(x: float):
    num, den = x.as_integer_ratio()
    return _binary.Float(num, 1 - den.bit_length(), 53)


@settings(max_examples=300)
@given(a=_DOUBLES, b=_DOUBLES)
def test_binary53_operations_round_as_floats_do(a, b):
    x, y = binary53(a), binary53(b)
    assert float(x * y) == a * b and float(x - y) == a - b
    if b:
        assert float(x / y) == a / b
    for n in (0, 1, 7, -3):  # an int operand, on either side
        assert float(x * n) == float(n * x) == a * n
        assert float(x - n) == a - n and float(n - x) == n - a
        if a:
            assert float(n / x) == n / a


@settings(max_examples=300)
@given(n=_INTS)
def test_binary53_rounds_an_int_as_float_does(n):
    assert float(_binary.BINARY53.mpf(n)) == float(n)


def test_binary53_ties_go_to_even():
    top = 2**53
    for n, want in [(top + 1, top), (top + 3, top + 4), (-(top + 1), -top), ((top + 1) << 70, 2.0**123)]:
        assert float(_binary.BINARY53.mpf(n)) == want, n
    third = _binary.BINARY53.mpf(1) / 3
    assert float(third) == 1 / 3 and float(1 - third) == 1 - 1 / 3


def _mpf(x) -> mpmath.mpf:
    """A Float as an mpmath float, exactly."""
    with mpmath.workprec(max(abs(x.m).bit_length(), 2)):
        return mpmath.mpf((x.m, x.e))


def _same(ours, theirs) -> bool:
    """Equal as numbers, compared exactly (not at the context precision)."""
    with mpmath.workprec(abs(ours.m).bit_length() + 8):
        return _mpf(ours) == theirs


# the precisions the forms run at: 53 for the doubles, up to 3375 for 1000 digits
_PRECS = st.integers(53, 3400)


@st.composite
def _floats_at(draw, prec):
    """A float of the system at prec bits: prec-bit mantissas (or shorter,
    with trailing zeros) and exponents wide of the double range."""
    m = draw(st.integers(-(2**prec) + 1, 2**prec - 1))
    return _binary.Float(m, draw(st.integers(-4000, 4000)), prec)


@settings(max_examples=200)
@given(data=st.data(), prec=_PRECS)
def test_binary_operations_are_mpmath_at_p_bits_bit_for_bit(data, prec):
    """*, /, -, **, mpf, ldexp and fsum at a random precision P, each against
    the same operation of mpmath at P bits of working precision."""
    x, y = data.draw(_floats_at(prec)), data.draw(_floats_at(prec))
    n = data.draw(st.integers(-(2**prec), 2**prec))
    f = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    k = data.draw(st.integers(-60, 60))
    num = _binary.Binary(prec)
    mx, my = _mpf(x), _mpf(y)
    with mpmath.workprec(prec):
        cases = [
            (x * y, mx * my), (x - y, mx - my), (y - x, my - mx),
            (x * n, mx * n), (n * x, n * mx), (x - n, mx - n), (n - x, n - mx),
            (x * f, mx * f), (x - f, mx - f),
            (num.mpf(n), mpmath.mpf(n)), (num.mpf(f), mpmath.mpf(f)),
            (num.ldexp(x, k), mpmath.ldexp(mx, k)),
            (num.fsum([x, y, n, f]), mpmath.fsum([mx, my, n, f])),
        ]
        if y.m:
            cases += [(x / y, mx / my), (n / y, n / my)]
        if x.m:
            short = _binary.Float(x.m >> max(abs(x.m).bit_length() - 40, 0), x.e % 64, prec)
            cases += [(short**k, _mpf(short) ** k),
                      (short ** num.mpf(-k), _mpf(short) ** mpmath.mpf(-k))]
    for i, (ours, theirs) in enumerate(cases):
        assert _same(ours, theirs), (i, prec)


@settings(max_examples=30)
@given(prec=_PRECS, s=st.integers(2, W_ORDER_CAP + 1), n=st.integers(0, 40), data=st.data())
def test_binary_primitives_are_mpmath_at_p_bits_bit_for_bit(prec, s, n, data):
    """pi, zeta(s), sqrt, Gamma at an integer and at a half-integer at a
    random precision P, each against mpmath at P bits. (mpmath's zeta may
    return P + 20 bits, from an Euler product; unary + rounds it to P.)"""
    num = _binary.Binary(prec)
    x = data.draw(_floats_at(prec).filter(lambda x: x.m > 0))
    with mpmath.workprec(prec):
        cases = [
            (num.pi, +mpmath.pi), (num.zeta(s), +mpmath.zeta(s)),
            (num.sqrt(x), mpmath.sqrt(_mpf(x))), (num.sqrt(num.pi), mpmath.sqrt(mpmath.pi)),
            (num.gamma(n + 1), mpmath.gamma(n + 1)),
            (num.gamma(n + 0.5), mpmath.gamma(mpmath.mpf(n) + 0.5)),
        ]
    for i, (ours, theirs) in enumerate(cases):
        assert _same(ours, theirs), (i, prec, s, n)


def test_binary_primitives_reject_what_they_do_not_evaluate():
    num = _binary.Binary(53)
    for x in (0, -1, 1.25, 0.0, -0.5):
        with pytest.raises(DomainError):
            num.gamma(x)
    for s in (1, 0, num.mpf(2.5)):
        with pytest.raises(DomainError):
            num.zeta(s)
    with pytest.raises(DomainError):
        num.sqrt(-2)
    assert num.zeta(54).m == 1 << 52 and num.zeta(10**6).e == -52  # 1 from s > P on


def _nstr_cases():
    """(mantissa, exponent) pairs: tiny, huge, exact ints, trailing zeros and
    runs of nines that round up into a new leading digit."""
    yield from [(1, 0), (10, 0), (5, 1), (3, -1), (1, -3400), (3, 3300), (123450000, 0), (1, 100)]
    for digits in (1, 3, 15):  # 0.99...96 and 99...96 at digits + 1 digits
        yield from [(10 ** (digits + 1) - 4, 0), ((10 ** (digits + 1) - 4) * 5**40, -40)]
    yield from [(2**70 - 1, -75), (-(2**60) - 7, -3000), (10**30, -1)]


@settings(max_examples=300)
@given(m=st.integers(-(2**3400), 2**3400), e=st.integers(-3400, 0), digits=st.integers(1, 1000))
def test_nstr_is_mpmath_nstr(m, e, digits):
    x = _binary.Float(m, e, 3400)
    assert _binary.nstr(x, digits) == mpmath.nstr(_mpf(x) if m else mpmath.mpf(0), digits)


def test_nstr_edge_cases_are_mpmath_nstr():
    for m, e in _nstr_cases():
        x = _binary.Float(m, e, 4000)
        for digits in (1, 2, 3, 5, 6, 7, 15, 16, 30, 100, 1000):
            assert _binary.nstr(x, digits) == mpmath.nstr(_mpf(x), digits), (m, e, digits)
    assert _binary.nstr(_binary.Float(0, 5, 53), 7) == mpmath.nstr(mpmath.mpf(0), 7) == "0.0"
    with pytest.raises(DomainError):
        _binary.nstr(_binary.Float(1, 3600, 53), 10)


def _extended_by_mpmath(digits: int, w_orders) -> dict[str, str]:
    """The closed forms in mpmath with 15 guard digits, printed by mpmath.nstr:
    what constants_extended printed while it ran on mpmath."""
    with mpmath.workdps(digits + 15):
        values = {"b1_closed": constants._b1(mpmath), "c3": constants._c3(mpmath),
                  "muller_b": constants._assembly(mpmath)}
        values.update((f"w_{N}", constants._w(mpmath, N)) for N in w_orders)
        return {key: mpmath.nstr(value, digits) for key, value in values.items()}


@pytest.mark.parametrize("digits", [1, 15, 20, 30, 100])
def test_constants_extended_is_mpmath_to_the_digit(digits):
    orders = range(3, W_ORDER_CAP + 1)
    assert constants.constants_extended(digits, orders) == _extended_by_mpmath(digits, orders)


@pytest.mark.slow
def test_constants_extended_at_the_digit_cap_is_mpmath():
    from squaresums.cli import DIGITS_CAP

    orders = range(3, W_ORDER_CAP + 1)
    assert constants.constants_extended(DIGITS_CAP, orders) == _extended_by_mpmath(DIGITS_CAP, orders)


def test_totient_sieve_matches_gcd_count():
    # Q just below, at and above a prime square moves the last sieving prime
    for Q in (1, 2, 3, 4, 5, 8, 9, 10, 120, 121, 122, 200, 361):
        phi = concatenated(multiplicative_blocks(Q, np.int32, constants._totient_at))
        assert phi.shape == (Q,)
        for n in range(1, Q + 1):
            want = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert phi[n - 1] == want, (Q, n)
    with pytest.raises(DomainError):
        multiplicative_blocks(0, np.int32, constants._totient_at)


def test_sieves_match_the_oracle_across_block_edges():
    """Q at the ends of the first and second blocks, +-3 each, of the default
    block and of one of 2^15 - 32: phi equals the oracle's entry for entry, as
    int32. Each word of the sieve's bitmap marks the primes among 64
    consecutive q, so the second block size ends in mid-word, and the next
    block adds its primes' marks to that word."""
    split = SIEVE_BLOCK - 32
    edges = [(Q, block) for block in (SIEVE_BLOCK, split)
             for edge in (block, 2 * block) for Q in range(edge - 3, edge + 4)]
    phi = sieve_oracle(2 * SIEVE_BLOCK + 3)[2]
    for Q, block in edges:
        totients = concatenated(multiplicative_blocks(Q, np.int32, constants._totient_at, block))
        assert totients.dtype == np.int32 and totients.tolist() == phi[1 : Q + 1], (Q, block)


def test_the_sieve_holds_its_primes_not_a_table():
    """The totient sieve at Q = 4*10^6 in 2^14 blocks, walked to its end,
    peaks under 2.5 MiB of traced memory, below the 4 MB of a table of f at
    every odd q up to Q / 2: it holds f at the primes between sqrt(Q) and
    Q / 2 (0.69 MB reserved), a bitmap of those primes with the count of its
    marks per word (0.25 MB) and one block. Measured on a 2-CPU Xeon with
    numpy 2.4: 1.71 MiB (4.53 with the table)."""
    tracemalloc.start()
    try:
        for _ in multiplicative_blocks(4 * 10**6, np.int32, constants._totient_at, 1 << 14):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak / 2**20


def _primes_to(Q: int) -> list[int]:
    sieve = np.ones(Q + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(Q) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return np.flatnonzero(sieve).tolist()


def _divisor_counts(top: int) -> list[int]:
    divisors = np.zeros(top + 1, dtype=np.int32)
    for d in range(1, top + 1):
        divisors[d::d] += 1
    return divisors.tolist()


def _moebius(top: int) -> list[int]:
    moebius = np.ones(top + 1, dtype=np.int32)
    moebius[0] = 0
    for p in _primes_to(top):
        moebius[p::p] *= -1
        moebius[p * p :: p * p] = 0
    return moebius.tolist()


def _exponent(p, pk):
    return np.array([next(k for k in range(1, 32) if a**k == b)
                     for a, b in zip(p.tolist(), pk.tolist())], dtype=np.int32)


def _divisor_count_at(p, pk):
    return _exponent(p, pk) + 1


def _moebius_at(p, pk):
    return np.where(pk == p, -1, 0)


_MULTIPLICATIVE_QS = (1, 2, 2**16 - 3, 2**16 + 3, 2**17 - 3, 2**17 + 3)


def test_multiplicative_builds_the_divisor_count_and_moebius():
    """d(p^k) = k + 1 and mu(p^k) = -1 if k = 1 else 0, against a divisor-count
    sieve and a Moebius sieve over the primes, across the block edges."""
    top = _MULTIPLICATIVE_QS[-1]
    divisors, moebius = _divisor_counts(top), _moebius(top)
    for Q in _MULTIPLICATIVE_QS:
        d = concatenated(multiplicative_blocks(Q, np.int32, _divisor_count_at))
        mu = concatenated(multiplicative_blocks(Q, np.int32, _moebius_at))
        assert d.dtype == mu.dtype == np.int32
        assert d[0] == mu[0] == 1
        assert d.tolist() == divisors[1 : Q + 1], Q
        assert mu.tolist() == moebius[1 : Q + 1], Q


# sqrt(Q) reaches 109, so the primes sieved in the indexed pass (67..109 by
# default) have squares below Q; a smaller strided split gives them cubes and
# higher powers too
_BLOCKS_TOP = 12_000


@functools.cache
def _block_references():
    return sieve_oracle(_BLOCKS_TOP)[2], _divisor_counts(_BLOCKS_TOP), _moebius(_BLOCKS_TOP)


@settings(max_examples=60)
@given(data=st.data())
def test_blocks_at_any_block_size_match_the_oracles(data):
    """For a random Q, block size and split between the strided and the
    indexed primes, the blocks of phi, d and mu are consecutive, start at
    q = 1, hold at most the block size each and equal the oracles."""
    Q = data.draw(st.integers(1, _BLOCKS_TOP), label="Q")
    block = data.draw(st.integers(max(1, Q // 40), Q + 5), label="block")
    split = data.draw(st.sampled_from([1, 2, 10, _sieve._STRIDED_TOP]), label="strided top")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_sieve, "_STRIDED_TOP", split)
        for at_prime_powers, want in zip((constants._totient_at, _divisor_count_at, _moebius_at),
                                         _block_references()):
            got, start = [0], 1
            for lo, f in multiplicative_blocks(Q, np.int32, at_prime_powers, block):
                assert lo == start and 1 <= f.size <= block and f.dtype == np.int32
                got += f.tolist()
                start += f.size
            assert got == want[: Q + 1], (Q, block, split)


def test_multiplicative_asks_for_each_prime_power_once():
    for Q in _MULTIPLICATIVE_QS:
        seen = []

        def record(p, pk):
            assert p.dtype == pk.dtype == np.int32 and p.shape == pk.shape
            seen.extend(zip(p.tolist(), pk.tolist()))
            return np.zeros(p.size, dtype=np.int32)

        concatenated(multiplicative_blocks(Q, np.int32, record))
        want = []
        for p in _primes_to(Q):
            pk = p
            while pk <= Q:
                want.append((p, pk))
                pk *= p
        assert sorted(seen) == want, Q


def test_b1_small_truncations_by_hand():
    # q = 1 and q = 3 contribute phi(q)/q^3; q = 4 contributes 8 phi(4)/4^3
    assert constants.b1_direct(4) == pytest.approx(1 + 2 / 27 + 1 / 4, abs=1e-15)
    assert constants.b1_direct(5) == pytest.approx(
        1 + 2 / 27 + 1 / 4 + 4 / 125, abs=1e-15
    )
    # odd-q route carries the (4/3) prefactor
    assert constants.b1_euler(3) == pytest.approx((4 / 3) * (1 + 2 / 27), abs=1e-15)
    assert constants.b1_euler(4) == constants.b1_euler(3)


def test_b1_routes_converge_to_closed_form():
    closed = constants.b1_closed()
    assert closed == pytest.approx(B1_REFERENCE, abs=1e-13)
    assert abs(constants.b1_direct(4096) - closed) <= 5e-4
    assert abs(constants.b1_euler(10**5) - closed) <= 1e-4


def test_b1_magnitude_law_route_matches_literal_gauss_sums():
    assert b1_direct_via_sums(64) == pytest.approx(
        constants.b1_direct(64), abs=1e-9
    )


def test_b1_partial_sums_nondecreasing():
    for weigh in (constants._magnitude_law, constants._euler_weight):
        assert (concatenated(constants._b1_blocks(600, weigh)) >= 0).all()


# Doubles across about 60 binades, signed zeros, and subnormals
_SUMMANDS = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-30, 30)),
    st.sampled_from([0.0, -0.0]),
    st.floats(-(2.0**-1022), 2.0**-1022),
)


@settings(max_examples=200)
@given(values=st.lists(_SUMMANDS, max_size=300), cancelled=st.integers(0, 300),
       cuts=st.lists(st.integers(0, 600), max_size=8), seed=st.integers(0, 2**32 - 1))
@example(values=[1.0, 2.0**-53], cancelled=0, cuts=[1], seed=0)  # a tie, to even: 1.0
@example(values=[1.0, 2.0**-53, 2.0**-106], cancelled=0, cuts=[], seed=0)  # past the tie
@example(values=[2.0**-1074, -0.0, 2.0**-1074, 2.0**-1022], cancelled=4, cuts=[0, 0, 8], seed=1)
def test_fsum_blocks_is_the_exact_sum_rounded_once(values, cancelled, cuts, seed):
    """Terms with some of their negations, in a random order, cut into blocks
    at random places (some empty): the block sum is the exact sum of the
    terms, rounded once."""
    terms = np.array(values + [-v for v in values[:cancelled]], dtype=np.float64)
    terms = np.random.default_rng(seed).permutation(terms)
    blocks = np.split(terms, sorted(min(cut, terms.size) for cut in cuts))
    assert _sieve.fsum_blocks(iter(blocks)) == exact_sum(blocks)


def test_b1_sums_are_exact_sums_of_their_terms():
    for Q in (1, 7, 4096, SIEVE_BLOCK, SIEVE_BLOCK + 1, 10**5 + 3):
        for route, weigh in ((constants.b1_direct, constants._magnitude_law),
                             (constants.b1_euler, constants._euler_weight)):
            assert route(Q) == exact_sum(constants._b1_blocks(Q, weigh)), Q
    for route in (constants.b1_direct, constants.b1_euler):
        with pytest.raises(DomainError):
            route(0)


@settings(max_examples=40)
@given(Q=st.integers(1, 4000), n=st.sampled_from([1, 5, 7, 199999, 2**64 + 7]), data=st.data())
def test_float_terms_are_the_same_at_any_block_size(Q, n, data):
    """A float f is multiplied in one order whatever the block size: the terms
    A(q, n) and the B1 terms in random blocks are the default blocks' bits,
    and each sum is the exact sum of those terms, rounded once."""
    block = data.draw(st.integers(max(1, Q // 40), Q + 5), label="block")
    at_prime_powers = singular._local_factors(n)
    terms = concatenated(multiplicative_blocks(Q, np.float64, at_prime_powers))
    blocks = list(multiplicative_blocks(Q, np.float64, at_prime_powers, block))
    assert concatenated(blocks).tobytes() == terms.tobytes(), (Q, n, block)
    assert _sieve.fsum_blocks(f for _, f in blocks) == singular.truncation(n, Q) == exact_sum([terms])
    for route, weigh in ((constants.b1_direct, constants._magnitude_law),
                         (constants.b1_euler, constants._euler_weight)):
        terms = concatenated(constants._b1_blocks(Q, weigh))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constants, "_B1_BLOCK", block)
            assert concatenated(constants._b1_blocks(Q, weigh)).tobytes() == terms.tobytes(), (Q, block)
            assert route(Q) == exact_sum([terms]), (Q, block)


def test_mean_square_constant_identities():
    c3 = constants.mean_square_constant()
    assert c3 == pytest.approx(C3_REFERENCE, abs=1e-12)
    assert abs(c3 - 2 * math.pi**2 * constants.b1_closed()) < 1e-12 * c3
    assert abs(c3 - constants.w_constant(3)) < 1e-10
    assert abs(c3 - constants.muller_assembly()) < 1e-10


def test_w_constant_values():
    assert abs(constants.w_constant(4) - 32 * zeta(3.0)) < 1e-10
    want5 = (
        1.0
        / (4 * (1 - 2.0**-5))
        * math.pi**5
        / math.gamma(2.5) ** 2
        * zeta(4.0)
        / zeta(5.0)
    )
    assert constants.w_constant(5) == pytest.approx(want5, rel=1e-13)
    for N in range(3, 12):
        direct = (
            1.0
            / ((N - 1) * (1 - 2.0**-N))
            * math.pi**N
            / math.gamma(N / 2) ** 2
            * zeta(N - 1.0)
            / zeta(float(N))
        )
        assert constants.w_constant(N) == pytest.approx(direct, rel=1e-12), N
    with pytest.raises(DomainError):
        constants.w_constant(2)


def test_eisenstein_phi_special_values():
    z2z3 = zeta(2.0) / zeta(3.0)
    assert constants.eisenstein_phi("1/4", 1.5) == pytest.approx(
        z2z3 / 14, rel=1e-13
    )
    assert constants.eisenstein_phi("1", 1.5) == pytest.approx(
        3 * z2z3 / 14, rel=1e-13
    )
    assert constants.eisenstein_phi("1/2", 1.5) == constants.eisenstein_phi("1", 1.5)
    for label in ("1/3", 0.25, [1]):
        with pytest.raises(DomainError):
            constants.eisenstein_phi(label, 1.5)
    for s in (1.0, 0.5, 1.25, 2.1, 1024.5, float("nan")):
        with pytest.raises(DomainError):
            constants.eisenstein_phi("1", s)


def test_eisenstein_phi_is_the_general_form_at_half_integers():
    """At integers and half-integers s > 1 the entry is the general-s form of
    the reference, evaluated by mpmath at 53 bits, bit for bit."""
    for s in (1.5, 2, 2.5, 3, 4.5, 7, 20.5, 100, 1024):
        for iota in ("1", "1/2", "1/4"):
            assert constants.eisenstein_phi(iota, s) == eisenstein_phi_mpmath(iota, s), (iota, s)


def test_cusp_zero_coeff_values():
    assert constants.cusp_zero_coeff(1, 4, 1) == pytest.approx(1.0, abs=1e-12)
    assert constants.cusp_zero_coeff(1, 2, 1) == pytest.approx(0.0, abs=1e-12)
    # the formula read literally at cusp 1 with width 4 gives 8, not 1;
    # the assembly uses the stated coefficient and reports both
    assert constants.cusp_zero_coeff(1, 1, 4) == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(NotCoprimeError):
        constants.cusp_zero_coeff(2, 4, 1)
    with pytest.raises(DomainError):
        constants.cusp_zero_coeff(1, 0, 1)
    with pytest.raises(DomainError):
        constants.cusp_zero_coeff(1, 4, 0)


def test_muller_assembly_value():
    got = constants.muller_assembly()
    assert got == pytest.approx(C3_REFERENCE, abs=1e-4)
    assert abs(got - constants.mean_square_constant()) < 1e-10


def test_constants_report_contents():
    report = constants.constants_report(
        b1_direct_Q=256, b1_euler_Q=1001, w_orders=(3, 4)
    )
    assert report["b1_direct_at_Q"]["Q"] == 256
    assert report["b1_euler_at_Q"]["Q"] == 1001
    assert report["b1_direct_at_Q"]["value"] == pytest.approx(constants.b1_direct(256))
    assert report["b1_euler_at_Q"]["value"] == pytest.approx(constants.b1_euler(1001))
    assert set(report["w_values"]) == {"3", "4"}
    assert report["w_values"]["3"] == pytest.approx(report["c3"], abs=1e-10)
    comps = report["assembly_components"]
    assert comps["b_plus"] == 1.0
    assert comps["a0_sq_1"] == 1.0
    assert comps["a0_sq_12"] == 0.0
    assert comps["a0_sq_14"] == 1.0
    assert comps["a0_sq_1_formula"] == pytest.approx(8.0, abs=1e-12)
    assert comps["a0_sq_14_formula"] == pytest.approx(1.0, abs=1e-12)
    assert comps["width_1"] == 4.0
    assert comps["width_12"] == comps["width_14"] == 1.0


@pytest.mark.parametrize(
    "form,message", [("_c3", "B1 disagree"), ("_assembly", "spectral-route")]
)
def test_constants_report_rejects_inconsistency(monkeypatch, form, message):
    constants.constants_report(b1_direct_Q=64, b1_euler_Q=64, w_orders=(3,))
    original = getattr(constants, form)
    monkeypatch.setattr(constants, form, lambda num: original(num) * 3 / 2)
    with pytest.raises(DomainError, match=message):
        constants.constants_report(b1_direct_Q=64, b1_euler_Q=64, w_orders=(3,))


def test_extended_precision_strings():
    out = constants.constants_extended(digits=25, w_orders=(3, 4))
    assert float(out["b1_closed"]) == pytest.approx(B1_REFERENCE, rel=1e-14)
    assert float(out["c3"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["muller_b"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["w_3"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["w_4"]) == pytest.approx(32 * ZETA_3, rel=1e-14)
    # enough digits that the double value is a strict prefix rounding
    assert len(out["c3"].replace(".", "").lstrip("0")) >= 24
    with pytest.raises(DomainError):
        constants.constants_extended(digits=0)
