"""Singular series terms and the singular integral against literal sums."""

import cmath
import functools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import IMAG_TOLERANCE, a_profile, concatenated, sieve_oracle
from squaresums import repcount, singular
from squaresums.errors import DomainError
from squaresums.expsum import gauss_sum

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "frozen_constants.json").read_text()
)

def brute_a_term(q: int, n: int) -> complex:
    """A(q, n) straight from its definition, all in cmath."""
    total = 0.0 + 0.0j
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        s = sum(cmath.exp(2j * cmath.pi * a * h * h / q) for h in range(1, q + 1))
        total += s**3 / q**3 * cmath.exp(-2j * cmath.pi * a * n / q)
    return total


def a_term_direct(q: int, n: int) -> float:
    """Literal definition of A(q, n), one Gauss sum per coprime a.

    Slow cross-check path for the local-factor evaluation.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    roots = np.exp((-2j * np.pi / q) * np.arange(q))
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        total += gauss_sum(q, a) ** 3 * roots[(a * n) % q]
    total /= float(q) ** 3
    if abs(total.imag) > IMAG_TOLERANCE:
        raise AssertionError(
            f"A({q}, {n}) imaginary residue {abs(total.imag):.3e} "
            f"exceeds {IMAG_TOLERANCE}"
        )
    return total.real


def odd_prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """(p, k, p^k) for every odd prime power p^k <= limit."""
    out = []
    for p in range(3, limit + 1, 2):
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            power, k = p, 1
            while power <= limit:
                out.append((p, k, power))
                power, k = power * p, k + 1
    return out


def i_exact(n: int, x: int) -> float:
    """The singular integral I(n) at one n, by one pair convolution: the
    pointwise oracle for singular.i_exact_range."""
    m_hi = min(x, n - 2)
    if m_hi < 1:
        return 0.0
    w = 1.0 / np.sqrt(np.arange(1, m_hi + 1, dtype=np.float64))
    pair = np.convolve(w, w)  # pair[j] = sum over m2 + m3 = j + 2
    m1 = np.arange(1, m_hi + 1)
    s = n - m1
    ok = (s >= 2) & (s <= 2 * m_hi)
    return float(np.sum(w[ok] * pair[s[ok] - 2])) / 8.0


def brute_i_exact(n: int, x: int) -> float:
    total = 0.0
    for m1 in range(1, x + 1):
        for m2 in range(1, x + 1):
            m3 = n - m1 - m2
            if 1 <= m3 <= x:
                total += 1.0 / math.sqrt(m1 * m2 * m3)
    return total / 8.0


def test_a_term_known_values():
    for n in (1, 2, 17):
        terms = concatenated(singular.series_blocks(n, 2))
        assert terms[0] == 1.0
        assert terms[1] == pytest.approx(0.0, abs=1e-12)
    terms = concatenated(singular.series_blocks(1, 4))
    assert terms[2] == pytest.approx(-1 / 3, abs=1e-12)
    assert terms[3] == pytest.approx(0.5, abs=1e-12)


def test_a_term_matches_literal_definition():
    for n in (1, 2, 3, 7, 30):
        terms = concatenated(singular.series_blocks(n, 50))
        for q in list(range(1, 31)) + [37, 48, 50]:
            lit = brute_a_term(q, n)
            assert abs(lit.imag) < 1e-9, (q, n)
            assert terms[q - 1] == pytest.approx(lit.real, abs=1e-9), (q, n)
            assert a_term_direct(q, n) == pytest.approx(
                lit.real, abs=1e-9
            ), (q, n)


def test_a_term_fast_path_matches_direct_path():
    for n in (1, 5, 49, 99):
        terms = concatenated(singular.series_blocks(n, 625))
        for q in (1, 2, 3, 8, 121, 360, 625):
            assert terms[q - 1] == pytest.approx(
                a_term_direct(q, n), abs=1e-11
            ), (q, n)


def test_odd_local_factors_match_transform():
    worst = 0.0
    for p, k, q in odd_prime_powers(4096):
        profile = a_profile(q)
        n = np.arange(1, 3 * q + 1)
        closed = np.array([singular._local_factor(p, k, int(m)) for m in n])
        worst = max(worst, float(np.abs(closed - profile[n % q]).max()))
    assert worst <= 1e-12, worst


def test_two_adic_local_factors_are_the_rounded_transform():
    """A(2^k, n) is the transform rounded to its dyadic grid 2^-floor(k/2), bit
    for bit: at every residue for k <= 16, at the multiples of 2^(k-3) (where
    it can be nonzero) for 17 <= k <= 20."""
    for k in range(1, 21):
        profile = a_profile(2**k)
        scale = 2.0 ** (k // 2)
        residues = range(2**k) if k <= 16 else range(0, 2**k, 2 ** (k - 3))
        for r in residues:
            want = round(profile[r] * scale) / scale
            n = r or 2**k  # A(q, n) is periodic in n mod q, and n >= 1
            assert singular._local_factor(2, k, n) == want, (k, r)
    assert concatenated(singular.series_blocks(7, 8))[7] == -0.5


def test_assembled_terms_match_full_length_transform():
    ns = range(1, 51)
    terms = {n: concatenated(singular.series_blocks(n, 2000)) for n in ns}
    worst = 0.0
    for q in range(1, 2001):
        profile = a_profile(q)
        for n in ns:
            worst = max(worst, abs(terms[n][q - 1] - profile[n % q]))
    assert worst <= 1e-12, worst


@settings(max_examples=200)
@given(q=st.integers(1, 4096), n=st.integers(1, 10**12))
def test_a_term_matches_transform_property(q, n):
    profile = a_profile(q)
    assert abs(concatenated(singular.series_blocks(n, q))[q - 1] - profile[n % q]) <= 1e-12


def test_a_term_periodic_in_n():
    for q in (3, 4, 7, 9):
        for n in (1, 2, 5):
            terms, shifted = (concatenated(singular.series_blocks(m, q)) for m in (n, n + q))
            assert terms[q - 1] == shifted[q - 1], (q, n)


def test_a_term_multiplicative():
    pairs = [(3, 4), (3, 5), (4, 9), (5, 8), (7, 16), (9, 20)]
    for n in range(1, 21):
        terms = concatenated(singular.series_blocks(n, 180))
        for q1, q2 in pairs:
            assert math.gcd(q1, q2) == 1
            got = terms[q1 * q2 - 1]
            want = terms[q1 - 1] * terms[q2 - 1]
            assert got == pytest.approx(want, abs=1e-9), (q1, q2, n)


def test_a_term_decay_under_frozen_ceiling():
    cfg = FROZEN["singular_term_decay"]
    root_q = np.sqrt(np.arange(1, cfg["q_max"] + 1))
    sup = max(
        float(np.max(np.abs(concatenated(singular.series_blocks(n, cfg["q_max"]))) * root_q))
        for n in range(1, cfg["n_max"] + 1)
    )
    assert sup <= cfg["ceiling"], sup
    assert sup <= cfg["a_priori_bound"] + 1e-9, sup


def test_truncation_known_value():
    terms = concatenated(singular.series_blocks(1, 4))
    assert terms[0] == 1.0
    assert singular.truncation(1, 4) == pytest.approx(7 / 6, abs=1e-12)
    assert list(terms) == pytest.approx([1.0, 0.0, -1 / 3, 0.5], abs=1e-12)


def test_truncation_terms_match_a_term():
    for i, t in enumerate(concatenated(singular.series_blocks(5, 60))):
        assert t == a_term(i + 1, 5), i + 1


# Q past four of the sieve's 2^15-entry blocks, which start at q = 1; the n
# cover a multiple of 65537 (a prime above sqrt(Q) that opens the third block)
# and two n = 7 mod 8, one of them beyond int64
_EDGE_Q = 2**17 + 3
_EDGE_NS = (5, 3 * 65537, 10**8 - 1, 2**64 + 7)


@functools.cache
def _edge_terms(n: int) -> np.ndarray:
    return concatenated(singular.series_blocks(n, _EDGE_Q))


@functools.cache
def _spf() -> list[int]:
    return sieve_oracle(_EDGE_Q)[0]


@functools.cache
def _large_primes() -> list[int]:
    spf = _spf()
    return [q for q in range(math.isqrt(_EDGE_Q) + 1, _EDGE_Q + 1) if spf[q] == q]


def a_term(q: int, n: int) -> float:
    """A(q, n) for q <= _EDGE_Q as the product of singular._local_factor over
    the prime powers p^k exactly dividing q, factored by the smallest prime
    factors of sieve_oracle. The product runs from the largest prime down,
    the order in which series_blocks assembles its terms, so both give the
    same float."""
    spf, powers = _spf(), []
    while q > 1:
        p, k = spf[q], 0
        while q % p == 0:
            q //= p
            k += 1
        powers.append((p, k))
    term = 1.0
    for p, k in reversed(powers):
        term = singular._local_factor(p, k, n) * term
    return term


def test_truncation_terms_match_a_term_across_block_edges():
    edges = {2**j for j in range(18)} | {3 * 2**15, _EDGE_Q}
    qs = sorted({q for e in edges for q in range(e - 3, e + 4) if 1 <= q <= _EDGE_Q})
    for n in _EDGE_NS:
        terms = _edge_terms(n)
        for q in qs:
            assert float(terms[q - 1]).hex() == a_term(q, n).hex(), (n, q)


def test_truncation_is_np_sum_of_the_terms_it_hands_on():
    """S3(n, Q) is np.sum of the Q terms, bit for bit, and write(lo, terms)
    sees each block of series_blocks once, in order: at Q inside, at and past
    the sieve's block edges."""
    for Q in (1, 2**15 - 1, 2**15, 2**15 + 1, _EDGE_Q):
        for n in _EDGE_NS:
            seen = []
            value = singular.truncation(n, Q, lambda lo, terms: seen.append((lo, terms.copy())))
            want = _edge_terms(n)[:Q]
            assert value == float(np.sum(want)), (n, Q)
            assert [lo for lo, _ in seen] == list(range(1, Q + 1, 2**15)), (n, Q)
            assert concatenated(seen).tobytes() == want.tobytes(), (n, Q)
    with pytest.raises(DomainError):
        singular.truncation(1, 0)


def test_truncation_terms_match_a_term_around_a_prime_square():
    """Q = 97^2 - 1, 97^2 and 97^2 + 1, where sqrt(Q) reaches the prime 97:
    every term, bit for bit."""
    for n in _EDGE_NS:
        want = [a_term(q, n).hex() for q in range(1, 97**2 + 2)]
        for Q in (97**2 - 1, 97**2, 97**2 + 1):
            terms = concatenated(singular.series_blocks(n, Q))
            assert [float(t).hex() for t in terms] == want[:Q], (n, Q)


@settings(max_examples=150)
@given(n=st.sampled_from(_EDGE_NS), data=st.data())
def test_truncation_terms_match_a_term_at_large_primes(n, data):
    """A prime p > sqrt(Q), whose factor comes from the vectorised Euler
    criterion, and a multiple m p <= Q."""
    p = data.draw(st.sampled_from(_large_primes()))
    m = data.draw(st.integers(1, _EDGE_Q // p))
    terms = _edge_terms(n)
    for q in (p, m * p):
        assert float(terms[q - 1]).hex() == a_term(q, n).hex(), (n, q)


def test_euler_symbols_are_exact_below_2_to_the_31():
    primes = np.array([3, 5, 65537, 1000003, 2147483629, 2147483647], dtype=np.int64)
    for n in (1, 5, 7, 3 * 65537, 10**8 - 1, 2**31 - 1, 2**62 + 3, 2**64 + 7, 3**80):
        want = [singular._legendre(-n, p) for p in primes.tolist()]
        assert singular._euler_symbols(n, primes).tolist() == want, n


def test_bateman_factor_and_first_truncation():
    for n in (1, 2, 10):
        assert singular.bateman_factor(n) == pytest.approx(
            2 * math.pi * math.sqrt(n), abs=1e-12
        )
        assert singular.bateman_factor(n) * singular.truncation(n, 1) == pytest.approx(
            2 * math.pi * math.sqrt(n), abs=1e-12
        )


def test_bateman_converges_to_exact_counts():
    cfg = FROZEN["bateman_convergence"]
    for n in (1, 2, 3):
        r3 = repcount.r3_point(n)
        rel = abs(singular.bateman_factor(n) * singular.truncation(n, 2000) - r3) / r3
        assert rel < cfg["rel_tolerance"], (n, rel)


def test_i_exact_known_values():
    assert i_exact(3, 10) == pytest.approx(1 / 8, abs=1e-15)
    assert i_exact(4, 10) == pytest.approx(3 / (8 * math.sqrt(2)), abs=1e-12)
    assert i_exact(2, 10) == 0.0
    assert i_exact(0, 5) == 0.0
    # budget x caps the summands: n = 3x needs all three at the cap
    assert i_exact(30, 10) == pytest.approx(1 / (8 * 10**1.5), abs=1e-15)
    assert i_exact(31, 10) == 0.0


def test_i_exact_matches_brute_force():
    for n in (3, 7, 20, 45, 60):
        for x in (5, 20, 60):
            assert i_exact(n, x) == pytest.approx(
                brute_i_exact(n, x), rel=1e-12
            ), (n, x)


def test_i_exact_range_matches_pointwise():
    arr = singular.i_exact_range(80, 40)
    assert arr.shape == (81,)
    for n in range(81):
        assert arr[n] == pytest.approx(i_exact(n, 40), rel=1e-12, abs=1e-15)


def test_i_exact_tracks_sqrt_growth():
    cfg = FROZEN["singular_integral_deviation"]
    x = 300
    arr = singular.i_exact_range(x, x)
    n = np.arange(x + 1)
    dev = np.abs(arr - (math.pi / 4) * np.sqrt(n))
    assert float(dev[100:].max()) <= cfg["ceiling"]


def test_domain_errors():
    with pytest.raises(DomainError):
        singular.series_blocks(1, 0)
    with pytest.raises(DomainError):
        singular.series_blocks(0, 5)
    with pytest.raises(DomainError):
        singular.bateman_factor(0)
    with pytest.raises(DomainError):
        singular.i_exact_range(5, 0)
    with pytest.raises(DomainError):
        singular.i_exact_range(-1, 5)

