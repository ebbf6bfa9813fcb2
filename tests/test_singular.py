"""Singular series terms and the singular integral against literal sums."""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squaresums import repcount, singular
from squaresums.errors import DomainError
from squaresums.expsum import gauss_sum

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "frozen_constants.json").read_text()
)

IMAG_TOLERANCE = 1e-9


def _a_profile(q: int) -> tuple[np.ndarray, float]:
    """A(q, r) for every residue r = 0..q-1, plus the imaginary residue.

    g[r] counts solutions of h^2 = r (mod q), so S(q, a) for all a is the
    conjugated DFT of g, and the profile is the forward DFT of the coprime-
    masked S^3/q^3. Both steps are the defining sums, just evaluated for all
    indices at once.
    """
    h = np.arange(1, q + 1, dtype=np.int64)
    h *= h
    h %= q
    s = np.fft.fft(np.bincount(h, minlength=q).astype(np.float64))
    del h
    np.conj(s, out=s)
    s **= 3
    s[np.gcd(np.arange(q), q) != 1] = 0.0
    s /= float(q) ** 3
    profile = np.fft.fft(s)
    del s
    resid = float(np.abs(profile.imag).max())
    if resid > IMAG_TOLERANCE:
        raise AssertionError(
            f"A({q}, .) imaginary residue {resid:.3e} exceeds {IMAG_TOLERANCE}"
        )
    real = np.ascontiguousarray(profile.real)
    real.setflags(write=False)
    return real, resid


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
        assert singular.a_term(1, n) == 1.0
        assert singular.a_term(2, n) == pytest.approx(0.0, abs=1e-12)
    assert singular.a_term(3, 1) == pytest.approx(-1 / 3, abs=1e-12)
    assert singular.a_term(4, 1) == pytest.approx(0.5, abs=1e-12)


def test_a_term_matches_literal_definition():
    for q in list(range(1, 31)) + [37, 48, 50]:
        for n in (1, 2, 3, 7, 30):
            lit = brute_a_term(q, n)
            assert abs(lit.imag) < 1e-9, (q, n)
            assert singular.a_term(q, n) == pytest.approx(lit.real, abs=1e-9), (q, n)
            assert a_term_direct(q, n) == pytest.approx(
                lit.real, abs=1e-9
            ), (q, n)


def test_a_term_fast_path_matches_direct_path():
    for q in (1, 2, 3, 8, 121, 360, 625):
        for n in (1, 5, 49, 99):
            assert singular.a_term(q, n) == pytest.approx(
                a_term_direct(q, n), abs=1e-11
            ), (q, n)


def test_odd_local_factors_match_transform():
    worst = 0.0
    for p, k, q in odd_prime_powers(4096):
        profile, _ = _a_profile(q)
        n = np.arange(1, 3 * q + 1)
        closed = np.array([singular._local_factor(p, k, int(m)) for m in n])
        worst = max(worst, float(np.abs(closed - profile[n % q]).max()))
    assert worst <= 1e-12, worst


def test_two_adic_local_factors_are_the_rounded_transform():
    """A(2^k, n) is the transform rounded to its dyadic grid 2^-floor(k/2), bit
    for bit: at every residue for k <= 16, at the multiples of 2^(k-3) (where
    it can be nonzero) for 17 <= k <= 20."""
    for k in range(1, 21):
        profile, _ = _a_profile(2**k)
        scale = 2.0 ** (k // 2)
        residues = range(2**k) if k <= 16 else range(0, 2**k, 2 ** (k - 3))
        for r in residues:
            want = round(profile[r] * scale) / scale
            n = r or 2**k  # A(q, n) is periodic in n mod q, and n >= 1
            assert singular._local_factor(2, k, n) == want, (k, r)
    assert singular.a_term(8, 7) == -0.5


def test_assembled_terms_match_full_length_transform():
    ns = range(1, 51)
    truncs = {n: singular.singular_series(n, 2000) for n in ns}
    worst = 0.0
    for q in range(1, 2001):
        profile, _ = _a_profile(q)
        for n in ns:
            worst = max(worst, abs(truncs[n].terms[q - 1] - profile[n % q]))
    assert worst <= 1e-12, worst


@settings(max_examples=200)
@given(q=st.integers(1, 4096), n=st.integers(1, 10**12))
def test_a_term_matches_transform_property(q, n):
    profile, _ = _a_profile(q)
    assert abs(singular.a_term(q, n) - profile[n % q]) <= 1e-12


def test_a_term_periodic_in_n():
    for q in (3, 4, 7, 9):
        for n in (1, 2, 5):
            assert singular.a_term(q, n) == singular.a_term(q, n + q)


def test_a_term_multiplicative():
    pairs = [(3, 4), (3, 5), (4, 9), (5, 8), (7, 16), (9, 20)]
    for q1, q2 in pairs:
        assert math.gcd(q1, q2) == 1
        for n in range(1, 21):
            got = singular.a_term(q1 * q2, n)
            want = singular.a_term(q1, n) * singular.a_term(q2, n)
            assert got == pytest.approx(want, abs=1e-9), (q1, q2, n)


def test_a_term_decay_under_frozen_ceiling():
    cfg = FROZEN["singular_term_decay"]
    sup = 0.0
    for q in range(1, cfg["q_max"] + 1):
        worst_n = max(
            abs(singular.a_term(q, n)) for n in range(1, cfg["n_max"] + 1)
        )
        sup = max(sup, worst_n * math.sqrt(q))
    assert sup <= cfg["ceiling"], sup
    assert sup <= cfg["a_priori_bound"] + 1e-9, sup


def test_truncation_known_value():
    trunc = singular.singular_series(1, 4)
    assert trunc.n == 1 and trunc.Q == 4
    assert trunc.terms[0] == 1.0
    assert trunc.value == pytest.approx(7 / 6, abs=1e-12)
    assert list(trunc.terms) == pytest.approx([1.0, 0.0, -1 / 3, 0.5], abs=1e-12)


def test_truncation_terms_match_a_term():
    trunc = singular.singular_series(5, 60)
    for i, t in enumerate(trunc.terms):
        assert t == singular.a_term(i + 1, 5), i + 1


def test_bateman_factor_and_first_truncation():
    for n in (1, 2, 10):
        assert singular.bateman_factor(n) == pytest.approx(
            2 * math.pi * math.sqrt(n), abs=1e-12
        )
        assert singular.bateman_r3(n, 1) == pytest.approx(
            2 * math.pi * math.sqrt(n), abs=1e-12
        )


def test_bateman_converges_to_exact_counts():
    cfg = FROZEN["bateman_convergence"]
    for n in (1, 2, 3):
        r3 = repcount.r3_point(n)
        rel = abs(singular.bateman_r3(n, 2000) - r3) / r3
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
        singular.a_term(0, 1)
    with pytest.raises(DomainError):
        singular.a_term(5, 0)
    with pytest.raises(DomainError):
        singular.singular_series(1, 0)
    with pytest.raises(DomainError):
        singular.singular_series(0, 5)
    with pytest.raises(DomainError):
        singular.bateman_factor(0)
    with pytest.raises(DomainError):
        singular.i_exact_range(5, 0)
    with pytest.raises(DomainError):
        singular.i_exact_range(-1, 5)


def test_truncation_freezes_a_view_of_the_callers_terms():
    a = np.array([1.0, 0.5])
    t = singular.SingularTruncation(n=1, Q=2, value=1.5, terms=a)
    a[1] = 0.25  # the caller's array stays writable, and the truncation shares it
    assert t.terms.tolist() == [1.0, 0.25]
    with pytest.raises(ValueError):
        t.terms[1] = 0.0
