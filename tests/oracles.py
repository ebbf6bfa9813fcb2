"""Test-side references for the count tables and the singular series. None of
them calls repcount or singular, so a defect in their kernels cannot hide in a
comparison with one of these."""

import itertools
import math

import numpy as np

from squaresums.errors import CountOverflowError

_I64_MAX = (1 << 63) - 1
IMAG_TOLERANCE = 1e-9


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


def rstar_counts(x: int) -> np.ndarray:
    """r*(0..x), the triples of positive integers with a^2 + b^2 + c^2 = n: a
    bincount of the positive pairs a^2 + b^2, then one shifted copy of it for
    each positive c^2."""
    squares = np.arange(1, math.isqrt(x) + 1, dtype=np.int64) ** 2
    pairs = (squares[:, None] + squares).ravel()
    two = np.bincount(pairs[pairs <= x], minlength=x + 1)
    out = np.zeros(x + 1, dtype=np.int64)
    for c2 in squares.tolist():
        out[c2:] += two[: x + 1 - c2]
    return out


def r8_jacobi_oracle(x: int) -> np.ndarray:
    """r_8(0..x) by Jacobi's r_8(n) = 16 sum over d | n of (-1)^(n + d) d^3,
    r_8(0) = 1. Each divisor d of n is added once: d <= sqrt(x) along the
    multiples of d, and a larger d along the multiples of its cofactor
    e = n / d < sqrt(x), from n = e (isqrt(x) + 1) on. The largest entry at
    x = 5 * 10^5 is about 2.4 * 10^18, inside int64."""
    s = math.isqrt(x)
    sigma = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, s + 1):
        n = np.arange(d, x + 1, d, dtype=np.int64)
        sigma[d::d] += np.where((n + d) & 1, -(d**3), d**3)
    for e in range(1, s + 1):
        n = np.arange(e * (s + 1), x + 1, e, dtype=np.int64)
        d = n // e
        sigma[n] += np.where((n + d) & 1, -1, 1) * d**3
    out = 16 * sigma
    out[0] = 1
    return out


def is_representable(n: int) -> bool:
    """Three-square criterion: false exactly for n = 4^a (8k + 7)."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7


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
            if top and w > _I64_MAX // top:
                raise CountOverflowError(
                    f"count product {w}*{top} exceeds 64-bit range"
                )
        out[start:hi] += w * seg
        if guarded and seg.size and int(out[start:hi].min()) < 0:
            raise CountOverflowError("count accumulator exceeds 64-bit range")


def add_squares_oracle(src, x):
    """The square-shift kernel untiled over the square offsets with weights
    (1, 2, 2, ...), every add checked: src convolved with r_1 up to x."""
    squares = [m * m for m in range(math.isqrt(x) + 1)]
    weights = [1] + [2] * (len(squares) - 1)
    out = np.zeros(x + 1, dtype=np.int64)
    _accumulate_shifts(out, squares, weights, src, 0, x + 1, guarded=True)
    return out


def r3_class_number_oracle(x: int) -> np.ndarray:
    """r_3(n) for 0 <= n <= x by Gauss's r_3(n) = 12 H(4n) - 24 H(n).

    12 H(N), for the Hurwitz class number H, counts 12 per reduced form (a, b, c)
    of discriminant -N = b^2 - 4ac: |b| <= a <= c, with b >= 0 when |b| = a or
    a = c. A form at c = a weighs 6 if b = 0 (a(x^2 + y^2)) and 4 if b = a
    (a(x^2 + xy + y^2)); 12 H(0) = -1. Each (a, b) is one strided add along
    N = 4ac - b^2, step 4a in c. (Cohen, GTM 138, ch. 5.)
    """
    top = 4 * x
    h12 = np.zeros(top + 1, dtype=np.int64)
    h12[0] = -1
    a = 1
    while 3 * a * a <= top:
        for b in range(a + 1):
            at_c_eq_a = 4 * a * a - b * b
            if at_c_eq_a > top:
                continue
            h12[at_c_eq_a] += 6 if b == 0 else 4 if b == a else 12
            h12[at_c_eq_a + 4 * a :: 4 * a] += 12 if b in (0, a) else 24  # c > a; +-b
        a += 1
    return h12[::4] - 2 * h12[: x + 1]


def sieve_oracle(Q: int) -> tuple[list[int], list[int], list[int]]:
    """(spf, rest, phi) for q = 0..Q in Python ints, index 0 all zero: the
    smallest prime factor by Eratosthenes over ascending primes, rest[q] as q
    with every factor spf[q] divided out, and phi(q) = q prod_{p | q} (1 - 1/p)
    over the full factorisation of q."""
    spf = [0, 1] + [0] * (Q - 1)
    for d in range(2, Q + 1):
        if spf[d] == 0:
            for m in range(d, Q + 1, d):
                if spf[m] == 0:
                    spf[m] = d
    rest, phi = [0] * (Q + 1), [0] * (Q + 1)
    for q in range(1, Q + 1):
        r = q
        while r > 1 and r % spf[q] == 0:
            r //= spf[q]
        rest[q] = r
        f, m = q, q
        while m > 1:
            p = spf[m]
            f -= f // p
            while m % p == 0:
                m //= p
        phi[q] = f
    return spf, rest, phi


def a_profile(q: int) -> np.ndarray:
    """A(q, r) for every residue r = 0..q-1, from its defining sums.

    g[r] counts solutions of h^2 = r (mod q), so S(q, a) for all a is the
    conjugated DFT of g, and the profile is the forward DFT of the coprime-
    masked S^3/q^3. Both steps are the defining sums, just evaluated for all
    indices at once. An imaginary residue above IMAG_TOLERANCE fails.
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
    return real
