"""Singular-series machinery for sums of three squares.

The q-th term is A(q, n) = sum over a coprime to q of q^{-3} S(q,a)^3 e(-an/q);
its partial sums S3(n, Q) = sum_{q<=Q} A(q, n) converge (slowly) to a limit
with 2 pi sqrt(n) S3(n) = r_3(n). The archimedean counterpart is the singular
integral I(n), computed here exactly by coefficient extraction.

A(q, n) is multiplicative in q, so series_blocks evaluates it as the
product of the local factors A(p^k, n) over the prime powers p^k exactly
dividing q (Vaughan, The Hardy-Littlewood Method, 2nd ed., ch. 4). Every local
factor has a closed form (_local_factor): for odd p in the Legendre symbol and
the Ramanujan sum, for p = 2 an exact dyadic value, a sign read off
8n / 2^k mod 8 times 2^{-floor(k/2)}. series_blocks yields the Q terms a
block of q at a time from a segmented sieve, which multiplies each q's
prime-power factors together from the largest prime down; truncation adds
them along np.sum's pairwise tree as they come, and hands each block on, so
neither it nor the truncation sweep holds more than one block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from ._sieve import multiplicative_blocks, pairwise_sum

def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


# A(2^k, n) 2^floor(k/2) at 8n / 2^k mod 8: the row for even k, then for odd k
_TWO_ADIC_SIGNS = ((-1, 0, 1, 0, 1, 0, -1, 0), (0, 0, 0, 1, 0, 0, 0, -1))


def _local_factor(p: int, k: int, n: int) -> float:
    """A(p^k, n) for a prime p, in closed form.

    For odd p, with below = p^{k-1}, A(p^k, n) vanishes unless below | n. Then
    for odd k it is (-m/p) p^{-(k+1)/2} with m = n / below, and for even k it is
    the Ramanujan sum c_{p^k}(n) p^{-3k/2}: p^k - below if p^k | n, else -below.
    For p = 2 and odd a, S(2^k, a)^3 depends only on a mod 8, so the sum over a
    splits into four classes, each times a geometric sum over the 2^{k-3} lifts
    that vanishes unless 2^{k-3} | n; what is left is a sign, indexed by
    8n / 2^k mod 8 in _TWO_ADIC_SIGNS, times 2^{-floor(k/2)}. Each value is one
    correctly rounded quotient of exact integers.
    """
    if p == 2:
        if 8 * n % 2**k:
            return 0.0
        return _TWO_ADIC_SIGNS[k % 2][(8 * n >> k) % 8] / 2 ** (k // 2)
    below = p ** (k - 1)
    if n % below:
        return 0.0
    if k % 2:
        return _legendre(-(n // below), p) / p ** ((k + 1) // 2)
    if n % (below * p):
        return -below / p ** (3 * k // 2)
    return (below * p - below) / p ** (3 * k // 2)


def _euler_symbols(n: int, primes: np.ndarray) -> np.ndarray:
    """(-n/p) for each odd prime p of an int64 array, by Euler's criterion:
    (-n)^((p-1)/2) mod p by square-and-multiply, exact in int64 as p < 2^31.
    n of any size is reduced mod p 31 bits at a time, from the top."""
    base = np.zeros_like(primes)
    for shift in range(n.bit_length() // 31 * 31, -1, -31):
        base = (base << 31 | (n >> shift) & 0x7FFFFFFF) % primes
    base = -base % primes
    power = primes >> 1  # (p - 1) / 2
    t = np.ones_like(primes)
    while True:
        t = np.where(power & 1, t * base % primes, t)
        power >>= 1
        if not power.any():
            break
        base = base * base % primes
    return np.where(t == primes - 1, -1, t)


def _local_factors(n: int):
    """at_prime_powers of the sieve for A(., n): A(p, n) = (-n/p)/p for every
    odd prime from a vectorised Euler criterion, then _local_factor for p = 2
    and for the few higher powers (556 entries below 10^7)."""

    def at_prime_powers(p, pk):
        p = p.astype(np.int64)
        local = _euler_symbols(n, p) / p
        for i in np.flatnonzero((p == 2) | (pk != p)).tolist():
            prime, power, k = int(p[i]), int(pk[i]), 1
            while prime**k < power:
                k += 1
            local[i] = _local_factor(prime, k, n)
        return local

    return at_prime_powers


def series_blocks(n: int, Q: int):
    """The terms A(q, n), q = 1..Q, as (lo, terms) over the blocks of the
    sieve: terms[i] = A(lo + i, n), one block held at a time."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return multiplicative_blocks(Q, np.float64, _local_factors(n))


def truncation(n: int, Q: int, write=None) -> float:
    """S3(n, Q): np.sum of the terms of series_blocks(n, Q), bit for bit,
    holding one block at a time. write(lo, terms), if given, is called on
    each block as the pairwise sum takes it."""
    blocks = series_blocks(n, Q)

    def taken():
        for lo, terms in blocks:
            if write:
                write(lo, terms)
            yield terms

    return pairwise_sum(taken(), Q)


def bateman_factor(n: int) -> float:
    """The constant 2 pi sqrt(n) multiplying S3(n) in the exact count formula.

    The factor follows from the method that defines S3: the positive-triple
    count satisfies r*(n) ~ S3(n) I(n) with I(n) ~ (pi/4) sqrt(n), and signed
    counts are eight positive counts up to lower order, so 8 * pi/4 = 2 pi.
    Truncations of 2 pi sqrt(n) S3(n, Q) converge to r_3(n), which the test
    suite checks against exact counts.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return 2.0 * math.pi * math.sqrt(n)


def i_exact_range(n_max: int, x: int) -> np.ndarray:
    """Singular integral I(n), evaluated exactly for all 0 <= n <= n_max in one
    triple convolution.

    v(beta) is a finite trigonometric sum, so the integral of v^3 e(-beta n)
    is plain coefficient extraction:
    I(n) = (1/8) sum_{m1+m2+m3=n, 1<=mi<=x} (m1 m2 m3)^{-1/2}.
    Parts larger than n - 2 cannot occur in a triple summing to n, so one
    cap min(x, n_max - 2) serves every n.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    out = np.zeros(n_max + 1, dtype=np.float64)
    m_hi = min(x, n_max - 2)
    if m_hi < 1:
        return out
    w = 1.0 / np.sqrt(np.arange(1, m_hi + 1, dtype=np.float64))
    triple = np.convolve(np.convolve(w, w), w)  # triple[j] = sum over m1+m2+m3 = j + 3
    hi = min(n_max, 3 * m_hi)
    out[3 : hi + 1] = triple[: hi - 2] / 8.0
    return out
