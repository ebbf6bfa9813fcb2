"""Exponential sums over squares: the complete quadratic Gauss sum S(q,a),
its closed-form magnitude, the Weyl sum f(alpha) = sum_{m<=N} e(alpha m^2),
the weighted sum v(beta) = (1/2) sum_{m<=x} m^{-1/2} e(beta m), and the
rational-point approximant f*(alpha) = S(q,a)/q * v(alpha - a/q), where
e(z) = exp(2 pi i z).

Rational phases like a h^2 / q, and the dyadic-rational phases that a float
alpha or beta produces (alpha m^2 in f, beta B i and beta j in the blocks of
v below), are reduced mod 1 in exact integer arithmetic before any complex
exponential is taken, so accuracy does not degrade as the raw phase grows.

v is evaluated in blocks: with m = B i + j and B = isqrt(x) + 1,
v(beta) = (1/2) sum_i e(beta B i) sum_j w_{B i + j} e(beta j), w_m = m^{-1/2}.
On each full row i >= 1 the weight is a smooth function of j, so it is
replaced by its Chebyshev interpolant in u = 2j/B - 1, and every row sum over
j becomes a combination of the same K = 24 moments sum_j T_k(u_j) e(beta j).
A call takes about 2 sqrt(x) exponentials and about 4 K sqrt(x)
multiply-adds. The cached tables hold about 2 K sqrt(x) floats, 0.38 MiB at
x = 10^6 and 3.8 MiB at 10^8, where a matrix of the weights themselves takes
8 x bytes. A cold call allocates at most 1.1 MiB at 10^6 and 5.8 MiB at 10^8
(tracemalloc). Every dot product is cut to at most 8192 terms, under the
10^4 at which OpenBLAS would hand it to worker threads, so a call runs on
the caller's thread alone at any x.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotCoprimeError

# Python-int phases are formed this many at a time, so the fallback for large
# denominators holds no more than a fixed number of int objects at once.
_OBJECT_CHUNK = 1 << 16
# Chebyshev terms per row kernel of v_sum; see its docstring for the error
_CHEB_TERMS = 24
# longest dot product v_sum takes: OpenBLAS threads one above 10^4 terms
_DOT_CHUNK = 1 << 13
# rows of row kernel coefficients computed at a time
_COEFF_ROWS = 1 << 10


@lru_cache(maxsize=8)
def _gauss_tables(q: int):
    h = np.arange(1, q + 1, dtype=np.int64)
    h2 = (h * h) % q
    roots = np.exp((2j * np.pi / q) * np.arange(q))
    h2.setflags(write=False)
    roots.setflags(write=False)
    return h2, roots


def gauss_sum(q: int, a: int) -> complex:
    """S(q, a) = sum_{h=1..q} e(a h^2 / q); a need not be coprime to q."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    h2, roots = _gauss_tables(q)
    idx = (a % q) * h2 % q
    return complex(roots[idx].sum())


def gauss_magnitude_closed(q: int) -> float:
    """|S(q, a)| for any a coprime to q: sqrt(q), sqrt(2q), or 0 by q mod 4."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if q % 2 == 1:
        return math.sqrt(q)
    if q % 4 == 0:
        return math.sqrt(2 * q)
    return 0.0


def _dyadic_fracs(num: int, den: int, k: np.ndarray) -> np.ndarray:
    """(num * k mod den) / den, correctly rounded, for den a power of two and
    k a 1-d uint64 array of exact non-negative integers.

    For den <= 2^64 the product is formed as wrapping uint64 arithmetic, which
    is exact mod 2^64 and hence mod den; otherwise in Python ints.
    """
    num %= den
    if den <= 1 << 64:
        p = k * np.uint64(num)
        p &= np.uint64(den - 1)
        fracs = p.astype(np.float64)
        fracs *= 1.0 / den  # a power of two: exact, and p / den is never subnormal
        return fracs
    fracs = np.empty(k.shape, dtype=np.float64)
    for lo in range(0, k.size, _OBJECT_CHUNK):
        part = k[lo : lo + _OBJECT_CHUNK].astype(object)
        fracs[lo : lo + _OBJECT_CHUNK] = num * part % den / den
    return fracs


def weyl_sum(alpha: float, N: int) -> complex:
    """f(alpha) = sum_{m=1..N} e(alpha m^2).

    alpha is taken as the exact dyadic rational num/den the float holds; each
    phase num*m^2 mod den is reduced exactly and divided once, correctly
    rounded.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    num, den = alpha.as_integer_ratio()
    squares = np.arange(1, N + 1, dtype=np.uint64)
    squares *= squares
    fracs = _dyadic_fracs(num, den, squares)
    del squares  # keeps the peak at about 40 B per term
    z = np.exp((2j * np.pi) * fracs)
    return complex(z.sum())


@lru_cache(maxsize=4)
def _row_kernels(x: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of v_sum at x, for m = B i + j with B = isqrt(x) + 1 and
    rows = x // B + 1, K = _CHEB_TERMS.

    P is (K + 2) x B. Row k < K holds T_k(u_j), u_j = 2j/B - 1. Rows K and
    K + 1 hold the weights of the two rows summed directly: (B i + j)^{-1/2}
    for 1 <= B i + j <= x, else 0, at i = 0 (singular at j = 0) and at the
    partial last row i = rows - 1. When rows = 1 both are row 0.

    C is (rows - 2) x K: C[i - 1] are the coefficients of the interpolant of
    (B i + B t)^{-1/2}, t = (u + 1)/2, at the K first-kind Chebyshev nodes.
    They are computed in long double and rounded once, so on x86-64 a
    weight sum_k C[i - 1, k] T_k(u_j) is within 5e-16 relative of m^{-1/2};
    where long double is a double that error is 10 times larger.
    """
    K = _CHEB_TERMS
    B = math.isqrt(x) + 1
    rows = x // B + 1
    P = np.multiply.outer(np.arange(K + 2, dtype=np.float64), np.arccos(np.arange(B) * (2.0 / B) - 1.0))
    np.cos(P, out=P)
    for slot, i in ((K, 0), (K + 1, rows - 1)):
        lo, hi = max(1 - B * i, 0), min(x - B * i + 1, B)  # the j with 1 <= B i + j <= x
        P[slot] = 0.0
        P[slot, lo:hi] = 1.0 / np.sqrt(np.arange(B * i + lo, B * i + hi, dtype=np.float64))
    ld = np.longdouble
    angles = np.arccos(ld(-1)) * (np.arange(K, dtype=ld) + ld(0.5)) / K
    cosines = np.cos(np.multiply.outer(np.arange(K, dtype=ld), angles))
    cosines *= ld(2) / K
    cosines[0] /= 2
    nodes = (1 + np.cos(angles)) / 2  # in t
    C = np.empty((max(rows - 2, 0), K))
    for lo in range(0, len(C), _COEFF_ROWS):  # long double temporaries of _COEFF_ROWS rows
        values = np.add.outer(np.arange(lo + 1, min(lo + _COEFF_ROWS, len(C)) + 1, dtype=ld), nodes)
        values *= B
        np.sqrt(values, out=values)
        np.divide(1, values, out=values)
        C[lo : lo + _COEFF_ROWS] = np.vecdot(values[:, None, :], cosines)
    P.setflags(write=False)
    C.setflags(write=False)
    return P, C


def _unit_phases(num: int, den: int, k: np.ndarray) -> np.ndarray:
    return np.exp((2j * np.pi) * _dyadic_fracs(num, den, k))


def v_sum(beta: float, x: int) -> complex:
    """v(beta) = (1/2) sum_{m=1..x} m^{-1/2} e(beta m).

    Periodic in beta with period 1 and conjugate-symmetric, so beta is folded
    to [0, 1/2]. The sum is taken in blocks m = B i + j (module docstring),
    with the phases beta B i and beta j reduced mod 1 exactly. Rows 0 and
    rows - 1 are summed from their own weights. Each full row in between is
    S_i = sum_k c_ik M_k, from the K = 24 moments
    M_k = sum_j T_k(2j/B - 1) e(beta j) and the coefficients c_ik of the
    Chebyshev interpolant of the row's weights (B i + B t)^{-1/2} on
    t in [0, 1].

    That weight is analytic inside the Bernstein ellipse of
    rho_i = 2i + 1 + 2 sqrt(i (i + 1)), so the interpolation error falls like
    rho_i^{-K}. Row 1 is the worst: rho_1 = 3 + 2 sqrt(2), where Trefethen's
    bound (Approximation Theory and Approximation Practice, Thm 8.2, on the
    ellipse rho = 5.711) gives 2.8e-17 relative and a 40-digit evaluation
    measures 1.2e-19. The weights as used are therefore m^{-1/2} to within
    their rounding (see _row_kernels), and v carries that relative error
    times sum_m m^{-1/2} at most.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    beta -= round(beta)
    num, den = abs(beta).as_integer_ratio()
    P, C = _row_kernels(x)
    B = P.shape[1]
    rows = x // B + 1
    inner = _unit_phases(num, den, np.arange(B, dtype=np.uint64))
    parts = np.stack((inner.real, inner.imag))
    moments = np.zeros((len(P), 2))  # real and imaginary parts
    for lo in range(0, B, _DOT_CHUNK):
        moments += np.vecdot(P[:, None, lo : lo + _DOT_CHUNK], parts[:, lo : lo + _DOT_CHUNK])
    full = np.vecdot(C[:, None, :], moments[:_CHEB_TERMS].T)
    row_sums = np.empty(rows, dtype=np.complex128)
    row_sums[1:-1] = full[:, 0] + 1j * full[:, 1]
    row_sums[0] = complex(*moments[-2])
    row_sums[-1] = complex(*moments[-1])  # when rows = 1 both slots hold row 0
    outer = _unit_phases(num, den, np.arange(0, rows * B, B, dtype=np.uint64))
    outer *= row_sums
    v = complex(0.5 * outer.sum())
    return v.conjugate() if beta < 0 else v


def f_star(alpha: float, q: int, a: int, x: int) -> complex:
    """f*(alpha) = q^{-1} S(q,a) v(alpha - a/q), defined for gcd(a, q) = 1."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise NotCoprimeError(f"gcd({a}, {q}) != 1")
    return gauss_sum(q, a) / q * v_sum(alpha - a / q, x)
