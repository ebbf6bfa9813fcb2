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
v(beta) = (1/2) sum_i e(beta B i) sum_j w_{B i + j} e(beta j), so one call
takes about 2 sqrt(x) exponentials and one pass of row dot products over a
cached (rows x B) matrix of the weights w_m = m^{-1/2}. Every dot product is
about sqrt(x) long, which for x < 10^8 stays under the 10^4 at which OpenBLAS
would hand it to worker threads, so a call runs on the caller's thread alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotCoprimeError

# Python-int phases are formed this many at a time, so the fallback for large
# denominators holds no more than a fixed number of int objects at once.
_OBJECT_CHUNK = 1 << 16
# the weights m^{-1/2} are filled this many at a time
_WEIGHT_CHUNK = 1 << 16


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
def _block_weights(x: int) -> np.ndarray:
    """w_m = m^{-1/2} at row i, column j of m = B i + j, B = isqrt(x) + 1,
    with zeros at m = 0 and beyond x."""
    B = math.isqrt(x) + 1
    rows = x // B + 1
    w = np.zeros(rows * B, dtype=np.float64)
    for lo in range(1, x + 1, _WEIGHT_CHUNK):  # in place: no matrix-sized temporary
        v = w[lo : min(lo + _WEIGHT_CHUNK, x + 1)]
        v[:] = np.arange(lo, lo + v.size, dtype=np.float64)
        np.sqrt(v, out=v)
        np.divide(1.0, v, out=v)
    w = w.reshape(rows, B)
    w.setflags(write=False)
    return w


def _unit_phases(num: int, den: int, k: np.ndarray) -> np.ndarray:
    return np.exp((2j * np.pi) * _dyadic_fracs(num, den, k))


def v_sum(beta: float, x: int) -> complex:
    """v(beta) = (1/2) sum_{m=1..x} m^{-1/2} e(beta m).

    Periodic in beta with period 1 and conjugate-symmetric, so beta is folded
    to [0, 1/2]. The sum is taken in blocks m = B i + j (module docstring):
    the phases beta B i and beta j are reduced mod 1 exactly, and the inner
    sums over j, real and imaginary parts, are one pass over the cached weight
    matrix. For x >= 10^8 OpenBLAS may thread each row's dot product.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    beta -= round(beta)
    num, den = abs(beta).as_integer_ratio()
    w = _block_weights(x)
    rows, B = w.shape
    inner = _unit_phases(num, den, np.arange(B, dtype=np.uint64))
    parts = np.vecdot(w[:, None, :], np.stack((inner.real, inner.imag)))  # (rows, 2)
    row_sums = parts[:, 0] + 1j * parts[:, 1]
    outer = _unit_phases(num, den, np.arange(0, rows * B, B, dtype=np.uint64))
    v = complex(0.5 * np.dot(outer, row_sums))
    return v.conjugate() if beta < 0 else v


def f_star(alpha: float, q: int, a: int, x: int) -> complex:
    """f*(alpha) = q^{-1} S(q,a) v(alpha - a/q), defined for gcd(a, q) = 1."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise NotCoprimeError(f"gcd({a}, {q}) != 1")
    return gauss_sum(q, a) / q * v_sum(alpha - a / q, x)
