"""Output checks for the benchmark, independent of the package under test.

Exact integers are checked exactly: table files against pinned sha256 digests,
table entries against closed-form or enumeration oracles, partial sums against
sums recomputed here. Floats are checked within a stated tolerance, never by
bytes, so a correct change that reorders a float sum still passes:

    |observed - expected| <= RTOL * max(|observed|, |expected|) + ATOL

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import math
from decimal import Decimal, InvalidOperation

import numpy as np

RTOL = 1e-9
ATOL = 1e-9
# Extended-precision constants are printed with 30 significant digits.
DECIMAL_RTOL = Decimal("1e-25")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def close(observed: float, expected: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    if math.isnan(expected):
        return math.isnan(observed)
    return abs(observed - expected) <= rtol * max(abs(observed), abs(expected)) + atol


def _as_decimal(text: str):
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


def compare(observed, expected, where: str = "$") -> list[str]:
    """Structural comparison of parsed JSON: keys, lengths, strings and ints
    exactly, floats within RTOL/ATOL, decimal strings within DECIMAL_RTOL."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict):
            return [f"{where}: expected an object"]
        if set(observed) != set(expected):
            return [f"{where}: keys {sorted(observed)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(observed[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out += compare(o, e, f"{where}[{i}]")
        return out
    if isinstance(expected, bool) or expected is None:
        return [] if observed is expected else [f"{where}: {observed!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(observed, int) and not isinstance(observed, bool):
        return [] if observed == expected else [f"{where}: {observed} != {expected} (exact)"]
    if isinstance(expected, (int, float)):
        if not isinstance(observed, (int, float)) or isinstance(observed, bool):
            return [f"{where}: expected a number, got {observed!r}"]
        if close(float(observed), float(expected)):
            return []
        return [f"{where}: {observed!r} not within tolerance of {expected!r}"]
    if isinstance(expected, str):
        if observed == expected:
            return []
        o, e = (_as_decimal(observed) if isinstance(observed, str) else None), _as_decimal(expected)
        if o is not None and e is not None and abs(o - e) <= DECIMAL_RTOL * max(abs(o), abs(e)):
            return []
        return [f"{where}: {observed!r} != {expected!r}"]
    raise TypeError(f"unsupported reference value at {where}: {expected!r}")


def csv_rows(text: str) -> list[list[str]]:
    """Rows of a CLI CSV output, without comment lines."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------- oracles


def r3_at(n: int) -> int:
    """r_3(n) by enumerating two coordinates and testing the third."""
    total = 0
    for a in range(math.isqrt(n) + 1):
        rem = n - a * a
        b = np.arange(math.isqrt(rem) + 1, dtype=np.int64)
        c2 = rem - b * b
        c = np.rint(np.sqrt(c2)).astype(np.int64)
        hit = c * c == c2
        weight = (2 if a else 1) * np.where(b > 0, 2, 1) * np.where(c > 0, 2, 1)
        total += int(weight[hit].sum())
    return total


def r8_at(n: int) -> int:
    """r_8(n) by Jacobi's eight-square formula: 16 sum_{d|n} (-1)^(n+d) d^3."""
    if n == 0:
        return 1
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for e in {d, n // d}:
                total += (-1) ** (n + e) * e**3
    return 16 * total


def ball_count(x: int) -> int:
    """sum_{1<=n<=x} r_3(n): integer points with a^2 + b^2 + c^2 <= x, minus 0."""
    total = 0
    for a in range(-math.isqrt(x), math.isqrt(x) + 1):
        rem = x - a * a
        r = math.isqrt(rem)
        b = np.arange(-r, r + 1, dtype=np.int64)
        c2 = rem - b * b
        c = np.floor(np.sqrt(c2)).astype(np.int64)
        c += (c + 1) * (c + 1) <= c2
        c -= c * c > c2
        total += int((2 * c + 1).sum())
    return total - 1


def gauss_direct(q: int, a: int) -> complex:
    """S(q, a) = sum_{h=1..q} e(a h^2 / q) with the phase reduced exactly."""
    return sum(cmath.exp(2j * math.pi * ((a * h * h) % q) / q) for h in range(1, q + 1))


def weyl_direct(alpha: float, n_terms: int) -> complex:
    """f(alpha) = sum_{m=1..N} e(alpha m^2), alpha taken as its exact dyadic value."""
    num, den = float(alpha).as_integer_ratio()
    return sum(
        cmath.exp(2j * math.pi * ((num * m * m) % den) / den) for m in range(1, n_terms + 1)
    )


def a_term_direct(q: int, n: int) -> float:
    """A(q, n) = q^-3 sum over a coprime to q of S(q, a)^3 e(-a n / q)."""
    total = sum(
        gauss_direct(q, a) ** 3 * cmath.exp(-2j * math.pi * ((a * n) % q) / q)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    )
    return (total / q**3).real


def prefix_sums(counts: np.ndarray, xs, square: bool) -> dict[int, int]:
    """Exact sum of counts[n] (or counts[n]^2) over 1 <= n <= x, in Python ints."""
    values = counts.astype(object)
    if square:
        values = values * values
    out, total, prev = {}, 0, 1
    for x in xs:
        total += int(values[prev : x + 1].sum())
        out[x] = total
        prev = x + 1
    return out
