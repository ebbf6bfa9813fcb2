"""Binary floats at any precision, in Python ints: the number system of the
closed-form constants (see `constants`).

Binary(P) is mpmath's model at P bits of working precision: each `*`, `/`,
`-` and `**` of two of its floats, or of a float and an int or a float
operand, rounds the exact result once, to nearest with ties to even at P
bits; mpf rounds once, ldexp is exact and fsum rounds the exact sum once. Its
primitives, pi, zeta at integers, sqrt and Gamma at positive integers and
half-integers, are correctly rounded, each from a rigorous enclosure whose
precision doubles until both ends round to the same float. nstr prints a
float as mpmath.nstr does.
"""

from __future__ import annotations

import math

from .errors import DomainError

_GUARD = 64  # bits beyond P at which an enclosure is first tried


class Float:
    """The binary float m * 2^e, with int m and e, of the number system at
    `prec` bits.

    `*`, `/`, `-` and `**` round the exact result once, to nearest with ties
    to even at `prec` bits, with no bound on the exponent: what mpmath does at
    `prec` bits of working precision for every operation the forms make. An
    int or float operand enters exactly, as in mpmath. `**` takes an int or
    an integer-valued Float.
    """

    __slots__ = ("m", "e", "prec")

    def __init__(self, m: int, e: int, prec: int):
        self.m, self.e, self.prec = m, e, prec

    def __float__(self) -> float:
        x = self if abs(self.m).bit_length() <= 53 else _rounded(self.m, 1, self.e, 53)
        return math.ldexp(x.m, x.e)

    def __mul__(self, other):
        if (o := _exact(other, self.prec)) is None:
            return NotImplemented
        return _rounded(self.m * o.m, 1, self.e + o.e, self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (o := _exact(other, self.prec)) is None:
            return NotImplemented
        return _rounded(self.m, o.m, self.e - o.e, self.prec)

    def __rtruediv__(self, other):
        if (o := _exact(other, self.prec)) is None:
            return NotImplemented
        return _rounded(o.m, self.m, o.e - self.e, self.prec)

    def __sub__(self, other):
        if (o := _exact(other, self.prec)) is None:
            return NotImplemented
        e = min(self.e, o.e)
        return _rounded((self.m << (self.e - e)) - (o.m << (o.e - e)), 1, e, self.prec)

    def __rsub__(self, other):
        if (o := _exact(other, self.prec)) is None:
            return NotImplemented
        return o - self

    def __pow__(self, n):
        if (n := _integer(n)) is None:
            return NotImplemented
        sign, k = -1 if self.m < 0 and n & 1 else 1, abs(n)
        for bits in (self.prec + _GUARD, None):  # an enclosure, then, if it straddles, the exact power
            lo, hi, e = _power_bounds(abs(self.m), k, bits)
            e += self.e * k
            if n < 0:
                a, b = _rounded(sign, hi, -e, self.prec), _rounded(sign, lo, -e, self.prec)
            else:
                a, b = _rounded(sign * lo, 1, e, self.prec), _rounded(sign * hi, 1, e, self.prec)
            if (a.m, a.e) == (b.m, b.e):
                return a


def _exact(x, prec: int) -> Float | None:
    """x as a Float of the system at prec bits, exactly; None unless x is a
    Float, an int or a finite float."""
    if isinstance(x, Float):
        return x
    if isinstance(x, int):
        return Float(x, 0, prec)
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        return Float(num, 1 - den.bit_length(), prec)
    return None


def _integer(x) -> int | None:
    """The int that x is, if x is an int or an integer-valued Float."""
    if isinstance(x, int):
        return x
    if isinstance(x, Float):
        if x.e >= 0:
            return x.m << x.e
        if not x.m & ((1 << -x.e) - 1):
            return x.m >> -x.e
    return None


def _power_bounds(m: int, k: int, bits: int | None) -> tuple[int, int, int]:
    """Integers lo <= m^k 2^-e <= hi and e, for an int m >= 0, by binary
    powering in which each product longer than `bits` bits is cut to `bits`,
    lo down and hi up (lo == hi while every product fits, or if bits is None)."""
    lo = hi = 1
    e = base_e = 0
    base_lo = base_hi = m
    while k:
        if k & 1:
            lo, hi, e = _cut(lo * base_lo, hi * base_hi, e + base_e, bits)
        k >>= 1
        if k:
            base_lo, base_hi, base_e = _cut(base_lo * base_lo, base_hi * base_hi, 2 * base_e, bits)
    return lo, hi, e


def _cut(lo: int, hi: int, e: int, bits: int | None) -> tuple[int, int, int]:
    if bits is None or (drop := hi.bit_length() - bits) <= 0:
        return lo, hi, e
    return lo >> drop, -(-hi >> drop), e + drop


def _rounded(num: int, den: int, e: int, prec: int) -> Float:
    """num / den * 2^e rounded once to prec bits, ties to even."""
    if not den:
        raise ZeroDivisionError("division by zero")
    if den < 0:
        num, den = -num, -den
    if not num:
        return Float(0, 0, prec)
    mag = abs(num)
    shift = prec + 2 - mag.bit_length() + den.bit_length()  # the quotient has prec + 2 or + 3 bits
    q, rest = divmod(mag << max(shift, 0), den << max(-shift, 0))
    return _round_bits(q, rest, num < 0, e - shift, prec)


def _round_bits(q: int, inexact, negative: bool, e: int, prec: int) -> Float:
    """(q + f) * 2^e rounded to prec bits, ties to even, for an int q of more
    than prec bits and some 0 <= f < 1, nonzero if `inexact`. The mantissa
    of the result has exactly prec bits."""
    drop = q.bit_length() - prec
    m, low, half = q >> drop, q & ((1 << drop) - 1), 1 << (drop - 1)
    if low > half or (low == half and (inexact or m & 1)):
        m += 1
        if m >> prec:  # 2^prec: one bit fewer, still exact
            m, drop = m >> 1, drop + 1
    return Float(-m if negative else m, e + drop, prec)


def _enclosed(bounds, e: int, prec: int) -> Float:
    """A positive value correctly rounded to prec bits, from integers
    lo <= value * 2^(bits - e) <= hi = bounds(bits): bits start _GUARD beyond
    prec and double until both ends round to the same float. That ends unless
    the value is exactly halfway between two floats, which no value here is
    (each is irrational)."""
    bits = prec + _GUARD
    while True:
        lo, hi = bounds(bits)
        lo, hi = _rounded(lo, 1, e - bits, prec), _rounded(hi, 1, e - bits, prec)
        if (lo.m, lo.e) == (hi.m, hi.e):
            return lo
        bits *= 2


def _pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo < pi 2^bits < hi from Machin's formula,
    pi = 16 atan(1/5) - 4 atan(1/239).

    Each atan(1/x) 2^bits is summed term by term: the term 2^bits / ((2k+1)
    x^(2k+1)) is floored twice, 2^bits // x^(2k+1) (exact, as a repeated
    floor division) and then // (2k+1), so it falls short by less than 2, and
    the sum stops at the first term whose power is 0, past which the
    alternating tail is less than 1. With K terms the sum is within 2K + 1,
    and pi 2^bits within 16 (2 K_5 + 1) + 4 (2 K_239 + 1).
    """
    def atan_inv(x: int) -> tuple[int, int]:
        total, power, k = 0, (1 << bits) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= x * x
            k += 1
        return total, 2 * k + 1

    (a5, r5), (a239, r239) = atan_inv(5), atan_inv(239)
    z, radius = 16 * a5 - 4 * a239, 16 * r5 + 4 * r239
    return z - radius, z + radius


class _ZetaSums:
    """Borwein's sums for zeta(2), zeta(3), ... in turn, in fixed point at
    `bits` fractional bits.

    Borwein's series (An efficient algorithm for the Riemann zeta function,
    CMS Conf. Proc. 27 (2000), Algorithm 2): with
    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), integers,
        zeta(s) = 2^(s-1) / (d_n (2^(s-1) - 1)) sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s + g_n,
    |g_n| <= 3 / ((3 + sqrt 8)^n (1 - 2^(1-s))) < 6 (5/29)^n for real s >= 2.
    With n = 2 bits / 5 + 2 terms, a_k = (d_n - d_k) 2^bits // d_n once, and
    T_k(s) = T_k(s-1) // (k+1), which is a_k // (k+1)^s exactly (a repeated
    floor division), each term falls short of its true value by less than 2,
    so the alternating sum is within n + 1; times 2^(s-1) / (2^(s-1) - 1) <= 2
    and floored, zeta(s) 2^bits is within R = 2n + 3 + ceil(6 (5/29)^n 2^bits)
    of the result, and R is about 2n. Each step to the next s costs one
    division of each term by a small int, not a fresh power (k+1)^s.
    """

    def __init__(self, bits: int):
        n = 2 * bits // 5 + 2
        d, term = [1], 1
        for i in range(1, n + 1):
            term = term * 2 * (n + i - 1) * (n - i + 1) // (i * (2 * i - 1))
            d.append(d[-1] + term)
        self.terms = [((d[n] - d[k]) << bits) // d[n] // (k + 1) for k in range(n)]  # s = 1
        self.s = 1
        self.radius = 2 * n + 3 - ((-6 * 5**n << bits) // 29**n)  # a ceiling

    def next(self) -> tuple[int, int]:
        """Integers lo < zeta(s) 2^bits < hi for the next s."""
        self.s += 1
        terms = self.terms = [t // (k + 1) for k, t in enumerate(self.terms)]
        while terms and not terms[-1]:  # T_k(s) falls with k: the zeros are a suffix
            terms.pop()
        half = 1 << (self.s - 1)
        z = (sum(terms[::2]) - sum(terms[1::2])) * half // (half - 1)
        return z - self.radius, z + self.radius


def _zeta_bounds(s: int, bits: int) -> tuple[int, int]:
    """Integers lo < zeta(s) 2^bits < hi, from a fresh pass."""
    sums = _ZetaSums(bits)
    while sums.s < s - 1:
        sums.next()
    return sums.next()


class Binary:
    """The number system of binary floats with `prec`-bit mantissas: mpmath's
    model at `prec` bits of working precision, in Python ints.

    mpf(x) rounds an int or a float once; ldexp(x, k) is exact; fsum(terms)
    is the exact sum rounded once (mpmath.fsum drops a term more than 2P bits
    below the running sum, which can move a tie; the forms make no such sum).
    pi, zeta(s) at an int s >= 2, sqrt(x) and gamma(x) at a positive integer
    or half-integer are correctly rounded, each from a rigorous enclosure
    (_enclosed). pi and every zeta(s) are kept once made; the zeta values come
    from one pass of _ZetaSums up to the largest s asked for.
    """

    def __init__(self, prec: int):
        self.prec = prec
        self._pi = None
        self._zetas: list[Float] = []  # zeta(2), zeta(3), ...
        self._sums = None

    def mpf(self, x) -> Float:
        x = _exact(x, self.prec)
        return _rounded(x.m, 1, x.e, self.prec)

    @staticmethod
    def ldexp(x: Float, k: int) -> Float:
        return Float(x.m, x.e + k, x.prec)

    def fsum(self, terms) -> Float:
        xs = [_exact(x, self.prec) for x in terms]
        e = min((x.e for x in xs), default=0)
        return _rounded(sum(x.m << (x.e - e) for x in xs), 1, e, self.prec)

    @property
    def pi(self) -> Float:
        if self._pi is None:
            self._pi = _enclosed(_pi_bounds, 0, self.prec)
        return self._pi

    def sqrt(self, x) -> Float:
        x = _exact(x, self.prec)
        if x.m < 0:
            raise DomainError("sqrt of a negative number")
        if not x.m:
            return x
        m, e = (x.m << 1, x.e - 1) if x.e & 1 else (x.m, x.e)
        k = max(0, self.prec + 3 - m.bit_length() // 2)  # the root has more than prec + 2 bits
        root = math.isqrt(m << 2 * k)
        return _round_bits(root, root * root != m << 2 * k, False, e // 2 - k, self.prec)

    def gamma(self, x) -> Float:
        """Gamma at a positive integer, from the factorial, or at n + 1/2, as
        (2n-1)!! sqrt(pi) / 2^n, correctly rounded."""
        y = _exact(x, self.prec)
        twice = None if y is None else _integer(Float(y.m, y.e + 1, self.prec))
        if twice is None or twice < 1:
            raise DomainError(f"gamma is evaluated at positive integers and half-integers, got {x}")
        if twice % 2 == 0:
            return self.mpf(math.factorial(twice // 2 - 1))
        n = twice // 2
        odd = math.prod(range(1, 2 * n, 2))

        def bounds(bits):
            lo, hi = _pi_bounds(bits)
            return math.isqrt(lo << bits) * odd, (math.isqrt(hi << bits) + 1) * odd

        return _enclosed(bounds, -n, self.prec)

    def zeta(self, s) -> Float:
        """zeta(s) at an int s >= 2 (or an integer-valued Float), correctly rounded."""
        if (n := _integer(s)) is None or n < 2:
            raise DomainError(f"zeta is evaluated at integers s >= 2, got {s}")
        if n > self.prec:  # zeta(s) - 1 < 2^(1-s) <= 2^-prec, half an ulp of 1
            return self.mpf(1)
        while len(self._zetas) < n - 1:
            self._zetas.append(self._next_zeta())
        return self._zetas[n - 2]

    def _next_zeta(self) -> Float:
        """The next zeta(s) from the shared pass at prec + _GUARD bits, or, if
        its enclosure straddles a rounding boundary, from fresh passes."""
        prec_bits = self.prec + _GUARD
        if self._sums is None:
            self._sums = _ZetaSums(prec_bits)
        first, s = self._sums.next(), self._sums.s
        return _enclosed(lambda bits: first if bits == prec_bits else _zeta_bounds(s, bits), 0, self.prec)


BINARY53 = Binary(53)


_LOG2_10 = math.log(10, 2)  # as mpmath computes it: its digit counts follow this float


def nstr(x: Float, digits: int) -> str:
    """x to `digits` significant digits, as mpmath.nstr(x, digits) (mpmath 1.3's
    libmp.to_str) prints it: digits + 3 digits truncated from a fixed-point
    form with about 10 bits to spare, rounded half up on the next digit, fixed
    notation for a leading digit at 10^k with min(-(digits // 3), -5) < k <
    digits and exponent notation otherwise, trailing zeros stripped. For
    |x| within 2^+-3500, where mpmath converts without scaling by a power of ten.
    """
    if not x.m:
        return "0.0"
    sign, man, exp = "-" if x.m < 0 else "", abs(x.m), x.e
    if abs(exp + man.bit_length()) > 3500:
        raise DomainError(f"nstr prints values within 2^+-3500, got 2^{exp + man.bit_length()}")
    bitprec = int((digits + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    fixed = man << (exp + fixprec) if exp + fixprec >= 0 else man >> -(exp + fixprec)
    text = str(fixed * 10**fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    if len(text) > digits and text[digits] in "56789":
        text = str(int(text[:digits]) + 1)
        if len(text) > digits:  # 99...9 rounded up to 100...0
            text, exponent = text[:digits], exponent + 1
    else:
        text = text[:digits]
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:  # else exponent + 1 <= digits <= len(text): no padding
            text = "0" * -exponent + text
        split, exponent = max(exponent, 0) + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    if not exponent:
        return sign + text
    return f"{sign}{text}e{exponent:+d}"
