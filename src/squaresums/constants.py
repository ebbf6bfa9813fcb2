"""Every constant of the verification pipeline, each reachable by at least
two independent routes.

B1 = sum over q of phi(q) |S(q,.)|^6 / q^6 is computed from the magnitude law
(b1_direct), as (4/3) sum over odd q of phi(q)/q^3 (b1_euler), and in closed
form 8 zeta(2)/(7 zeta(3)) (b1_closed). The mean-square constant is
C3 = 8 pi^4 / (21 zeta(3)) = 2 pi^2 B1, which must also equal both the
general-order value w_constant(3) and the spectral-route assembly
muller_assembly() built from Eisenstein scattering entries at s = 3/2.

Each closed form (B1, C3, W_N, phi_{infty,iota}(s) and the spectral assembly)
is written once, as a private function of its number system: a namespace with
pi, mpf, ldexp and zeta (and sqrt, gamma and fsum where Gamma is needed), and
numbers whose operations round. constants_extended passes mpmath, with 15
guard digits beyond the digits it prints. The doubles of B1, C3 and W_N need
zeta only at integers: they pass _Binary53, which rounds every operation once
to 53 bits, as mpmath does at 53 bits of working precision, in plain Python
ints. phi(s) and the assembly need Gamma at non-integer s and are evaluated by
mpmath at 53 bits. mpmath is imported only by the functions that use it, so a
process that needs only B1, C3 or W_N (verify-meansquare, verify-general)
never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotCoprimeError


class _Binary53:
    """The binary float m * 2^e, with int m and e, and the number system of the
    double closed forms of B1, C3 and W_N.

    `*`, `/`, `-` and `**` by an int round the exact result once, to nearest
    with ties to even at 53 bits, with no bound on the exponent. That is what
    the same float operation does where the result is a normal double, and
    what mpmath does at 53 bits of working precision for every operation the
    forms make; the tests check each form against mpmath bit for bit. An int
    operand enters exactly, as in mpmath. As a number system: pi is
    math.pi exactly, mpf(n) rounds the int n, ldexp(x, k) is exact, and
    zeta(s) is correctly rounded (_zeta53).
    """

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        self.m, self.e = m, e

    def __float__(self) -> float:
        return math.ldexp(self.m, self.e)

    @staticmethod
    def _exact(x):
        if isinstance(x, _Binary53):
            return x
        return _Binary53(x) if isinstance(x, int) else None

    def __mul__(self, other):
        if (o := self._exact(other)) is None:
            return NotImplemented
        return _rounded(self.m * o.m, 1, self.e + o.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (o := self._exact(other)) is None:
            return NotImplemented
        return _rounded(self.m, o.m, self.e - o.e)

    def __rtruediv__(self, other):
        if (o := self._exact(other)) is None:
            return NotImplemented
        return _rounded(o.m, self.m, o.e - self.e)

    def __sub__(self, other):
        if (o := self._exact(other)) is None:
            return NotImplemented
        e = min(self.e, o.e)
        return _rounded((self.m << (self.e - e)) - (o.m << (o.e - e)), 1, e)

    def __rsub__(self, other):
        if (o := self._exact(other)) is None:
            return NotImplemented
        return o - self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _rounded(1, self.m**-n, self.e * n)
        return _rounded(self.m**n, 1, self.e * n)

    @staticmethod
    def mpf(n: int):
        return _rounded(n, 1, 0)

    @staticmethod
    def ldexp(x, k: int):
        return _Binary53(x.m, x.e + k)

    @staticmethod
    def zeta(s: int):
        return _zeta53(s)


def _rounded(num: int, den: int, e: int) -> _Binary53:
    """num / den * 2^e rounded once to 53 bits, ties to even."""
    if not den:
        raise ZeroDivisionError("division by zero")
    if den < 0:
        num, den = -num, -den
    if not num:
        return _Binary53(0)
    mag = abs(num)
    shift = 55 - mag.bit_length() + den.bit_length()  # the quotient has 55 or 56 bits
    q, rest = divmod(mag << max(shift, 0), den << max(-shift, 0))
    drop = q.bit_length() - 53
    m, low, half = q >> drop, q & ((1 << drop) - 1), 1 << (drop - 1)
    if low > half or (low == half and (rest or m & 1)):
        m += 1  # 2^53 at most, still exact
    return _Binary53(-m if num < 0 else m, e - shift + drop)


_Binary53.pi = _rounded(*math.pi.as_integer_ratio(), 0)  # exact: math.pi is a double


def _zeta53(s: int) -> _Binary53:
    """zeta(s) for an int s >= 2, correctly rounded to 53 bits.

    Borwein's series (An efficient algorithm for the Riemann zeta function,
    CMS Conf. Proc. 27 (2000), Algorithm 2): with
    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), integers,
        zeta(s) = 2^(s-1) / (d_n (2^(s-1) - 1)) sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s + g_n,
    |g_n| <= 3 / ((3 + sqrt 8)^n (1 - 2^(1-s))) < 6 (5/29)^n for real s >= 2.
    At P fractional bits, n = 2P/5 + 2 terms, each floored, and the final
    division floored, give an integer Z with |zeta(s) 2^P - Z| < R =
    1 + ceil(n 2^(s-1) / (d_n (2^(s-1) - 1))) + ceil(6 (5/29)^n 2^P), so R is
    about 3 at any P. Both ends of [Z - R, Z + R] / 2^P are rounded; if they
    round to the same double, that is zeta(s), correctly rounded; if not, P
    doubles, from 64. This ends unless zeta(s) is exactly halfway between two
    doubles; zeta(53), within 3^-53 of such a point, takes P = 128.
    """
    bits = 64
    while True:
        n = 2 * bits // 5 + 2
        d, term = [1], 1
        for i in range(1, n + 1):
            term = term * 2 * (n + i - 1) * (n - i + 1) // (i * (2 * i - 1))
            d.append(d[-1] + term)
        total = sum((-1) ** k * (((d[n] - d[k]) << bits) // (k + 1) ** s) for k in range(n))
        half = 1 << (s - 1)
        den = d[n] * (half - 1)
        z = total * half // den
        radius = 1 - (-n * half // den) - ((-6 * 5**n << bits) // 29**n)  # ceilings
        lo, hi = _rounded(z - radius, 1, -bits), _rounded(z + radius, 1, -bits)
        if float(lo) == float(hi):
            return lo
        bits *= 2


def _double(form, *args) -> float:
    """`form(mpmath, *args)` at 53 bits: each step rounds as the same float
    operation would. For the forms that need Gamma at non-integer s."""
    import mpmath  # local: B1, C3 and W_N are doubles without it

    with mpmath.workprec(53):
        return float(form(mpmath, *args))


def _totient_at(p, pk):
    return pk - pk // p


def totient_sieve(Q: int) -> np.ndarray:
    """phi(1..Q) exactly, as int32 (phi(q) <= q < 2^31); index 0 is an unused zero.

    Filled from the blocks of `_sieve.multiplicative_blocks`, from phi(p^k) =
    p^k - p^(k-1): the result holds 4 B per q, and the sieve's table 1 more.
    """
    from ._sieve import multiplicative  # local: verify-* load this module for C3 and W_N alone

    return multiplicative(Q, np.int32, _totient_at)


def _b1_blocks(Q: int, weigh):
    """Blocks of the float64 B1 terms weigh(phi(q)) / q^3 for q = 1..Q, one
    block of the totient sieve at a time; weigh(terms, lo) scales the block
    that starts at q = lo in place."""
    from ._sieve import multiplicative_blocks  # local: verify-* load this module for C3 and W_N alone

    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    return (_over_cubes(phi, lo, weigh) for lo, phi in multiplicative_blocks(Q, np.int32, _totient_at))


def _over_cubes(phi, lo, weigh):
    terms = phi.astype(np.float64)
    weigh(terms, lo)
    q3 = np.arange(lo, lo + terms.size, dtype=np.float64)
    q3 **= 3
    terms /= q3
    return terms


def _magnitude_law(terms, lo):
    """|S|^6/q^6 times q^3: 1 for odd q, 8 for q divisible by 4, 0 otherwise."""
    terms[(2 - lo) % 4 :: 4] = 0.0
    terms[-lo % 4 :: 4] *= 8.0


def _euler_weight(terms, lo):
    """4/3 for odd q, 0 for even q."""
    terms *= 4.0 / 3.0
    terms[-lo % 2 :: 2] = 0.0


def _b1_sum(Q: int, weigh) -> float:
    from ._sieve import pairwise_sum  # local: verify-* load this module for C3 and W_N alone

    return pairwise_sum(_b1_blocks(Q, weigh), Q)


def b1_terms_direct(Q: int) -> np.ndarray:
    """Per-q contributions phi(q) |S(q,.)|^6 / q^6 via the magnitude law.

    |S|^6/q^6 is q^{-3} for odd q, 8 q^{-3} for q divisible by 4, 0 otherwise.
    """
    return np.concatenate(list(_b1_blocks(Q, _magnitude_law)))


def b1_direct(Q: int) -> float:
    """Partial sum of B1 over q <= Q using the closed magnitude law: np.sum of
    b1_terms_direct(Q), bit for bit, summed as the sieve yields its blocks."""
    return _b1_sum(Q, _magnitude_law)


def b1_terms_euler(Q: int) -> np.ndarray:
    """Per-q contributions of the odd-q Euler form (4/3) phi(q)/q^3."""
    return np.concatenate(list(_b1_blocks(Q, _euler_weight)))


def b1_euler(Q: int) -> float:
    """Partial sum of B1 in the odd-q Euler form: np.sum of b1_terms_euler(Q),
    bit for bit, summed as the sieve yields its blocks."""
    return _b1_sum(Q, _euler_weight)


# Cusp data used by the spectral assembly: label -> (u, w, width, zero-coefficient).
# The zero coefficients (1, 0, 1) are the stated values the assembly needs;
# cusp_zero_coeff reproduces them at 1/4 and 1/2 but yields 8 at the cusp 1,
# so both numbers are surfaced in the report (see constants_report).
_CUSPS = {
    "1": (1, 1, 4, 1.0),
    "1/2": (1, 2, 1, 0.0),
    "1/4": (1, 4, 1, 1.0),
}


def _b1(num):
    return 8 * num.zeta(2) / (7 * num.zeta(3))


def _c3(num):
    return 8 * num.pi**4 / (21 * num.zeta(3))


def _w(num, N: int):
    """W_N with Gamma(N/2)^2 in exact form: (N/2 - 1)!^2 for even N and
    pi ((2k-1)!!)^2 / 4^k for N = 2k + 1, the integer rounded once before the
    division, as a double holds it."""
    lead = 1 / ((N - 1) * (1 - num.mpf(2) ** -N))
    if N % 2 == 0:
        ratio = num.pi**N / num.mpf(math.factorial(N // 2 - 1)) ** 2
    else:
        k = N // 2
        odd = math.prod(range(1, 2 * k, 2))
        ratio = num.pi ** (N - 1) / num.ldexp(num.mpf(odd * odd), -2 * k)
    return lead * ratio * num.zeta(N - 1) / num.zeta(N)


def _phi(num, iota: str, s):
    s, two = num.mpf(s), num.mpf(2)
    shared = (
        num.sqrt(num.pi)
        * num.gamma(s - 0.5)
        * num.zeta(2 * s - 1)
        / (num.gamma(s) * num.zeta(2 * s))
    )
    denom = 1 - two ** (-2 * s)
    if iota == "1/4":
        return two ** (1 - 4 * s) / denom * shared
    return two ** (-2 * s) * (1 - two ** (1 - 2 * s)) / denom * shared


def _b_plus(num):
    return 1 / num.gamma(2)


def _assembly(num):
    phi_sum = num.fsum(_phi(num, iota, 1.5) * coeff for iota, (*_, coeff) in _CUSPS.items())
    return (4 * num.pi) ** 2 / 2 * _b_plus(num) * phi_sum


def b1_closed() -> float:
    """B1 in closed form: 8 zeta(2) / (7 zeta(3))."""
    return float(_b1(_Binary53))


def mean_square_constant() -> float:
    """C3 = 8 pi^4 / (21 zeta(3)), the x^2 coefficient of sum r_3(n)^2."""
    return float(_c3(_Binary53))


def w_constant(N: int) -> float:
    """Mean-square constant W_N for sums of N squares:
    1/((N-1)(1-2^{-N})) * pi^N / Gamma(N/2)^2 * zeta(N-1)/zeta(N)."""
    if N < 3:
        raise DomainError(f"w_constant requires N >= 3, got {N}")
    return float(_w(_Binary53, int(N)))


def eisenstein_phi(iota: str, s: float) -> float:
    """Scattering entry phi_{infty,iota}(s) for the cusp class "1", "1/2" or "1/4".

    The 1/4 cusp carries 2^{1-4s}/(1-2^{-2s}), the cusps 1 and 1/2 both carry
    2^{-2s}(1-2^{1-2s})/(1-2^{-2s}), times the shared factor
    sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)).
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"eisenstein_phi requires s > 1, got {s}")
    if not (isinstance(iota, str) and iota in _CUSPS):
        raise DomainError(f"unknown cusp label {iota!r}; use '1', '1/2' or '1/4'")
    return _double(_phi, iota, s)


def cusp_zero_coeff(u: int, w: int, width: int) -> float:
    """Zero-coefficient weight width^3 * 2^{-3} w^{-3} |S(w, u)|^6 for cusp u/w."""
    if w < 1:
        raise DomainError(f"w must be >= 1, got {w}")
    if width < 1:
        raise DomainError(f"width must be >= 1, got {width}")
    if math.gcd(u, w) != 1:
        raise NotCoprimeError(f"gcd({u}, {w}) != 1")
    from .expsum import gauss_sum  # local: verify-meansquare needs C3, not the cusps

    mag = abs(gauss_sum(w, u))
    return float(width) ** 3 * mag**6 / (8.0 * float(w) ** 3)


def muller_assembly() -> float:
    """Mean-square constant assembled through the spectral route:
    (4 pi)^2 / 2 * b_plus * sum over cusps of phi_{infty,iota}(3/2) |a_{iota,0}|^2
    with b_plus = 1/Gamma(2) = 1."""
    return _double(_assembly)


def constants_report(
    b1_direct_Q: int = 4096,
    b1_euler_Q: int = 10**6,
    w_orders=(3, 4, 5, 6),
) -> dict:
    """Every double-precision constant, nested as the `constants` subcommand
    prints it. Raises DomainError unless both constants are positive, C3 agrees
    with 2 pi^2 B1 to 1e-12 relative and the spectral route agrees with C3 to 1e-10."""
    b1, c3 = b1_closed(), mean_square_constant()
    if not (b1 > 0.0 and c3 > 0.0):
        raise DomainError("constants must be positive")
    if abs(c3 - 2.0 * math.pi**2 * b1) > 1e-12 * c3:
        raise DomainError("c3 and 2 pi^2 B1 disagree")
    # the sieves run before Gamma loads mpmath (2.9 MiB): a process holds one or the other
    direct, euler = b1_direct(b1_direct_Q), b1_euler(b1_euler_Q)
    spectral = muller_assembly()
    if abs(spectral - c3) > 1e-10:
        raise DomainError("spectral-route constant disagrees with c3")
    components = {"b_plus": _double(_b_plus)}
    for iota, (u, w, width, stated) in _CUSPS.items():
        key = iota.replace("/", "")
        components[f"phi_{key}"] = eisenstein_phi(iota, 1.5)
        components[f"a0_sq_{key}"] = stated
        components[f"a0_sq_{key}_formula"] = cusp_zero_coeff(u, w, width)
        components[f"width_{key}"] = float(width)
    return {
        "b1_direct_at_Q": {"value": direct, "Q": b1_direct_Q},
        "b1_euler_at_Q": {"value": euler, "Q": b1_euler_Q},
        "b1_closed": b1,
        "c3": c3,
        "w_values": {str(N): w_constant(N) for N in w_orders},
        "muller_b": spectral,
        "assembly_components": dict(sorted(components.items())),
    }


def constants_extended(digits: int = 30, w_orders=(3, 4, 5, 6)) -> dict[str, str]:
    """The closed-form constants to `digits` significant digits.

    Truncated sums stay in the double-precision report.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    import mpmath  # local: the double report loads it only for Gamma

    with mpmath.workdps(digits + 15):
        values = {"b1_closed": _b1(mpmath), "c3": _c3(mpmath), "muller_b": _assembly(mpmath)}
        values.update((f"w_{N}", _w(mpmath, int(N))) for N in w_orders)
        return {key: mpmath.nstr(value, digits) for key, value in values.items()}
