"""Every constant of the verification pipeline, each reachable by at least
two independent routes.

B1 = sum over q of phi(q) |S(q,.)|^6 / q^6 is computed from the magnitude law
(b1_direct), as (4/3) sum over odd q of phi(q)/q^3 (b1_euler), and in closed
form 8 zeta(2)/(7 zeta(3)) (b1_closed). The two truncated sums take phi one
block of the segmented totient sieve at a time and keep no term. The
mean-square constant is C3 = 8 pi^4 / (21 zeta(3)) = 2 pi^2 B1, which must
also equal both the general-order value w_constant(3) and the spectral-route
assembly muller_assembly() built from Eisenstein scattering entries at s = 3/2.

Each closed form (B1, C3, W_N, phi_{infty,iota}(s) and the spectral assembly)
is written once, as a private function of its number system: a namespace with
pi, mpf, ldexp, zeta, sqrt, gamma and fsum, and numbers whose operations
round. That number system is `_binary.Binary(P)`, binary floats with P-bit
mantissas in Python ints, which rounds every operation and every primitive
once, to nearest-even, as mpmath does at P bits of working precision. The
doubles are the forms at P = 53; constants_extended evaluates them at the
precision at which mpmath keeps 15 guard digits beyond the digits printed,
and prints them as mpmath.nstr does. No module of the package imports mpmath.
`_binary` is imported by the functions that use it. constants_report runs the
B1 sieves first, and verify's series take their constant after the table's
sums, so a CLI process holds that module's compiled code or those blocks,
not both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotCoprimeError


def _double(form, *args) -> float:
    """`form(BINARY53, *args)`: each step rounds as the same float operation
    would where its result is a normal double, and as mpmath at 53 bits."""
    from ._binary import BINARY53  # local: see the module docstring

    return float(form(BINARY53, *args))


def _totient_at(p, pk):
    return pk - pk // p


# Half the sieve's default block. The B1 sieve at Q = 10^6 is the peak of the
# `constants` step: 2^14 blocks peak 1.0 MiB below 2^15 at the same speed, and
# 1.2 MiB below at Q = 10^7; 2^13 is 0.5 MiB lower there but 0.2 s slower.
_B1_BLOCK = 1 << 14


def _b1_blocks(Q: int, weigh):
    """Blocks of the float64 B1 terms weigh(phi(q)) / q^3 for q = 1..Q, one
    block of the totient sieve at a time; weigh(terms, lo) scales the block
    that starts at q = lo in place."""
    from ._sieve import multiplicative_blocks  # local: verify-* load this module for C3 and W_N alone

    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    blocks = multiplicative_blocks(Q, np.int32, _totient_at, _B1_BLOCK)
    return (_over_cubes(phi, lo, weigh) for lo, phi in blocks)


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
    from ._sieve import fsum_blocks  # local: verify-* load this module for C3 and W_N alone

    return fsum_blocks(_b1_blocks(Q, weigh))


def b1_direct(Q: int) -> float:
    """Partial sum of B1 over q <= Q using the closed magnitude law
    (_magnitude_law): the exact sum of the float64 terms
    phi(q) |S(q,.)|^6 / q^6, rounded once, as the sieve yields its blocks."""
    return _b1_sum(Q, _magnitude_law)


def b1_euler(Q: int) -> float:
    """Partial sum of B1 in the odd-q Euler form (4/3) phi(q)/q^3: the exact
    sum of the float64 terms, rounded once, as the sieve yields its blocks."""
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
    return _double(_b1)


def mean_square_constant() -> float:
    """C3 = 8 pi^4 / (21 zeta(3)), the x^2 coefficient of sum r_3(n)^2."""
    return _double(_c3)


def w_constant(N: int) -> float:
    """Mean-square constant W_N for sums of N squares:
    1/((N-1)(1-2^{-N})) * pi^N / Gamma(N/2)^2 * zeta(N-1)/zeta(N)."""
    if N < 3:
        raise DomainError(f"w_constant requires N >= 3, got {N}")
    return _double(_w, int(N))


_PHI_S_CAP = 1024  # phi(s) < 4^-s sqrt(pi) is 0.0 as a double from s = 540


def eisenstein_phi(iota: str, s: float) -> float:
    """Scattering entry phi_{infty,iota}(s) for the cusp class "1", "1/2" or "1/4",
    at an integer or half-integer s with 1 < s <= 1024 (3/2 is the one the
    assembly uses), where every Gamma and zeta value it needs is at an integer
    or a half-integer.

    The 1/4 cusp carries 2^{1-4s}/(1-2^{-2s}), the cusps 1 and 1/2 both carry
    2^{-2s}(1-2^{1-2s})/(1-2^{-2s}), times the shared factor
    sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)).
    """
    s = float(s)
    if not (1.0 < s <= _PHI_S_CAP and (2 * s).is_integer()):
        raise DomainError(f"eisenstein_phi requires an integer or half-integer s in (1, {_PHI_S_CAP}], got {s}")
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
    direct, euler = b1_direct(b1_direct_Q), b1_euler(b1_euler_Q)  # before _binary loads
    b1, c3 = b1_closed(), mean_square_constant()
    if not (b1 > 0.0 and c3 > 0.0):
        raise DomainError("constants must be positive")
    if abs(c3 - 2.0 * math.pi**2 * b1) > 1e-12 * c3:
        raise DomainError("c3 and 2 pi^2 B1 disagree")
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

    The forms are evaluated at P = round((digits + 16) log2(10)) bits, the
    precision mpmath works at with 15 guard digits (its dps_to_prec(digits +
    15)), and printed as mpmath.nstr prints them. Truncated sums stay in the
    double-precision report.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    from ._binary import Binary, nstr  # local: see the module docstring

    num = Binary(round((digits + 16) * 3.3219280948873626))
    values = {"b1_closed": _b1(num), "c3": _c3(num), "muller_b": _assembly(num)}
    values.update((f"w_{N}", _w(num, int(N))) for N in w_orders)
    return {key: nstr(value, digits) for key, value in values.items()}
