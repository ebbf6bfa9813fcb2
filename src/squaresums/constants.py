"""Every constant of the verification pipeline, each reachable by at least
two independent routes.

B1 = sum over q of phi(q) |S(q,.)|^6 / q^6 is computed from the magnitude law
(b1_direct), as (4/3) sum over odd q of phi(q)/q^3 (b1_euler), and in closed
form 8 zeta(2)/(7 zeta(3)) (b1_closed). The mean-square constant is
C3 = 8 pi^4 / (21 zeta(3)) = 2 pi^2 B1, which must also equal both the
general-order value w_constant(3) and the spectral-route assembly
muller_assembly() built from Eisenstein scattering entries at s = 3/2.

Each closed form (B1, C3, W_N, phi_{infty,iota}(s) and the spectral assembly)
is written once, as a private mpmath expression. The double-precision
functions evaluate it at 53 bits, where every mpmath operation rounds as an
IEEE double does; constants_extended evaluates the same expressions with
15 guard digits beyond the digits it prints.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .errors import DomainError, NotCoprimeError
from ._util import SIEVE_BLOCK, multiplicative


def _double(form, *args) -> float:
    """`form(*args)` at 53 bits: each step rounds as the same float operation would."""
    with mpmath.workprec(53):
        return float(form(*args))


def totient_sieve(Q: int) -> np.ndarray:
    """phi(1..Q) exactly, as int32 (phi(q) <= q < 2^31); index 0 is an unused zero.

    One walk of `multiplicative` from phi(p^k) = p^k - p^(k-1): the peak holds
    p, rest and phi, 12 B per q, and the result 4.
    """
    return multiplicative(Q, np.int32, lambda p, pk: pk - pk // p)


def _over_cubes(terms: np.ndarray) -> np.ndarray:
    """terms[q - 1] / q^3 for q = 1..Q, in place, one block of q^3 at a time."""
    for lo in range(0, terms.size, SIEVE_BLOCK):
        q3 = np.arange(lo + 1, min(lo + SIEVE_BLOCK, terms.size) + 1, dtype=np.float64)
        q3 **= 3
        terms[lo : lo + q3.size] /= q3
    return terms


def b1_terms_direct(Q: int) -> np.ndarray:
    """Per-q contributions phi(q) |S(q,.)|^6 / q^6 via the magnitude law.

    |S|^6/q^6 is q^{-3} for odd q, 8 q^{-3} for q divisible by 4, 0 otherwise.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    terms = totient_sieve(Q)[1:].astype(np.float64)  # index q - 1
    terms[1::4] = 0.0  # q = 2 mod 4
    terms[3::4] *= 8.0  # q = 0 mod 4
    return _over_cubes(terms)


def b1_direct(Q: int) -> float:
    """Partial sum of B1 over q <= Q using the closed magnitude law."""
    return float(np.sum(b1_terms_direct(Q)))


def b1_terms_euler(Q: int) -> np.ndarray:
    """Per-q contributions of the odd-q Euler form (4/3) phi(q)/q^3."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    terms = totient_sieve(Q)[1:].astype(np.float64)  # index q - 1
    terms *= 4.0 / 3.0
    terms[1::2] = 0.0  # even q
    return _over_cubes(terms)


def b1_euler(Q: int) -> float:
    """Partial sum of B1 in the odd-q Euler form."""
    return float(np.sum(b1_terms_euler(Q)))


# Cusp data used by the spectral assembly: label -> (u, w, width, zero-coefficient).
# The zero coefficients (1, 0, 1) are the stated values the assembly needs;
# cusp_zero_coeff reproduces them at 1/4 and 1/2 but yields 8 at the cusp 1,
# so both numbers are surfaced in the report (see constants_report).
_CUSPS = {
    "1": (1, 1, 4, 1.0),
    "1/2": (1, 2, 1, 0.0),
    "1/4": (1, 4, 1, 1.0),
}


def _b1():
    return 8 * mpmath.zeta(2) / (7 * mpmath.zeta(3))


def _c3():
    return 8 * mpmath.pi**4 / (21 * mpmath.zeta(3))


def _w(N: int):
    """W_N with Gamma(N/2)^2 in exact form: (N/2 - 1)!^2 for even N and
    pi ((2k-1)!!)^2 / 4^k for N = 2k + 1, the integer rounded once before the
    division, as a double holds it."""
    lead = 1 / ((N - 1) * (1 - mpmath.mpf(2) ** -N))
    if N % 2 == 0:
        ratio = mpmath.pi**N / mpmath.mpf(math.factorial(N // 2 - 1)) ** 2
    else:
        k = N // 2
        odd = math.prod(range(1, 2 * k, 2))
        ratio = mpmath.pi ** (N - 1) / mpmath.ldexp(mpmath.mpf(odd * odd), -2 * k)
    return lead * ratio * mpmath.zeta(N - 1) / mpmath.zeta(N)


def _phi(iota: str, s):
    s, two = mpmath.mpf(s), mpmath.mpf(2)
    shared = (
        mpmath.sqrt(mpmath.pi)
        * mpmath.gamma(s - 0.5)
        * mpmath.zeta(2 * s - 1)
        / (mpmath.gamma(s) * mpmath.zeta(2 * s))
    )
    denom = 1 - two ** (-2 * s)
    if iota == "1/4":
        return two ** (1 - 4 * s) / denom * shared
    return two ** (-2 * s) * (1 - two ** (1 - 2 * s)) / denom * shared


def _b_plus():
    return 1 / mpmath.gamma(2)


def _assembly():
    phi_sum = mpmath.fsum(_phi(iota, 1.5) * coeff for iota, (*_, coeff) in _CUSPS.items())
    return (4 * mpmath.pi) ** 2 / 2 * _b_plus() * phi_sum


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
    b1, c3, spectral = b1_closed(), mean_square_constant(), muller_assembly()
    if not (b1 > 0.0 and c3 > 0.0):
        raise DomainError("constants must be positive")
    if abs(c3 - 2.0 * math.pi**2 * b1) > 1e-12 * c3:
        raise DomainError("c3 and 2 pi^2 B1 disagree")
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
        "b1_direct_at_Q": {"value": b1_direct(b1_direct_Q), "Q": b1_direct_Q},
        "b1_euler_at_Q": {"value": b1_euler(b1_euler_Q), "Q": b1_euler_Q},
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
    with mpmath.workdps(digits + 15):
        values = {"b1_closed": _b1(), "c3": _c3(), "muller_b": _assembly()}
        values.update((f"w_{N}", _w(int(N))) for N in w_orders)
        return {key: mpmath.nstr(value, digits) for key, value in values.items()}
