"""Every constant of the verification pipeline, each reachable by at least
two independent routes.

B1 = sum over q of phi(q) |S(q,.)|^6 / q^6 is computed from the magnitude law
(b1_direct), as (4/3) sum over odd q of phi(q)/q^3 (b1_euler), and in closed
form 8 zeta(2)/(7 zeta(3)) (b1_closed). The mean-square constant is
C3 = 8 pi^4 / (21 zeta(3)) = 2 pi^2 B1, which must also equal both the
general-order value w_constant(3) and the spectral-route assembly
muller_assembly() built from Eisenstein scattering entries at s = 3/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DomainError, NotCoprimeError
from .expsum import gauss_sum
from ._util import assemble_multiplicative, factor_sieve

_BERNOULLI_2J = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)


def zeta_real(s: float, precision_terms: int = 64) -> float:
    """Riemann zeta for real s > 1: direct series plus Euler-Maclaurin tail.

    With the default 64 leading terms and 8 tail corrections the truncation
    error is far below double rounding for s >= 2.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"zeta_real requires s > 1, got {s}")
    if precision_terms < 2:
        raise DomainError("precision_terms must be >= 2")
    M = precision_terms
    parts = [k**-s for k in range(1, M + 1)]
    parts.append(M ** (1.0 - s) / (s - 1.0))
    parts.append(-0.5 * M**-s)
    poch = s
    for j, b in enumerate(_BERNOULLI_2J, start=1):
        parts.append(float(b) / math.factorial(2 * j) * poch * M ** (-s - 2 * j + 1))
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(parts)


def totient_sieve(Q: int) -> np.ndarray:
    """phi(1..Q) exactly; index 0 is an unused zero."""
    p, rest = factor_sieve(Q)
    phi = np.arange(Q + 1, dtype=np.int64)
    phi[1:] //= rest[1:]  # the prime power p^k exactly dividing q
    phi[2:] -= phi[2:] // p[2:]  # phi(p^k) = p^k - p^(k-1)
    return assemble_multiplicative(phi, rest)


def b1_terms_direct(Q: int) -> np.ndarray:
    """Per-q contributions phi(q) |S(q,.)|^6 / q^6 via the magnitude law.

    |S|^6/q^6 is q^{-3} for odd q, 8 q^{-3} for q divisible by 4, 0 otherwise.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    phi = totient_sieve(Q)[1:].astype(np.float64)
    q = np.arange(1, Q + 1)
    weight = np.where(q % 2 == 1, 1.0, np.where(q % 4 == 0, 8.0, 0.0))
    return phi * weight / q.astype(np.float64) ** 3


def b1_direct(Q: int) -> float:
    """Partial sum of B1 over q <= Q using the closed magnitude law."""
    return float(np.sum(b1_terms_direct(Q)))


def b1_terms_euler(Q: int) -> np.ndarray:
    """Per-q contributions of the odd-q Euler form (4/3) phi(q)/q^3."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    phi = totient_sieve(Q)[1:].astype(np.float64)
    q = np.arange(1, Q + 1)
    weight = np.where(q % 2 == 1, 4.0 / 3.0, 0.0)
    return phi * weight / q.astype(np.float64) ** 3


def b1_euler(Q: int) -> float:
    """Partial sum of B1 in the odd-q Euler form."""
    return float(np.sum(b1_terms_euler(Q)))


def b1_closed() -> float:
    """B1 in closed form: 8 zeta(2) / (7 zeta(3))."""
    return 8.0 * zeta_real(2.0) / (7.0 * zeta_real(3.0))


def mean_square_constant() -> float:
    """C3 = 8 pi^4 / (21 zeta(3)), the x^2 coefficient of sum r_3(n)^2."""
    return 8.0 * math.pi**4 / (21.0 * zeta_real(3.0))


def _pi_pow_over_gamma_sq(N: int) -> float:
    """pi^N / Gamma(N/2)^2 with the Gamma factor exact at (half-)integers."""
    if N % 2 == 0:
        return math.pi**N / float(math.factorial(N // 2 - 1)) ** 2
    k = (N - 1) // 2
    # Gamma(N/2) = sqrt(pi) * (2k)! / (4^k k!)
    rat = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return math.pi ** (N - 1) / float(rat * rat)


def w_constant(N: int) -> float:
    """Mean-square constant for sums of N squares:
    1/((N-1)(1-2^{-N})) * pi^N / Gamma(N/2)^2 * zeta(N-1)/zeta(N)."""
    if N < 3:
        raise DomainError(f"w_constant requires N >= 3, got {N}")
    lead = 1.0 / ((N - 1) * (1.0 - 2.0**-N))
    return lead * _pi_pow_over_gamma_sq(N) * zeta_real(N - 1.0) / zeta_real(float(N))


_CUSP_ALIASES = {
    "1": "1",
    "1/2": "1/2",
    "1/4": "1/4",
    1: "1",
    1.0: "1",
    0.5: "1/2",
    0.25: "1/4",
}


def _cusp_label(iota) -> str:
    try:
        return _CUSP_ALIASES[iota]
    except (KeyError, TypeError):
        raise DomainError(f"unknown cusp label {iota!r}; use 1, 1/2 or 1/4") from None


def eisenstein_phi(iota, s: float) -> float:
    """Scattering entries phi_{infty,iota}(s) for the three cusp classes.

    General-s closed forms, sharing the factor
    sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)):
    the 1/4 cusp carries 2^{1-4s}/(1-2^{-2s}), the cusps 1 and 1/2 both carry
    2^{-2s}(1-2^{1-2s})/(1-2^{-2s}).
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"eisenstein_phi requires s > 1, got {s}")
    label = _cusp_label(iota)
    shared = (
        math.sqrt(math.pi)
        * math.gamma(s - 0.5)
        * zeta_real(2.0 * s - 1.0)
        / (math.gamma(s) * zeta_real(2.0 * s))
    )
    denom = 1.0 - 2.0 ** (-2.0 * s)
    if label == "1/4":
        factor = 2.0 ** (1.0 - 4.0 * s) / denom
    else:
        factor = 2.0 ** (-2.0 * s) * (1.0 - 2.0 ** (1.0 - 2.0 * s)) / denom
    return factor * shared


def cusp_zero_coeff(u: int, w: int, width: int) -> float:
    """Zero-coefficient weight width^3 * 2^{-3} w^{-3} |S(w, u)|^6 for cusp u/w."""
    if w < 1:
        raise DomainError(f"w must be >= 1, got {w}")
    if width < 1:
        raise DomainError(f"width must be >= 1, got {width}")
    if math.gcd(u, w) != 1:
        raise NotCoprimeError(f"gcd({u}, {w}) != 1")
    mag = abs(gauss_sum(w, u))
    return float(width) ** 3 * mag**6 / (8.0 * float(w) ** 3)


# Cusp data used by the spectral assembly: (u, w, width, zero-coefficient).
# The zero coefficients (1, 0, 1) are the stated values the assembly needs;
# cusp_zero_coeff reproduces them at 1/4 and 1/2 but yields 8 at the cusp 1,
# so both numbers are surfaced in the report (see assembly_components).
_CUSPS = {
    "1": (1, 1, 4, 1.0),
    "12": (1, 2, 1, 0.0),
    "14": (1, 4, 1, 1.0),
}


def muller_assembly() -> float:
    """Mean-square constant assembled through the spectral route:
    (4 pi)^2 / 2 * b_plus * sum over cusps of phi_{infty,iota}(3/2) |a_{iota,0}|^2
    with b_plus = 1/Gamma(2) = 1."""
    b_plus = 1.0 / math.gamma(2.0)
    labels = {"1": "1", "12": "1/2", "14": "1/4"}
    phi_sum = math.fsum(
        eisenstein_phi(labels[key], 1.5) * coeff
        for key, (_, _, _, coeff) in _CUSPS.items()
    )
    return (4.0 * math.pi) ** 2 / 2.0 * b_plus * phi_sum


@dataclass(frozen=True)
class ConstantsReport:
    """All computed constants with the truncation levels that produced them."""

    b1_direct_at_Q: float
    b1_direct_Q: int
    b1_euler_at_Q: float
    b1_euler_Q: int
    b1_closed: float
    c3: float
    w_values: dict[int, float]
    muller_b: float
    assembly_components: dict[str, float]

    def __post_init__(self):
        if not (self.b1_closed > 0.0 and self.c3 > 0.0):
            raise DomainError("constants must be positive")
        if abs(self.c3 - 2.0 * math.pi**2 * self.b1_closed) > 1e-12 * self.c3:
            raise DomainError("c3 and 2 pi^2 B1 disagree")
        if abs(self.muller_b - self.c3) > 1e-10:
            raise DomainError("spectral-route constant disagrees with c3")


def constants_report(
    b1_direct_Q: int = 4096,
    b1_euler_Q: int = 10**6,
    w_orders=(3, 4, 5, 6),
) -> ConstantsReport:
    components: dict[str, float] = {
        "phi_1": eisenstein_phi("1", 1.5),
        "phi_12": eisenstein_phi("1/2", 1.5),
        "phi_14": eisenstein_phi("1/4", 1.5),
        "b_plus": 1.0 / math.gamma(2.0),
    }
    for key, (u, w, width, stated) in _CUSPS.items():
        components[f"a0_sq_{key}"] = stated
        components[f"a0_sq_{key}_formula"] = cusp_zero_coeff(u, w, width)
        components[f"width_{key}"] = float(width)
    return ConstantsReport(
        b1_direct_at_Q=b1_direct(b1_direct_Q),
        b1_direct_Q=b1_direct_Q,
        b1_euler_at_Q=b1_euler(b1_euler_Q),
        b1_euler_Q=b1_euler_Q,
        b1_closed=b1_closed(),
        c3=mean_square_constant(),
        w_values={int(N): w_constant(int(N)) for N in w_orders},
        muller_b=muller_assembly(),
        assembly_components=components,
    )


def constants_extended(digits: int = 30, w_orders=(3, 4, 5, 6)) -> dict[str, str]:
    """Closed-form constants to `digits` significant digits via mpmath.

    Covers only the constants with closed forms; truncated sums stay in the
    double-precision report.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    out: dict[str, str] = {}
    with mpmath.workdps(digits + 15):
        z2, z3 = mpmath.zeta(2), mpmath.zeta(3)
        b1 = 8 * z2 / (7 * z3)
        c3 = 8 * mpmath.pi**4 / (21 * z3)
        out["b1_closed"] = mpmath.nstr(b1, digits)
        out["c3"] = mpmath.nstr(c3, digits)
        shared = (
            mpmath.sqrt(mpmath.pi)
            * mpmath.gamma(1)
            * z2
            / (mpmath.gamma(mpmath.mpf(3) / 2) * z3)
        )
        denom = 1 - mpmath.mpf(2) ** -3
        phi_1 = 2**-3 * (1 - 2**-2) / denom * shared
        phi_14 = 2**-5 / denom * shared
        out["muller_b"] = mpmath.nstr((4 * mpmath.pi) ** 2 / 2 * (phi_1 + phi_14), digits)
        for N in w_orders:
            N = int(N)
            w = (
                1
                / ((N - 1) * (1 - mpmath.mpf(2) ** -N))
                * mpmath.pi**N
                / mpmath.gamma(mpmath.mpf(N) / 2) ** 2
                * mpmath.zeta(N - 1)
                / mpmath.zeta(N)
            )
            out[f"w_{N}"] = mpmath.nstr(w, digits)
    return out
