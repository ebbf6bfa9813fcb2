"""Constant evaluations against independent high-precision references."""

import math

import mpmath
import numpy as np
import pytest

from oracles import sieve_oracle
from squaresums import constants
from squaresums._util import factor_sieve, multiplicative
from squaresums.errors import DomainError, NotCoprimeError
from squaresums.expsum import gauss_sum

ZETA_3 = 1.2020569031595942854
B1_REFERENCE = 1.5639231744230924294     # 8 zeta(2) / (7 zeta(3))
C3_REFERENCE = 30.870606090503587384     # 8 pi^4 / (21 zeta(3))


def zeta(s: float) -> float:
    """Riemann zeta at 53 bits, by the route every double closed form takes."""
    return constants._double(mpmath.zeta, s)


def b1_direct_via_sums(Q: int) -> float:
    """Partial sum of B1 with every |S(q,a)| evaluated as an actual sum.

    Cross-check path for the magnitude law; O(q^2) per q, keep Q modest.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    totals = []
    for q in range(1, Q + 1):
        s = 0.0
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                s += abs(gauss_sum(q, a)) ** 6
        totals.append(s / float(q) ** 6)
    return math.fsum(totals)


def test_zeta_matches_classical_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-14)
    assert zeta(3.0) == pytest.approx(ZETA_3, abs=1e-14)


def test_zeta_matches_mpmath_off_integers():
    # the reference is computed at 50 digits, then rounded once to a double
    for s in (1.5, 2.5, 3.25, 5.0, 7.75, 11.0):
        with mpmath.workdps(50):
            want = float(mpmath.zeta(s))
        assert zeta(s) == pytest.approx(want, rel=1e-15), s


def test_totient_sieve_matches_gcd_count():
    # Q just below, at and above a prime square moves the last sieving prime
    for Q in (1, 2, 3, 4, 5, 8, 9, 10, 120, 121, 122, 200, 361):
        phi = constants.totient_sieve(Q)
        assert phi.shape == (Q + 1,) and phi[0] == 0
        for n in range(1, Q + 1):
            want = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert phi[n] == want, (Q, n)
    with pytest.raises(DomainError):
        constants.totient_sieve(0)


def test_sieves_match_the_oracle_across_block_edges():
    """Q at the sieve's 2^16-entry block and at twice it, +-3 each: p, rest and
    phi equal the oracle's entry for entry, all as int32."""
    edges = [Q for edge in (2**16, 2**17) for Q in range(edge - 3, edge + 4)]
    spf, rest, phi = sieve_oracle(edges[-1])
    for Q in edges:
        p, r = factor_sieve(Q)
        assert p.dtype == r.dtype == np.int32
        assert p.tolist() == spf[: Q + 1] and r.tolist() == rest[: Q + 1], Q
        totients = constants.totient_sieve(Q)
        assert totients.dtype == np.int32 and totients.tolist() == phi[: Q + 1], Q


def _primes_to(Q: int) -> list[int]:
    sieve = np.ones(Q + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(Q) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return np.flatnonzero(sieve).tolist()


_MULTIPLICATIVE_QS = (1, 2, 2**16 - 3, 2**16 + 3, 2**17 - 3, 2**17 + 3)


def test_multiplicative_builds_the_divisor_count_and_moebius():
    """d(p^k) = k + 1 and mu(p^k) = -1 if k = 1 else 0, against a divisor-count
    sieve and a Moebius sieve over the primes, across the block edges."""
    top = _MULTIPLICATIVE_QS[-1]
    divisors = np.zeros(top + 1, dtype=np.int32)
    for d in range(1, top + 1):
        divisors[d::d] += 1
    moebius = np.ones(top + 1, dtype=np.int32)
    moebius[0] = 0
    for p in _primes_to(top):
        moebius[p::p] *= -1
        moebius[p * p :: p * p] = 0

    def exponent(p, pk):
        return np.array([next(k for k in range(1, 32) if a**k == b)
                         for a, b in zip(p.tolist(), pk.tolist())], dtype=np.int32)

    for Q in _MULTIPLICATIVE_QS:
        d = multiplicative(Q, np.int32, lambda p, pk: exponent(p, pk) + 1)
        mu = multiplicative(Q, np.int32, lambda p, pk: np.where(pk == p, -1, 0))
        assert d.dtype == mu.dtype == np.int32
        assert d[0] == mu[0] == 0 and d[1] == mu[1] == 1
        assert d[1:].tolist() == divisors[1 : Q + 1].tolist(), Q
        assert mu[1:].tolist() == moebius[1 : Q + 1].tolist(), Q


def test_multiplicative_asks_for_each_prime_power_once():
    for Q in _MULTIPLICATIVE_QS:
        seen = []

        def record(p, pk):
            assert p.dtype == pk.dtype == np.int32 and p.shape == pk.shape
            seen.extend(zip(p.tolist(), pk.tolist()))
            return np.zeros(p.size, dtype=np.int32)

        multiplicative(Q, np.int32, record)
        want = []
        for p in _primes_to(Q):
            pk = p
            while pk <= Q:
                want.append((p, pk))
                pk *= p
        assert sorted(seen) == want, Q


def test_b1_small_truncations_by_hand():
    # q = 1 and q = 3 contribute phi(q)/q^3; q = 4 contributes 8 phi(4)/4^3
    assert constants.b1_direct(4) == pytest.approx(1 + 2 / 27 + 1 / 4, abs=1e-15)
    assert constants.b1_direct(5) == pytest.approx(
        1 + 2 / 27 + 1 / 4 + 4 / 125, abs=1e-15
    )
    # odd-q route carries the (4/3) prefactor
    assert constants.b1_euler(3) == pytest.approx((4 / 3) * (1 + 2 / 27), abs=1e-15)
    assert constants.b1_euler(4) == constants.b1_euler(3)


def test_b1_routes_converge_to_closed_form():
    closed = constants.b1_closed()
    assert closed == pytest.approx(B1_REFERENCE, abs=1e-13)
    assert abs(constants.b1_direct(4096) - closed) <= 5e-4
    assert abs(constants.b1_euler(10**5) - closed) <= 1e-4


def test_b1_magnitude_law_route_matches_literal_gauss_sums():
    assert b1_direct_via_sums(64) == pytest.approx(
        constants.b1_direct(64), abs=1e-9
    )


def test_b1_partial_sums_nondecreasing():
    for terms in (constants.b1_terms_direct(600), constants.b1_terms_euler(600)):
        assert (terms >= 0).all()


def test_mean_square_constant_identities():
    c3 = constants.mean_square_constant()
    assert c3 == pytest.approx(C3_REFERENCE, abs=1e-12)
    assert abs(c3 - 2 * math.pi**2 * constants.b1_closed()) < 1e-12 * c3
    assert abs(c3 - constants.w_constant(3)) < 1e-10
    assert abs(c3 - constants.muller_assembly()) < 1e-10


def test_w_constant_values():
    assert abs(constants.w_constant(4) - 32 * zeta(3.0)) < 1e-10
    want5 = (
        1.0
        / (4 * (1 - 2.0**-5))
        * math.pi**5
        / math.gamma(2.5) ** 2
        * zeta(4.0)
        / zeta(5.0)
    )
    assert constants.w_constant(5) == pytest.approx(want5, rel=1e-13)
    for N in range(3, 12):
        direct = (
            1.0
            / ((N - 1) * (1 - 2.0**-N))
            * math.pi**N
            / math.gamma(N / 2) ** 2
            * zeta(N - 1.0)
            / zeta(float(N))
        )
        assert constants.w_constant(N) == pytest.approx(direct, rel=1e-12), N
    with pytest.raises(DomainError):
        constants.w_constant(2)


def test_eisenstein_phi_special_values():
    z2z3 = zeta(2.0) / zeta(3.0)
    assert constants.eisenstein_phi("1/4", 1.5) == pytest.approx(
        z2z3 / 14, rel=1e-13
    )
    assert constants.eisenstein_phi("1", 1.5) == pytest.approx(
        3 * z2z3 / 14, rel=1e-13
    )
    assert constants.eisenstein_phi("1/2", 1.5) == constants.eisenstein_phi("1", 1.5)
    for label in ("1/3", 0.25, [1]):
        with pytest.raises(DomainError):
            constants.eisenstein_phi(label, 1.5)
    with pytest.raises(DomainError):
        constants.eisenstein_phi("1", 1.0)


def test_cusp_zero_coeff_values():
    assert constants.cusp_zero_coeff(1, 4, 1) == pytest.approx(1.0, abs=1e-12)
    assert constants.cusp_zero_coeff(1, 2, 1) == pytest.approx(0.0, abs=1e-12)
    # the formula read literally at cusp 1 with width 4 gives 8, not 1;
    # the assembly uses the stated coefficient and reports both
    assert constants.cusp_zero_coeff(1, 1, 4) == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(NotCoprimeError):
        constants.cusp_zero_coeff(2, 4, 1)
    with pytest.raises(DomainError):
        constants.cusp_zero_coeff(1, 0, 1)
    with pytest.raises(DomainError):
        constants.cusp_zero_coeff(1, 4, 0)


def test_muller_assembly_value():
    got = constants.muller_assembly()
    assert got == pytest.approx(C3_REFERENCE, abs=1e-4)
    assert abs(got - constants.mean_square_constant()) < 1e-10


def test_constants_report_contents():
    report = constants.constants_report(
        b1_direct_Q=256, b1_euler_Q=1001, w_orders=(3, 4)
    )
    assert report["b1_direct_at_Q"]["Q"] == 256
    assert report["b1_euler_at_Q"]["Q"] == 1001
    assert report["b1_direct_at_Q"]["value"] == pytest.approx(constants.b1_direct(256))
    assert report["b1_euler_at_Q"]["value"] == pytest.approx(constants.b1_euler(1001))
    assert set(report["w_values"]) == {"3", "4"}
    assert report["w_values"]["3"] == pytest.approx(report["c3"], abs=1e-10)
    comps = report["assembly_components"]
    assert comps["b_plus"] == 1.0
    assert comps["a0_sq_1"] == 1.0
    assert comps["a0_sq_12"] == 0.0
    assert comps["a0_sq_14"] == 1.0
    assert comps["a0_sq_1_formula"] == pytest.approx(8.0, abs=1e-12)
    assert comps["a0_sq_14_formula"] == pytest.approx(1.0, abs=1e-12)
    assert comps["width_1"] == 4.0
    assert comps["width_12"] == comps["width_14"] == 1.0


@pytest.mark.parametrize(
    "form,message", [("_c3", "B1 disagree"), ("_assembly", "spectral-route")]
)
def test_constants_report_rejects_inconsistency(monkeypatch, form, message):
    constants.constants_report(b1_direct_Q=64, b1_euler_Q=64, w_orders=(3,))
    original = getattr(constants, form)
    monkeypatch.setattr(constants, form, lambda: original() * 1.5)
    with pytest.raises(DomainError, match=message):
        constants.constants_report(b1_direct_Q=64, b1_euler_Q=64, w_orders=(3,))


def test_extended_precision_strings():
    out = constants.constants_extended(digits=25, w_orders=(3, 4))
    assert float(out["b1_closed"]) == pytest.approx(B1_REFERENCE, rel=1e-14)
    assert float(out["c3"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["muller_b"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["w_3"]) == pytest.approx(C3_REFERENCE, rel=1e-14)
    assert float(out["w_4"]) == pytest.approx(32 * ZETA_3, rel=1e-14)
    # enough digits that the double value is a strict prefix rounding
    assert len(out["c3"].replace(".", "").lstrip("0")) >= 24
    with pytest.raises(DomainError):
        constants.constants_extended(digits=0)
