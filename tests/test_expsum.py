"""Exponential sums against naive cmath evaluation and closed-form laws."""

import cmath
import functools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squaresums import expsum
from squaresums.errors import DomainError, NotCoprimeError

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "frozen_constants.json").read_text()
)


def brute_gauss(q: int, a: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * a * h * h / q) for h in range(1, q + 1))


def brute_weyl(alpha: float, N: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * alpha * m * m) for m in range(1, N + 1))


def brute_v(beta: float, x: int) -> complex:
    return 0.5 * sum(
        cmath.exp(2j * cmath.pi * beta * m) / math.sqrt(m) for m in range(1, x + 1)
    )


def weyl_sum_reference(alpha: float, N: int) -> complex:
    """f(alpha) = sum_{m=1..N} e(alpha m^2).

    alpha is taken as the exact dyadic rational num/den the float holds; the
    quadratic phase num*m^2 mod den is advanced by second differences in
    integer arithmetic, one correctly rounded division per term.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    num, den = alpha.as_integer_ratio()
    num %= den
    fracs = np.empty(N, dtype=np.float64)
    p = num % den
    d = 3 * num % den
    two = 2 * num % den
    for i in range(N):
        fracs[i] = p / den
        p = (p + d) % den
        d = (d + two) % den
    z = np.exp((2j * np.pi) * fracs)
    return complex(z.sum())


def v_exact_phase(beta: float, x: int) -> complex:
    """v(beta) with each phase beta*m reduced mod 1 in Python ints and each
    component summed with math.fsum."""
    num, den = float(beta).as_integer_ratio()
    re, im = [], []
    for m in range(1, x + 1):
        theta = 2 * math.pi * (num * m % den / den)
        w = 1 / math.sqrt(m)
        re.append(w * math.cos(theta))
        im.append(w * math.sin(theta))
    return 0.5 * complex(math.fsum(re), math.fsum(im))


def v_sum_unblocked(beta: float, x: int) -> complex:
    """v(beta) as one vector of x exponentials of the folded beta, unreduced."""
    beta -= round(beta)
    w = 1.0 / np.sqrt(np.arange(1, x + 1, dtype=np.float64))
    m = np.arange(1, x + 1, dtype=np.float64)
    return complex(0.5 * (w * np.exp((2j * np.pi * beta) * m)).sum())


@functools.lru_cache(maxsize=2)
def dense_weights(x: int) -> np.ndarray:
    """m^{-1/2} at row i, column j of m = B i + j, B = isqrt(x) + 1, with
    zeros at m = 0 and beyond x."""
    B = math.isqrt(x) + 1
    w = np.zeros((x // B + 1) * B)
    w[1 : x + 1] = 1.0 / np.sqrt(np.arange(1, x + 1, dtype=np.float64))
    return w.reshape(-1, B)


def v_blocked_matrix(beta: float, x: int) -> complex:
    """v(beta) in v_sum's blocks m = B i + j, B = isqrt(x) + 1, without its
    interpolation: row sums over a dense (rows x B) matrix of every weight
    m^{-1/2}, with the phases beta j and beta B i reduced mod 1 in Python ints."""
    beta -= round(beta)
    num, den = abs(beta).as_integer_ratio()
    w = dense_weights(x)
    rows, B = w.shape

    def phases(ks):
        return np.exp(2j * np.pi * np.array([num * k % den / den for k in ks]))

    inner = phases(range(B))
    parts = np.vecdot(w[:, None, :], np.stack((inner.real, inner.imag)))
    outer = phases(range(0, rows * B, B))
    v = complex(0.5 * (outer * (parts[:, 0] + 1j * parts[:, 1])).sum())
    return v.conjugate() if beta < 0 else v


def test_gauss_known_values():
    assert abs(expsum.gauss_sum(1, 1) - 1) < 1e-12
    assert abs(expsum.gauss_sum(2, 1)) < 1e-12
    assert abs(expsum.gauss_sum(3, 1) - 1j * math.sqrt(3)) < 1e-12
    assert abs(expsum.gauss_sum(4, 1) - (2 + 2j)) < 1e-12
    assert abs(expsum.gauss_sum(5, 1) - math.sqrt(5)) < 1e-12
    assert abs(expsum.gauss_sum(6, 1)) < 1e-12
    # a not coprime to q collapses to a scaled smaller sum
    assert abs(expsum.gauss_sum(4, 2)) < 1e-12
    assert abs(expsum.gauss_sum(9, 3) - 3j * math.sqrt(3)) < 1e-12


def test_gauss_matches_naive_sum():
    for q in list(range(1, 30)) + [48, 49, 64, 81, 100]:
        for a in range(1, q + 1):
            assert abs(expsum.gauss_sum(q, a) - brute_gauss(q, a)) < 1e-9, (q, a)


def test_gauss_magnitude_law():
    for q in range(1, 129):
        closed = expsum.gauss_magnitude_closed(q)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                assert abs(abs(expsum.gauss_sum(q, a)) - closed) < 1e-9 * q, (q, a)


def test_gauss_conjugation_and_periodicity():
    for q in (3, 4, 5, 7, 12, 16, 21):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                s = expsum.gauss_sum(q, a)
                assert abs(expsum.gauss_sum(q, q - a) - s.conjugate()) < 1e-12
        assert expsum.gauss_sum(q, 1) == expsum.gauss_sum(q, 1 + q)
        assert expsum.gauss_sum(q, 1) == expsum.gauss_sum(q, 1 - q)


def test_weyl_known_values():
    assert expsum.weyl_sum(0.0, 7) == 7
    assert abs(expsum.weyl_sum(0.5, 3) - (-1)) < 1e-12
    assert abs(expsum.weyl_sum(0.25, 4) - (2 + 2j)) < 1e-12
    assert abs(expsum.weyl_sum(1.0, 100) - 100) < 1e-12


def test_weyl_matches_naive_sum():
    for alpha in (0.3, 0.125, 0.7071067811865476, 1 / 3, 0.9999):
        got = expsum.weyl_sum(alpha, 300)
        want = brute_weyl(alpha, 300)
        assert abs(got - want) < 1e-8, alpha


def test_weyl_trivial_bound_and_symmetry():
    for alpha in np.linspace(0.0, 1.0, 21):
        f = expsum.weyl_sum(float(alpha), 50)
        assert abs(f) <= 50 + 1e-9
    for alpha in (0.3125, 0.046875):
        # alpha + 1 is exact for these dyadics, so the sums match bit for bit
        f = expsum.weyl_sum(alpha, 64)
        assert expsum.weyl_sum(alpha + 1.0, 64) == f
        assert abs(expsum.weyl_sum(-alpha, 64) - f.conjugate()) < 1e-12
    f = expsum.weyl_sum(0.7, 64)
    assert abs(expsum.weyl_sum(-0.7, 64) - f.conjugate()) < 1e-12
    assert abs(expsum.weyl_sum(1.7, 64) - f) < 1e-10


def test_weyl_rational_point_is_scaled_gauss_sum():
    # at alpha = a/q with N a multiple of q, f(a/q) = (N/q) S(q,a)
    for q, a in ((4, 1), (5, 2), (8, 3), (12, 5)):
        f = expsum.weyl_sum(a / q, 10 * q)
        assert abs(f - 10 * expsum.gauss_sum(q, a)) < 1e-9, (q, a)


@settings(max_examples=200)
@given(
    alpha=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-(2.0**-12), max_value=2.0**-12),
    ),
    N=st.integers(1, 3000),
)
@example(alpha=5e-324, N=3000)
@example(alpha=-5e-324, N=3000)
@example(alpha=-(2.0**-13) / 3, N=2999)
@example(alpha=1 / 3, N=3000)
def test_weyl_matches_second_difference_reference_bitwise(alpha, N):
    # |alpha| < 2^-12 with a full mantissa has den > 2^64: the Python-int path
    assert expsum.weyl_sum(alpha, N) == weyl_sum_reference(alpha, N)


def test_v_matches_naive_sum():
    for beta in (0.0, 0.1, -0.35, 0.5):
        got = expsum.v_sum(beta, 200)
        want = brute_v(beta, 200)
        assert abs(got - want) < 1e-10, beta


def test_v_periodicity_and_symmetry():
    v = expsum.v_sum(0.21, 500)
    assert expsum.v_sum(1.21, 500) == pytest.approx(v, abs=1e-12)
    assert expsum.v_sum(-0.21, 500) == v.conjugate()


V_BETAS = sorted(
    set(np.linspace(-0.5, 0.5, 9).tolist())
    | {0.1234567, -1 / 3, 2.5e-7, -2.5e-7, 0.5 - 2.0**-40, 1.21}
)


@pytest.mark.parametrize("x", [1, 2, 3, 4, 5, 960, 961, 962, 2 * 10**4])
def test_v_matches_exact_phase_oracle(x):
    # x = k^2 - 1, k^2, k^2 + 1 (k = 2, 31) move the block width and the
    # length of the directly summed last row across each edge
    for beta in V_BETAS:
        got = expsum.v_sum(beta, x)
        want = v_exact_phase(beta, x)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-12, (x, beta, got, want)


@settings(max_examples=150)
@given(
    beta=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-(2.0**-12), max_value=2.0**-12),
    ),
    x=st.integers(1, 3000),
)
@example(beta=0.1234567, x=53**2 - 1)
@example(beta=-1 / 3, x=53**2)
@example(beta=2.5e-7, x=53**2 + 1)
@example(beta=0.5 - 2.0**-40, x=15)
@example(beta=0.0, x=16)
@example(beta=-(2.0**-13) / 3, x=17)
def test_v_matches_exact_phase_oracle_everywhere(beta, x):
    # the examples put x at k^2 - 1, k^2 and k^2 + 1, where the block width
    # steps and the directly summed last row is full, two or three long
    got = expsum.v_sum(beta, x)
    want = v_exact_phase(beta, x)
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-12, (got, want)


def test_v_matches_blocked_matrix_oracle():
    x = 2 * 10**5
    for beta in V_BETAS:
        got = expsum.v_sum(beta, x)
        want = v_blocked_matrix(beta, x)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-12, (beta, got, want)


def test_v_matches_blocked_matrix_oracle_on_major_arc_offsets():
    # every positive offset of the frozen major-arc grid (the negative ones
    # are conjugates under both evaluations)
    cfg = FROZEN["major_arc"]
    N, x = cfg["n_terms"], cfg["x"]
    grid = np.linspace(-1.0, 1.0, cfg["betas_per_pair"])
    for beta in [g / (4 * q * N) for q in range(1, cfg["q_max"] + 1) for g in grid if g > 0]:
        got = expsum.v_sum(float(beta), x)
        want = v_blocked_matrix(float(beta), x)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-12, (beta, got, want)


@pytest.mark.parametrize("x", [1, 2, 13, 14, 15, 960, 961, 10**6])
def test_row_kernels_reproduce_the_weights(x):
    # x = 13, 14 and 961 put two or three weights on the last row, 15 and 960 fill it
    P, C = expsum._row_kernels(x)
    weights = dense_weights(x)
    (rows, B), K = weights.shape, expsum._CHEB_TERMS
    assert P.shape == (K + 2, B) and C.shape == (max(rows - 2, 0), K)
    assert (P[K] == weights[0]).all() and (P[K + 1] == weights[-1]).all()
    full = np.vecdot(C[:, None, :], P[:K].T[None, :, :])  # row i of the interpolants at every j
    # 5e-16 is the rounding of long double coefficients; a double long double rounds 10 times worse
    tol = 1e-15 if np.finfo(np.longdouble).nmant > 52 else 1e-14
    assert (abs(full - weights[1:-1]) <= tol * weights[1:-1]).all()


def test_cold_v_sum_allocates_a_fraction_of_the_weights():
    # the dense weights at 10^6 would take 8 MB; the kernels take 0.4 MB
    expsum._row_kernels.cache_clear()
    tracemalloc.start()
    try:
        expsum.v_sum(2.5e-7, 10**6)  # the Python-int phases: den > 2^64
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak / 2**20


def test_v_matches_unblocked_formula_on_major_arc_offsets():
    # the positive offsets of the frozen major-arc grid at its smallest and
    # largest q (the negative ones are conjugates under both formulas); the
    # unblocked formula takes x exponentials per call, so not every q
    cfg = FROZEN["major_arc"]
    N, x = cfg["n_terms"], cfg["x"]
    grid = np.linspace(-1.0, 1.0, cfg["betas_per_pair"])
    for beta in [g / (4 * q * N) for q in (1, cfg["q_max"]) for g in grid if g > 0]:
        got = expsum.v_sum(float(beta), x)
        want = v_sum_unblocked(float(beta), x)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-12, (beta, got, want)


def test_f_star_composition():
    got = expsum.f_star(0.25 + 1e-4, 4, 1, 100)
    want = expsum.gauss_sum(4, 1) / 4 * expsum.v_sum(1e-4, 100)
    assert abs(got - want) < 1e-9


def test_f_star_rejects_shared_factor():
    with pytest.raises(NotCoprimeError):
        expsum.f_star(0.5, 4, 2, 10)


def test_domain_errors():
    with pytest.raises(DomainError):
        expsum.gauss_sum(0, 1)
    with pytest.raises(DomainError):
        expsum.weyl_sum(math.inf, 5)
    with pytest.raises(DomainError):
        expsum.weyl_sum(0.5, 0)
    with pytest.raises(DomainError):
        expsum.v_sum(math.nan, 5)
    with pytest.raises(DomainError):
        expsum.v_sum(0.5, 0)
    with pytest.raises(DomainError):
        expsum.f_star(0.5, 0, 1, 10)


def test_major_arc_approximation_stays_below_frozen_threshold():
    """Over every rational point a/q with q <= q_max and a band of nearby
    offsets, the approximant S(q,a)/q v(beta) tracks the Weyl sum to within
    the frozen multiple of sqrt(q).

    The approximant is evaluated as S(q,a)/q times a v(beta) shared across a
    for each (q, beta); test_f_star_composition pins f_star itself to that
    product, so the shared form is the same quantity.
    """
    cfg = FROZEN["major_arc"]
    N = cfg["n_terms"]
    x = cfg["x"]
    worst = 0.0
    for q in range(1, cfg["q_max"] + 1):
        coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        scaled = {a: expsum.gauss_sum(q, a) / q for a in coprime}
        betas = np.linspace(-1.0, 1.0, cfg["betas_per_pair"]) / (4 * q * N)
        for beta in betas:
            v = expsum.v_sum(float(beta), x)
            for a in coprime:
                f = expsum.weyl_sum(a / q + float(beta), N)
                worst = max(worst, abs(f - scaled[a] * v) / math.sqrt(q))
    assert worst < cfg["threshold"], worst
    # regression guard: the freeze-run measurement should not silently double
    assert worst <= 2 * cfg["observed_max"], worst
