"""Acceptance suite: the thirteen headline checks at their stated sizes.

Each test evaluates one criterion at full scale, records a single
`ACCEPT nn PASS/FAIL ...` line (echoed in the terminal summary), and then
asserts. Unit-level coverage of the same operations at small sizes lives in
the per-module test files; this file is the scoreboard.
"""

import math

import mpmath
import numpy as np
import pytest

from squaresums import cli, constants, expsum, repcount, singular, verify

from oracles import a_profile, concatenated, is_representable, r3_class_number_oracle, rstar_counts

REPORT_LINES = []


def record(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPT {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def r3_million():
    return repcount.build_r3_fold(10**6)


@pytest.fixture(scope="module")
def r3_10k_fold():
    return repcount.build_r3_fold(10**4)


@pytest.fixture(scope="module")
def terms_10k():
    return {n: concatenated(singular.series_blocks(n, 10**4)) for n in (1, 2, 3, 5, 6, 7, 15)}


def test_01_cross_builder_exactness(r3_10k_fold):
    x = 10**4
    conv = repcount.build_rk(x, 3)
    table_mismatch = int(np.count_nonzero(conv.counts != r3_10k_fold.counts))
    samples = range(20, x + 1, 20)
    point_mismatch = sum(
        1 for n in samples if repcount.r3_point(n) != r3_10k_fold.counts[n]
    )
    # the builders share the square-shift kernel; the class-number oracle shares nothing
    big = 10**5
    oracle = r3_class_number_oracle(big)
    oracle_mismatch = sum(
        int(np.count_nonzero(build(big).counts != oracle))
        for build in (repcount.build_r3_fold, lambda y: repcount.build_rk(y, 3))
    )
    ok = table_mismatch == 0 and point_mismatch == 0 and oracle_mismatch == 0
    record(
        1,
        ok,
        f"cross-builder exactness at x={x}: table mismatches {table_mismatch}, "
        f"point-sample mismatches {point_mismatch} of {len(samples)}; "
        f"fold and convolution against 12H(4n) - 24H(n) at x={big}: "
        f"{oracle_mismatch} mismatches of {2 * (big + 1)}",
    )


def test_02_gauss_criterion(r3_million):
    x = 10**5
    counts = r3_million.counts
    mism = sum(
        1
        for n in range(1, x + 1)
        if (counts[n] > 0) != is_representable(n)
    )
    record(2, mism == 0, f"three-square criterion for n <= {x}: {mism} mismatches")


def test_03_zero_classification_identity(r3_10k_fold):
    x = 10**4
    rs = rstar_counts(x)
    r2 = repcount.build_rk(x, 2).counts
    r1 = repcount.build_r1(x).counts
    rhs = 8 * rs + 3 * r2 - 3 * r1
    mism = int(np.count_nonzero(r3_10k_fold.counts[1:] != rhs[1:]))
    record(
        3,
        mism == 0,
        f"r3 = 8 r* + 3 r2 - 3 r1 for 1 <= n <= {x}: {mism} mismatches",
    )


def test_04_gauss_magnitude_law():
    worst = 0.0
    for q in range(1, 513):
        closed = expsum.gauss_magnitude_closed(q)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                dev = abs(abs(expsum.gauss_sum(q, a)) - closed) / q
                worst = max(worst, dev)
    record(
        4,
        worst <= 1e-9,
        f"Gauss-sum magnitude law q <= 512: worst |dev|/q = {worst:.3e} "
        f"(tolerance 1e-9)",
    )


def test_05_singular_term_multiplicativity():
    # the program's terms against products of the defining sums' profiles
    profiles = [None] + [a_profile(q) for q in range(1, 61)]
    worst = 0.0
    for n in range(1, 51):
        terms = concatenated(singular.series_blocks(n, 3600))
        for q1 in range(1, 61):
            for q2 in range(q1, 61):
                if math.gcd(q1, q2) != 1:
                    continue
                want = profiles[q1][n % q1] * profiles[q2][n % q2]
                worst = max(worst, abs(terms[q1 * q2 - 1] - want))
    record(
        5,
        worst <= 1e-9,
        f"A(q1 q2, n) = A(q1, n) A(q2, n), coprime q1,q2 <= 60, n <= 50: "
        f"series_blocks against the defining sums, worst dev {worst:.3e} "
        f"(tolerance 1e-9)",
    )


def test_06_b1_routes():
    closed = constants.b1_closed()
    direct_err = abs(constants.b1_direct(4096) - closed)
    euler_err = abs(constants.b1_euler(10**6) - closed)
    nonneg = bool(
        (concatenated(constants._b1_blocks(4096, constants._magnitude_law)) >= 0).all()
        and (concatenated(constants._b1_blocks(10**6, constants._euler_weight)) >= 0).all()
    )
    ok = direct_err <= 5e-4 and euler_err <= 1e-5 and nonneg
    record(
        6,
        ok,
        f"B1 routes: |direct(4096)-closed| = {direct_err:.3e} (<= 5e-4), "
        f"|euler(1e6)-closed| = {euler_err:.3e} (<= 1e-5), "
        f"terms nonnegative = {nonneg}",
    )


def test_07_constant_identity_triangle():
    c3 = constants.mean_square_constant()
    vals = {
        "2pi^2 B1": 2 * math.pi**2 * constants.b1_closed(),
        "spectral": constants.muller_assembly(),
        "w(3)": constants.w_constant(3),
    }
    worst = max(abs(c3 - v) for v in vals.values())
    value_err = abs(c3 - 30.8706)
    ok = worst <= 1e-10 and value_err <= 1e-4
    record(
        7,
        ok,
        f"constant triangle: c3 = {c3:.10f}, worst pairwise dev {worst:.3e} "
        f"(<= 1e-10), |c3 - 30.8706| = {value_err:.3e} (<= 1e-4)",
    )


def test_08_mean_value(r3_million):
    cps = verify.mean_value_series(r3_million, [10**4, 10**6])
    scaled = cps[1].abs_err / 10**9  # abs err over x^{3/2} at x = 10^6
    decays = cps[1].rel_err < cps[0].rel_err
    ok = scaled <= 1e-2 and decays
    record(
        8,
        ok,
        f"mean value at x=1e6: |sum - (4/3)pi x^1.5|/x^1.5 = {scaled:.3e} "
        f"(<= 1e-2), rel_err 1e4 -> 1e6: {cps[0].rel_err:.3e} -> "
        f"{cps[1].rel_err:.3e} (decreasing = {decays})",
    )


def test_09_mean_square(r3_million):
    grid = [10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6]
    cps = verify.mean_square_series(r3_million, grid)
    ratio = cps[-1].partial_sum / cps[-1].main_term
    decays = cps[-1].rel_err < cps[0].rel_err
    fit = verify.fit_error_exponent(cps)
    ok = 0.98 <= ratio <= 1.02 and decays and fit.slope < 2.0
    record(
        9,
        ok,
        f"mean square at x=1e6: ratio to C3 x^2 = {ratio:.5f} (in [0.98, 1.02]), "
        f"rel_err decreasing = {decays}, fitted error exponent = "
        f"{fit.slope:.3f} (< 2)",
    )


def test_10_four_square_mean_square():
    x = 10**5
    table = repcount.build_rk(x, 4)
    cps = verify.mean_square_general(4, table, [x])
    ratio = cps[0].partial_sum / cps[0].main_term
    w4_err = abs(constants.w_constant(4) - 32 * float(mpmath.zeta(3)))
    ok = 0.98 <= ratio <= 1.02 and w4_err <= 1e-10
    record(
        10,
        ok,
        f"four squares at x=1e5: ratio to W_4 x^3 = {ratio:.5f} "
        f"(in [0.98, 1.02]), |w(4) - 32 zeta(3)| = {w4_err:.3e} (<= 1e-10)",
    )


def test_11_bateman_convergence(terms_10k):
    details = []
    ok = True
    for n in (1, 2, 3, 5, 6):
        r3 = repcount.r3_point(n)
        partial = np.cumsum(terms_10k[n])
        factor = singular.bateman_factor(n)
        rel_high = abs(factor * partial[10**4 - 1] - r3) / r3
        rel_low = abs(factor * partial[10**2 - 1] - r3) / r3
        ok = ok and rel_high <= 0.05 and rel_high < rel_low
        details.append(f"n={n}: {rel_high:.2e}")
    for n in (7, 15):
        s = singular.truncation(n, 10**4)
        ok = ok and abs(s) <= 0.05
        details.append(f"S3({n})={s:.2e}")
    record(
        11,
        ok,
        "count formula truncated at Q=1e4: rel err " + ", ".join(details[:5]) +
        " (each <= 0.05 and below its Q=1e2 value); zero classes " +
        ", ".join(details[5:]) + " (|S3| <= 0.05)",
    )


def test_12_singular_integral():
    x = 2000
    arr = singular.i_exact_range(x, x)
    n = np.arange(x + 1)
    dev = np.abs(arr - (math.pi / 4) * np.sqrt(n))
    mid = 100 + (x - 100) // 2
    first = float(dev[100 : mid + 1].max())
    second = float(dev[mid + 1 : x + 1].max())
    peak = max(first, second)
    ok = peak <= 2.0 and second <= 2.0 * first
    record(
        12,
        ok,
        f"singular integral, 100 <= n <= {x}: max |I(n) - (pi/4) sqrt(n)| = "
        f"{peak:.4f} (<= 2), half maxima {first:.4f} -> {second:.4f} "
        f"(no growth: second <= 2 * first)",
    )


def test_13_determinism(tmp_path):
    x = 10**5
    outputs = {}
    for threads in (1, 8):
        t = str(threads)
        paths = {
            "table": tmp_path / f"r3_t{t}.bin",
            "mean": tmp_path / f"mean_t{t}.csv",
            "msq": tmp_path / f"msq_t{t}.json",
            "gen": tmp_path / f"gen_t{t}.csv",
        }
        rcs = [
            cli.main(
                ["tables", "--limit", str(x), "--k", "3", "--table-format",
                 "binary", "--threads", t, "--reproducible",
                 "--output", str(paths["table"])]
            ),
            cli.main(
                ["verify-mean", "--limit", str(x), "--threads", t,
                 "--reproducible", "--output", str(paths["mean"])]
            ),
            cli.main(
                ["verify-meansquare", "--limit", str(x), "--threads", t,
                 "--format", "json", "--reproducible",
                 "--output", str(paths["msq"])]
            ),
            cli.main(
                ["verify-general", "--n", "4", "--limit", str(x),
                 "--threads", t, "--reproducible", "--output", str(paths["gen"])]
            ),
        ]
        assert rcs == [0, 0, 0, 0], rcs
        outputs[threads] = {k: p.read_bytes() for k, p in paths.items()}
    same = [k for k in outputs[1] if outputs[1][k] == outputs[8][k]]
    ok = len(same) == 4
    record(
        13,
        ok,
        f"determinism at x={x}: threads 1 vs 8 byte-identical for "
        f"{len(same)}/4 pipeline outputs (table, mean, mean-square, order-4)",
    )
