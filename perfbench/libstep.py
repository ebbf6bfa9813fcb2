"""Library step of the `analytic` workload: the frozen major-arc scheme of the
test suite (f*(alpha) = S(q,a)/q v(beta) against the Weyl sum f(a/q + beta),
20 offsets beta = linspace(-1, 1, 20) / (4 q N), N = 1000, x = 10^6), cut to
q <= 6. That is 120 `v_sum` and 240 `weyl_sum` calls.

Run as its own process with the package on PYTHONPATH; prints one JSON object.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

N_TERMS = 1000
X = 10**6
Q_MAX = 6
BETAS_PER_Q = 20


def major_arc() -> dict:
    from squaresums import expsum

    worst, worst_at = 0.0, None
    total = 0.0
    v_calls = weyl_calls = 0
    for q in range(1, Q_MAX + 1):
        coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        scaled = {a: expsum.gauss_sum(q, a) / q for a in coprime}
        for beta in np.linspace(-1.0, 1.0, BETAS_PER_Q) / (4 * q * N_TERMS):
            v = expsum.v_sum(float(beta), X)
            v_calls += 1
            for a in coprime:
                f = expsum.weyl_sum(a / q + float(beta), N_TERMS)
                weyl_calls += 1
                dev = abs(f - scaled[a] * v) / math.sqrt(q)
                total += dev
                if dev > worst:
                    worst, worst_at = dev, [q, a]
    return {
        "worst": worst,
        "worst_at": worst_at,
        "deviation_sum": total,
        "v_calls": v_calls,
        "weyl_calls": weyl_calls,
    }


def main() -> int:
    sys.stdout.write(json.dumps(major_arc(), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
