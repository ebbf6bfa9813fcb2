"""The benchmark's workloads: the steps each one runs, the work each step does
(computed from its input sizes, not measured), and the check of each output.

A step is one fresh process: a `squaresums` CLI invocation, or the library
step in `libstep.py`. The seed picks n and n' for the `singular` steps from a
fixed pool and the positions of the spot checks; it never changes the amount
of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import checks
import libstep

# Small n with r_3(n) > 0; the singular-series cost depends on Q, not on n.
N_POOL = (1, 2, 3, 5, 6, 9, 10, 11, 13, 14)
R3_LIMIT = 10**6
R8_LIMIT = 500_000
SWEEP_GRID = "1,10,100,1000,10000"
DUMP_Q = 2000
WEYL_N, WEYL_GRID = 10_000, 0.002
GAUSS_Q = 4096
SIEVE_QS = (4096, 10**6)  # the B1 truncations `constants` uses by default
MAJOR_ARC_THRESHOLD = 10.0  # frozen major-arc threshold of the test suite
SPOTS = 4  # seeded positions checked per table, grid or modulus
DIRECT_TERMS = 24  # A(q, n) checked against the literal definition for q <= this

WORKLOADS = ("tables_build", "tables_read", "analytic")


@dataclass
class Step:
    """One process of a workload. `args` follow `squaresums` for a CLI step."""

    label: str
    args: list[str]
    check: Callable[["Outcome"], list[str]]
    kind: str = "cli"  # "cli" or "lib"
    work: dict[str, int] = field(default_factory=dict)

    def option(self, flag: str) -> str | None:
        return self.args[self.args.index(flag) + 1] if flag in self.args else None


@dataclass
class Outcome:
    """What a finished step left behind, for its check."""

    step: Step
    workdir: Path
    stdout: str

    def path(self, flag: str) -> Path:
        return self.workdir / self.step.option(flag)


def _table_entries(path: Path, positions) -> list[int]:
    counts = np.memmap(path, dtype="<u8", mode="r", offset=16)
    return [int(counts[n]) for n in positions]


def shift_adds(x: int, passes: int) -> int:
    """int64 element adds of the exact shift-add kernels (fold or convolution
    against r_1): each pass adds the source shifted by every square m^2 <= x."""
    m = math.isqrt(x)
    return passes * ((m + 1) * (x + 1) - m * (m + 1) * (2 * m + 1) // 6)


def default_checkpoints(limit: int) -> list[int]:
    """The CLI's default grid: 1 and 3 times powers of ten from 100, then limit."""
    xs = [m * 10**e for e in range(2, 20) for m in (1, 3) if m * 10**e <= limit]
    return xs if xs[-1] == limit else xs + [limit]


def _weyl_grid_points(step: float) -> int:
    return sum(1 for i in range(math.ceil(1.0 / step)) if i * step < 1.0)


def _main_terms():
    """Main-term constants from their closed forms, independent of the package."""
    with mpmath.workdps(40):
        c3 = 8 * mpmath.pi**4 / (21 * mpmath.zeta(3))
        n = 8
        w8 = (
            1 / ((n - 1) * (1 - mpmath.mpf(2) ** -n))
            * mpmath.pi**n / mpmath.gamma(mpmath.mpf(n) / 2) ** 2
            * mpmath.zeta(n - 1) / mpmath.zeta(n)
        )
        return float(c3), float(w8)


C3, W8 = _main_terms()


class Context:
    """Seeded choices, pinned references and expectations shared by the checks."""

    def __init__(self, seed: int, reference: dict):
        rng = random.Random(seed)
        self.ref = reference
        self.n_sweep = rng.choice(N_POOL)
        self.n_dump = rng.choice(N_POOL)
        self.r3_spots = sorted(rng.sample(range(R3_LIMIT + 1), SPOTS))
        self.r8_spots = sorted(rng.sample(range(R8_LIMIT + 1), SPOTS))
        self.weyl_spots = sorted(rng.sample(range(_weyl_grid_points(WEYL_GRID)), SPOTS))
        self.gauss_spots = sorted(rng.sample(range(1, GAUSS_Q, 2), SPOTS))
        self.prefix: dict[str, dict[int, int]] = {}

    # -- tables --------------------------------------------------------

    def check_table(self, out: Outcome) -> list[str]:
        path = out.path("--output")
        if not path.is_file():
            return [f"{path.name} was not written"]
        problems = []
        digest = checks.sha256_file(path)
        if digest != self.ref["digests"][path.name]:
            problems.append(f"{path.name}: sha256 {digest} differs from the pinned digest")
        if out.step.option("--table-format") == "binary":
            order = int(out.step.option("--k"))
            spots = self.r3_spots if order == 3 else self.r8_spots
            oracle = checks.r3_at if order == 3 else checks.r8_at
            got = _table_entries(path, spots)
            for n, value in zip(spots, got):
                if value != oracle(n):
                    problems.append(f"{path.name}: r_{order}({n}) = {value}, expected {oracle(n)}")
        return problems

    def check_same_table(self, out: Outcome) -> list[str]:
        problems = self.check_table(out)
        twin = out.workdir / "r3.bin"
        if not problems and checks.sha256_file(twin) != checks.sha256_file(out.path("--output")):
            problems.append("r3c.bin differs from r3.bin")
        return problems

    def expect_prefix_sums(self, workdir: Path, xs_r3, xs_r8) -> list[str]:
        """Exact partial sums from the digest-checked tables, once per run; the
        plain sums are cross-checked against an independent lattice count."""
        r3 = np.memmap(workdir / "r3.bin", dtype="<u8", mode="r", offset=16).astype(np.int64)
        r8 = np.memmap(workdir / "r8.bin", dtype="<u8", mode="r", offset=16).astype(np.int64)
        self.prefix = {
            "mean": checks.prefix_sums(r3, xs_r3, square=False),
            "meansquare": checks.prefix_sums(r3, xs_r3, square=True),
            "general": checks.prefix_sums(r8, xs_r8, square=True),
        }
        return [
            f"sum of r_3 up to {x} is {s}, lattice count {checks.ball_count(x)}"
            for x, s in self.prefix["mean"].items()
            if s != checks.ball_count(x)
        ]

    # -- verify --------------------------------------------------------

    def _check_series(self, rows: list[dict], kind: str, main_of) -> list[str]:
        expected = self.prefix[kind]
        if [r["x"] for r in rows] != list(expected):
            return [f"{kind}: checkpoints {[r['x'] for r in rows]} != {list(expected)}"]
        problems = []
        for r in rows:
            x, main = r["x"], main_of(r["x"])
            abs_err = abs(expected[x] - main)
            if r["partial_sum"] != expected[x]:
                problems.append(f"{kind}: partial sum at {x} is {r['partial_sum']}, expected {expected[x]}")
            if not checks.close(r["main_term"], main):
                problems.append(f"{kind}: main term at {x} is {r['main_term']}, expected {main}")
            if abs(r["abs_err"] - abs_err) > checks.RTOL * main + checks.ATOL:
                problems.append(f"{kind}: abs_err at {x} is {r['abs_err']}, expected {abs_err}")
            if abs(r["rel_err"] - abs_err / main) > checks.RTOL + checks.ATOL:
                problems.append(f"{kind}: rel_err at {x} is {r['rel_err']}, expected {abs_err / main}")
        return problems

    @staticmethod
    def _fit(rows: list[dict]) -> dict:
        pts = [(math.log(r["x"]), math.log(r["abs_err"])) for r in rows if r["abs_err"] > 0]
        xs, ys = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / np.sum((xs - xs.mean()) ** 2))
        intercept = float(ys.mean() - slope * xs.mean())
        ssr = float(np.sum((ys - intercept - slope * xs) ** 2))
        r2 = min(1.0, max(0.0, 1.0 - ssr / float(np.sum((ys - ys.mean()) ** 2))))
        return {"slope": slope, "intercept": intercept, "r_squared": r2, "points_used": len(pts)}

    def check_mean(self, out: Outcome) -> list[str]:
        path = out.path("--output")
        if not path.is_file():
            return [f"{path.name} was not written"]
        rows = checks.csv_rows(path.read_text())
        if not rows or rows[0] != ["x", "partial_sum", "main_term", "abs_err", "rel_err"]:
            return [f"{path.name}: unexpected header {rows[:1]}"]
        parsed = [
            {"x": int(x), "partial_sum": int(s), "main_term": float(m),
             "abs_err": float(a), "rel_err": float(r)}
            for x, s, m, a, r in rows[1:]
        ]
        return self._check_series(parsed, "mean", lambda x: 4.0 / 3.0 * math.pi * x**1.5)

    def check_series_json(self, kind: str, main_of) -> Callable[[Outcome], list[str]]:
        def check(out: Outcome) -> list[str]:
            obj = json.loads(out.stdout)
            problems = self._check_series(obj["series"], kind, main_of)
            return problems + checks.compare(obj["fit"], self._fit(obj["series"]), f"{kind}.fit")

        return check

    def check_fit(self, out: Outcome) -> list[str]:
        rows = checks.csv_rows((out.workdir / "mean.csv").read_text())[1:]
        series = [{"x": int(r[0]), "abs_err": float(r[3])} for r in rows]
        return checks.compare(json.loads(out.stdout), {"fit": self._fit(series)}, "fit")

    # -- analytic ------------------------------------------------------

    def check_sweep(self, out: Outcome) -> list[str]:
        obj = json.loads(out.stdout)
        problems = checks.compare(obj, self.ref["singular_sweep"][str(self.n_sweep)], "singular")
        if obj.get("r3") != checks.r3_at(self.n_sweep):
            problems.append(f"singular: r3({self.n_sweep}) = {obj.get('r3')}, expected {checks.r3_at(self.n_sweep)}")
        return problems

    def check_dump(self, out: Outcome) -> list[str]:
        rows = checks.csv_rows(out.stdout)
        if rows[0] != ["q", "A_q_n"] or len(rows) != DUMP_Q + 2 or rows[-1][0] != "total":
            return [f"dump-terms: expected {DUMP_Q} terms and a total, got {len(rows)} rows"]
        if [int(r[0]) for r in rows[1:-1]] != list(range(1, DUMP_Q + 1)):
            return ["dump-terms: q column is not 1..Q"]
        terms = [float(r[1]) for r in rows[1:-1]]
        total = float(rows[-1][1])
        problems = [
            f"dump-terms: A({q}, {self.n_dump}) = {terms[q - 1]}, expected {checks.a_term_direct(q, self.n_dump)}"
            for q in range(1, DIRECT_TERMS + 1)
            if not checks.close(terms[q - 1], checks.a_term_direct(q, self.n_dump))
        ]
        pinned = self.ref["singular_total"][str(self.n_dump)]
        if not checks.close(total, pinned) or not checks.close(total, math.fsum(terms)):
            problems.append(f"dump-terms: total {total}, pinned {pinned}, sum of terms {math.fsum(terms)}")
        return problems

    def check_weyl(self, out: Outcome) -> list[str]:
        rows = checks.csv_rows(out.stdout)
        if rows[0] != ["alpha", "re", "im", "magnitude"]:
            return [f"weyl-sweep: unexpected header {rows[0]}"]
        vals = [[float(v) for v in r] for r in rows[1:]]
        if len(vals) != _weyl_grid_points(WEYL_GRID):
            return [f"weyl-sweep: {len(vals)} grid points"]
        problems = [
            f"weyl-sweep: alpha {a} at row {i}" for i, (a, *_) in enumerate(vals)
            if not checks.close(a, i * WEYL_GRID)
        ]
        for i in self.weyl_spots:
            alpha, re, im, mag = vals[i]
            f = checks.weyl_direct(alpha, WEYL_N)
            if not (checks.close(re, f.real) and checks.close(im, f.imag) and checks.close(mag, abs(f))):
                problems.append(f"weyl-sweep: f({alpha}) = {re}+{im}i, expected {f}")
        total = math.fsum(v[3] for v in vals)
        if not checks.close(total, self.ref["weyl_magnitude_sum"]):
            problems.append(f"weyl-sweep: sum of |f| {total}, pinned {self.ref['weyl_magnitude_sum']}")
        return problems

    def check_gauss(self, out: Outcome) -> list[str]:
        obj = json.loads(out.stdout)
        law = math.sqrt(2 * GAUSS_Q)
        coprime = [a for a in range(1, GAUSS_Q + 1) if math.gcd(a, GAUSS_Q) == 1]
        values = {v["a"]: v for v in obj["values"]}
        if obj["q"] != GAUSS_Q or [v["a"] for v in obj["values"]] != coprime:
            return ["gauss: wrong modulus or residues"]
        problems = [] if checks.close(obj["closed_magnitude"], law) else ["gauss: closed magnitude"]
        problems += [
            f"gauss: |S({GAUSS_Q}, {a})| = {v['magnitude']}, expected {law}"
            for a, v in values.items() if not checks.close(v["magnitude"], law)
        ]
        for a in self.gauss_spots:
            s = checks.gauss_direct(GAUSS_Q, a)
            v = values[a]
            if not (checks.close(v["re"], s.real) and checks.close(v["im"], s.imag)):
                problems.append(f"gauss: S({GAUSS_Q}, {a}) = {v['re']}+{v['im']}i, expected {s}")
        return problems

    def check_constants(self, out: Outcome) -> list[str]:
        obj = json.loads(out.stdout)
        problems = checks.compare(obj, self.ref["constants"], "constants")
        if not checks.close(obj["c3"], C3):
            problems.append(f"constants: c3 = {obj['c3']}, expected {C3}")
        return problems

    def check_major_arc(self, out: Outcome) -> list[str]:
        obj = json.loads(out.stdout)
        problems = checks.compare(obj, self.ref["major_arc"], "major_arc")
        if not obj["worst"] < MAJOR_ARC_THRESHOLD:
            problems.append(f"major_arc: worst deviation {obj['worst']} reaches {MAJOR_ARC_THRESHOLD}")
        return problems


def _tables(label: str, limit: int, k: int, output: str, check, extra=(), passes: int = 1) -> Step:
    args = ["tables", "--limit", str(limit), "--k", str(k), *extra, "--reproducible", "--output", output]
    work = {"repcount.build_entries": limit + 1, "repcount.shift_adds": shift_adds(limit, passes)}
    return Step(label, args, check, work=work)


def prep_steps(name: str, ctx: Context) -> list[Step]:
    """Untimed steps that make a workload's inputs with the program's own CLI."""
    if name != "tables_read":
        return []
    return [
        _tables("prep_r3_csv", R3_LIMIT, 3, "r3.csv", ctx.check_table),
        _tables("prep_r3_bin", R3_LIMIT, 3, "r3.bin", ctx.check_table, ["--table-format", "binary"]),
        _tables("prep_r8_bin", R8_LIMIT, 8, "r8.bin", ctx.check_table, ["--table-format", "binary"], 7),
    ]


def steps(name: str, ctx: Context) -> list[Step]:
    """The timed steps of one workload iteration, in order."""
    binary = ["--table-format", "binary"]
    if name == "tables_build":
        return [
            _tables("fold_csv", R3_LIMIT, 3, "r3.csv", ctx.check_table),
            _tables("fold_bin_2threads", R3_LIMIT, 3, "r3.bin", ctx.check_table,
                    ["--threads", "2", *binary]),
            _tables("convolution_bin", R3_LIMIT, 3, "r3c.bin", ctx.check_same_table,
                    ["--builder", "convolution", *binary], passes=2),
            _tables("r8_bin_guarded", R8_LIMIT, 8, "r8.bin", ctx.check_table, binary, passes=7),
        ]
    if name == "tables_read":
        read = lambda x: {"verify.entries_summed": x}  # noqa: E731
        return [
            Step("verify_mean_csv",
                 ["verify-mean", "--limit", str(R3_LIMIT), "--table", "r3.csv",
                  "--reproducible", "--output", "mean.csv"],
                 ctx.check_mean, work=read(R3_LIMIT)),
            Step("verify_meansquare_bin",
                 ["verify-meansquare", "--limit", str(R3_LIMIT), "--table", "r3.bin",
                  "--format", "json", "--reproducible"],
                 ctx.check_series_json("meansquare", lambda x: C3 * float(x) ** 2),
                 work=read(R3_LIMIT)),
            Step("verify_general_r8",
                 ["verify-general", "--n", "8", "--limit", str(R8_LIMIT), "--table", "r8.bin",
                  "--format", "json", "--reproducible"],
                 ctx.check_series_json("general", lambda x: W8 * float(x) ** 7),
                 work=read(R8_LIMIT)),
            Step("fit_mean", ["fit", "--input", "mean.csv", "--format", "json", "--reproducible"],
                 ctx.check_fit),
        ]
    if name == "analytic":
        sweep_q = max(int(q) for q in SWEEP_GRID.split(","))
        weyl_points = _weyl_grid_points(WEYL_GRID)
        lib_v = libstep.Q_MAX * libstep.BETAS_PER_Q
        lib_weyl = libstep.BETAS_PER_Q * sum(
            math.gcd(a, q) == 1 for q in range(1, libstep.Q_MAX + 1) for a in range(1, q + 1)
        )
        return [
            Step("singular_sweep",
                 ["singular", "--n", str(ctx.n_sweep), "--q-grid", SWEEP_GRID,
                  "--format", "json", "--reproducible"],
                 ctx.check_sweep, work={"singular.q_terms": sweep_q}),
            Step("singular_dump",
                 ["singular", "--n", str(ctx.n_dump), "--q-max", str(DUMP_Q),
                  "--dump-terms", "--reproducible"],
                 ctx.check_dump, work={"singular.q_terms": DUMP_Q}),
            Step("weyl_sweep",
                 ["weyl-sweep", "--n-terms", str(WEYL_N), "--grid", str(WEYL_GRID), "--reproducible"],
                 ctx.check_weyl, work={"expsum.weyl_terms": weyl_points * WEYL_N}),
            Step("gauss",
                 ["gauss", "--q", str(GAUSS_Q), "--format", "json", "--reproducible"],
                 ctx.check_gauss),
            Step("constants_extended",
                 ["constants", "--precision", "extended", "--format", "json", "--reproducible"],
                 ctx.check_constants, work={"constants.sieve_q": sum(SIEVE_QS)}),
            Step("major_arc_lib", [], ctx.check_major_arc, kind="lib",
                 work={"expsum.weyl_terms": lib_weyl * libstep.N_TERMS,
                       "expsum.v_terms": lib_v * libstep.X}),
        ]
    raise ValueError(f"unknown workload {name!r}")


def work_counts(name: str, ctx: Context) -> dict[str, int]:
    """Computed work of one iteration of a workload, summed over its steps."""
    total: dict[str, int] = {}
    for step in steps(name, ctx):
        for key, value in step.work.items():
            total[key] = total.get(key, 0) + value
    return total
