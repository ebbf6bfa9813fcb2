"""Tests of the benchmark itself: checks catch corrupted outputs, failures are
counted, computed work counts repeat exactly, and BENCHMARK.json matches the
metrics the runner prints.

    python3 -m pytest -p no:cacheprovider perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, Outcome, Step  # noqa: E402

REFERENCE = json.loads((run.HERE / "reference.json").read_text())


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_oracles_agree_with_enumeration():
    r1 = np.zeros(61, dtype=np.int64)
    r1[[m * m for m in range(8)]] = [1] + [2] * 7
    table = {1: r1}
    for k in range(2, 9):
        table[k] = np.convolve(table[k - 1], r1)[:61]
    assert [checks.r3_at(n) for n in range(61)] == table[3].tolist()
    assert [checks.r8_at(n) for n in range(61)] == table[8].tolist()
    assert checks.ball_count(60) == int(table[3][1:].sum())


def test_shift_adds_matches_a_direct_count():
    for x in (0, 1, 99, 100, 1000):
        direct = sum(x + 1 - m * m for m in range(math.isqrt(x) + 1))
        assert workloads.shift_adds(x, 3) == 3 * direct


def test_work_counts_repeat_across_seeds():
    expected = {
        "tables_build": {"repcount.build_entries": 3_500_004, "repcount.shift_adds": 4_320_340_430},
        "tables_read": {"verify.entries_summed": 2_500_000},
        "analytic": {
            "singular.q_terms": 12_000,
            "expsum.weyl_terms": 5_240_000,
            "expsum.v_terms": 120_000_000,
            "constants.sieve_q": 1_004_096,
        },
    }
    for name in workloads.WORKLOADS:
        for seed in range(12):
            assert workloads.work_counts(name, Context(seed, REFERENCE)) == expected[name]


def test_seed_changes_choices_not_work():
    a, b = Context(1, REFERENCE), Context(2, REFERENCE)
    assert (a.n_sweep, a.n_dump, a.r3_spots) != (b.n_sweep, b.n_dump, b.r3_spots)
    for name in workloads.WORKLOADS:
        args_a = [s.args for s in workloads.steps(name, a) if s.label not in ("singular_sweep", "singular_dump")]
        args_b = [s.args for s in workloads.steps(name, b) if s.label not in ("singular_sweep", "singular_dump")]
        assert args_a == args_b


def test_float_past_tolerance_is_a_failure():
    pinned = REFERENCE["singular_sweep"]["5"]
    assert checks.compare(pinned, pinned) == []
    reordered = json.loads(json.dumps(pinned))
    reordered["points"][4]["bateman"] *= 1 + 1e-13  # a reordered float sum
    assert checks.compare(reordered, pinned) == []
    pushed = json.loads(json.dumps(pinned))
    pushed["points"][4]["bateman"] *= 1 + 1e-8
    assert checks.compare(pushed, pinned)
    off_by_one = json.loads(json.dumps(pinned))
    off_by_one["r3"] += 1
    assert checks.compare(off_by_one, pinned)

    ctx = Context(1, REFERENCE)
    step = next(s for s in workloads.steps("analytic", ctx) if s.label == "singular_sweep")
    good = json.dumps(REFERENCE["singular_sweep"][str(ctx.n_sweep)])
    assert step.check(Outcome(step, Path("."), good)) == []
    bad = json.loads(good)
    bad["points"][-1]["bateman"] += 1e-6
    assert step.check(Outcome(step, Path("."), json.dumps(bad)))


def test_decimal_strings_compare_by_value():
    assert checks.compare("30.8706060905035873843968712064", "30.87060609050358738439687120640") == []
    assert checks.compare("30.8706060905035873843968712065", "30.8706060905035873843968712064") == []
    assert checks.compare("30.8706060905035873843978712064", "30.8706060905035873843968712064")


def test_corrupted_table_byte_is_a_failure(workdir):
    ctx = Context(3, REFERENCE)
    step = next(s for s in workloads.prep_steps("tables_read", ctx) if s.label == "prep_r3_bin")
    with run.Runner(workdir) as runner:
        runner.run(step)
    assert (runner.attempted, runner.failed) == (1, 0)
    table = workdir / "r3.bin"
    assert step.check(Outcome(step, workdir, "")) == []

    data = bytearray(table.read_bytes())
    data[16 + 8 * 123_456] ^= 1  # one count, away from the spot positions
    table.write_bytes(bytes(data))
    assert any("sha256" in p for p in step.check(Outcome(step, workdir, "")))

    data[16 + 8 * 123_456] ^= 1
    data[16 + 8 * ctx.r3_spots[0]] ^= 2
    table.write_bytes(bytes(data))
    problems = step.check(Outcome(step, workdir, ""))
    assert any(f"r_3({ctx.r3_spots[0]})" in p for p in problems)


def test_runner_counts_failed_steps(workdir):
    usage = lambda out: [] if out.stdout.startswith("usage: squaresums") else ["no usage"]  # noqa: E731
    ballast = bytearray(96 << 20)  # a spawning process's resident set is charged to its children
    ballast[::4096] = b"\1" * len(ballast[::4096])
    with run.Runner(workdir) as runner:
        help_run = runner.run(Step("help", ["--help"], usage))
        runner.run(Step("wrong_check", ["--help"], lambda out: ["wrong output"]))
        runner.run(Step("bad_flag", ["gauss", "--q", "0"], lambda out: []))
        runner.run(Step("raising_check", ["--help"], lambda out: json.loads(out.stdout)))
    assert (runner.attempted, runner.failed) == (4, 3)
    assert runner.spawner.returncode == 0
    # The step's own resident set (about 35 MiB), not the runner's.
    assert help_run.rss_kib < 64 << 10
    del ballast


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_checkout_without_sources_fails_without_result(workdir):
    shutil.copytree(run.HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
