#!/usr/bin/env python3
"""Benchmark of the `squaresums` command-line tool, built from `src/`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S [--trace 1]

Run from the root of a source checkout. A workload is a closed loop with one
client: a fixed sequence of fresh processes (CLI invocations and one library
step), each started when the previous one has ended. Whole iterations of the
sequence repeat while the next is expected to end within S seconds of the
first (at least one runs). Every output is checked (see workloads.py); a step fails on a nonzero exit, a
traceback on stderr or a failed check.

--trace 0 reports the end-to-end metrics, medians over the run's iterations:
  wall_s        wall time of one iteration, the sum of its steps' spawn-to-reap
  setup_s       median of cold `squaresums --help` runs, one after a step
                whenever PROBE_EVERY_S have passed, at least SETUP_PROBES
  cpu_s         user + system CPU of the iteration's processes
  peak_rss_mib  largest resident set of any of the iteration's processes
--trace 1 alternates untraced and traced iterations (tracer.py) and reports
the per-layer metrics: medians over traced iterations, plus work counts that
are computed from input sizes rather than measured.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; earlier lines starting with '#' record the machine, the
samples and any failure. `--workload all` runs every workload and prints one
table of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from workloads import Context, Outcome, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # at least this many
PROBE_EVERY_S = 2.0
STEP_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

# Self time of named public functions; a layer's self_s covers all of them.
GROUPS = {
    "repcount.build_s": ("build_r1", "build_rk", "build_r3_fold", "build_rstar", "convolve"),
    "repcount.write_s": ("save_csv", "save_binary"),
    "repcount.read_s": ("load_csv", "load_binary"),
    "repcount.point_s": ("r3_point",),
    "verify.fit_s": ("fit_error_exponent",),
    "singular.series_s": ("singular_series", "singular_series_many", "a_term"),
    "expsum.weyl_s": ("weyl_sum",),
    "expsum.v_s": ("v_sum",),
    "expsum.gauss_s": ("gauss_sum",),
    "constants.sieve_s": ("totient_sieve",),
}
LAYERS = ("repcount", "expsum", "singular", "constants", "verify", "cli")
COMPUTED = (
    "repcount.build_entries", "repcount.shift_adds", "verify.entries_summed",
    "singular.q_terms", "expsum.weyl_terms", "expsum.v_terms", "constants.sieve_q",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in GROUPS},
    "verify.series_s": "s",
    "constants.report_s": "s",
    **{name: "count" for name in COMPUTED},
    "repcount.adds_per_s": "1/s",
    "singular.terms_per_s": "1/s",
    "repcount.write_bytes": "bytes",
    "repcount.read_bytes": "bytes",
    "repcount.point_calls": "count",
    "expsum.gauss_calls": "count",
    "cli.out_bytes": "bytes",
    "cli.invocations": "count",
    "cli.exit_nonzero": "count",
    "harness.startup_s": "s",
    "harness.glue_s": "s",
    "harness.exit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class StepRun:
    """Measurements of one finished process."""

    step: Step
    elapsed: float
    cpu: float
    rss_kib: int
    rc: int
    stdout_bytes: int = 0
    file_sizes: dict[str, int] = field(default_factory=dict)  # --output/--table -> bytes
    spans: dict | None = None
    spawned: float = 0.0
    reaped: float = 0.0


class Runner:
    """Runs steps as fresh processes in a work directory inside the checkout.

    Steps are started by spawner.py, so their peak resident set is their own.
    Use as a context manager: leaving it stops the spawner and any running step.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.spawner.stdin.close()  # the spawner ends at end of input
        else:
            self.spawner.terminate()  # it kills a running step before it ends
        self.spawner.wait()

    def _argv(self, step: Step, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "tracer.py"), "spans.json", step.kind, *step.args]
        if step.kind == "lib":
            return [sys.executable, str(HERE / "libstep.py")]
        return [sys.executable, "-m", "squaresums.cli", *step.args]

    def _spawn(self, argv: list[str]) -> dict:
        request = {
            "argv": argv, "cwd": str(self.workdir), "env": self.env, "timeout": STEP_TIMEOUT_S,
            "stdout": str(self.workdir / "stdout"), "stderr": str(self.workdir / "stderr"),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with status {self.spawner.wait()}")
        return json.loads(reply)

    def run(self, step: Step, traced: bool = False) -> StepRun:
        if step.option("--output"):
            (self.workdir / step.option("--output")).unlink(missing_ok=True)
        (self.workdir / "spans.json").unlink(missing_ok=True)
        done = self._spawn(self._argv(step, traced))
        rc = done["rc"]
        stdout = (self.workdir / "stdout").read_text(errors="replace")
        stderr = (self.workdir / "stderr").read_text(errors="replace")
        problems = [f"exit status {rc}"] if rc else []
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if not problems:
            try:
                problems = step.check(Outcome(step, self.workdir, stdout))
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = stderr.strip().splitlines()[-1:] or [""]
            print(f"# FAILED {step.label}: {'; '.join(problems[:5])} | stderr: {tail[0]}", flush=True)
        run = StepRun(
            step=step,
            elapsed=done["reaped"] - done["spawned"],
            cpu=done["cpu_s"],
            rss_kib=done["maxrss_kib"],
            rc=rc,
            stdout_bytes=len(stdout.encode()),
            spawned=done["spawned"],
            reaped=done["reaped"],
        )
        for flag in ("--output", "--table"):
            if step.option(flag) and (self.workdir / step.option(flag)).is_file():
                run.file_sizes[flag] = (self.workdir / step.option(flag)).stat().st_size
        if traced and (self.workdir / "spans.json").is_file():
            run.spans = json.loads((self.workdir / "spans.json").read_text())
        return run


def _median(values) -> float:
    return float(statistics.median(values))


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iteration_metrics(runs: list[StepRun]) -> dict:
    return {
        "wall_s": sum(r.elapsed for r in runs),
        "cpu_s": sum(r.cpu for r in runs),
        "peak_rss_mib": max(r.rss_kib for r in runs) / 1024.0,
        "steps": {r.step.label: [round(r.elapsed, 4), round(r.cpu, 4)] for r in runs},
    }


def layer_metrics(runs: list[StepRun], work: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    fns: dict[str, list] = {}
    for r in runs:
        for name, (calls, span, self_s) in (r.spans or {}).get("functions", {}).items():
            acc = fns.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += span
            acc[2] += self_s
    m = {name: 0.0 for name in PER_LAYER}
    for name, (_, _, self_s) in fns.items():
        m[f"{name.split('.')[0]}.self_s"] += self_s
    for metric, names in GROUPS.items():
        layer = metric.split(".")[0]
        m[metric] = sum(fns.get(f"{layer}.{n}", [0, 0.0, 0.0])[2] for n in names)
    m["verify.series_s"] = m["verify.self_s"] - m["verify.fit_s"]
    m["constants.report_s"] = m["constants.self_s"] - m["constants.sieve_s"]
    m.update({name: float(work.get(name, 0)) for name in COMPUTED})
    m["repcount.adds_per_s"] = m["repcount.shift_adds"] / m["repcount.build_s"] if m["repcount.build_s"] else 0.0
    m["singular.terms_per_s"] = m["singular.q_terms"] / m["singular.series_s"] if m["singular.series_s"] else 0.0
    m["repcount.point_calls"] = fns.get("repcount.r3_point", [0])[0]
    m["expsum.gauss_calls"] = fns.get("expsum.gauss_sum", [0])[0]
    cli_runs = [r for r in runs if r.step.kind == "cli"]
    tables = [r for r in cli_runs if r.step.args[0] == "tables"]
    m["repcount.write_bytes"] = sum(r.file_sizes.get("--output", 0) for r in tables)
    m["repcount.read_bytes"] = sum(r.file_sizes.get("--table", 0) for r in cli_runs)
    m["cli.out_bytes"] = sum(r.stdout_bytes + r.file_sizes.get("--output", 0) for r in cli_runs if r not in tables)
    m["cli.invocations"] = len(cli_runs)
    m["cli.exit_nonzero"] = sum(1 for r in cli_runs if r.rc)
    spanned = [r for r in runs if r.spans]
    m["harness.startup_s"] = sum(r.spans["ready"] - r.spawned for r in spanned)
    m["harness.glue_s"] = sum(r.spans["glue_s"] for r in spanned)
    m["harness.exit_s"] = sum(r.reaped - r.spans["done"] for r in spanned)
    m["trace.wall_s"] = sum(r.elapsed for r in runs)
    return m


def environment() -> dict:
    """Machine and software facts, read without changing anything."""
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for pkg in ("numpy", "mpmath"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        models = [l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")]
        env["cpu"] = models[0] if models else platform.processor()
    except OSError:
        env["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    env["caches"] = caches
    env["commit"] = _commit()
    return env


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(runner: Runner, name: str, ctx: Context, seconds: float, trace: bool):
    """Make the workload's inputs, then run iterations; returns the set-up
    probe times, untraced iteration metrics and traced layer metrics."""
    probe = Step("setup_probe", ["--help"],
                 lambda out: [] if out.stdout.startswith("usage: squaresums") else ["no usage text"])
    setup: list[float] = []
    for step in workloads.prep_steps(name, ctx):
        runner.run(step)
    if name == "tables_read":
        runner.attempted += 1
        try:
            problems = ctx.expect_prefix_sums(
                runner.workdir, workloads.default_checkpoints(workloads.R3_LIMIT),
                workloads.default_checkpoints(workloads.R8_LIMIT))
        except (OSError, ValueError) as exc:  # an input table is missing or short
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            runner.failed += 1
            print(f"# FAILED prefix sums: {'; '.join(problems)}", flush=True)

    last_probe = time.monotonic()

    def iteration(traced: bool) -> list[StepRun]:
        nonlocal last_probe
        runs = []
        for step in workloads.steps(name, ctx):
            runs.append(runner.run(step, traced))
            # set-up probes are spread over the run so they sample its load
            if not trace and (not setup or time.monotonic() - last_probe >= PROBE_EVERY_S):
                setup.append(runner.run(probe).elapsed)
                last_probe = time.monotonic()
        return runs

    plain, traced = [], []
    start = time.monotonic()
    # Whole iterations only: another starts while it is expected to end in time.
    while not plain or (time.monotonic() - start) * (len(plain) + 1) / len(plain) <= seconds:
        plain.append(iteration_metrics(iteration(False)))
        print(f"# iteration {len(plain)} " + json.dumps(plain[-1]), flush=True)
        if trace:
            traced.append(layer_metrics(iteration(True), workloads.work_counts(name, ctx)))
            print(f"# traced iteration {len(traced)} wall_s {traced[-1]['trace.wall_s']}", flush=True)
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(runner.run(probe).elapsed)
    return setup, plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())
    ctx = Context(seed, reference)
    env = environment()
    load = os.getloadavg()
    env.update(workload=name, seed=seed, trace=trace, load_before=load, loaded=load[0] > env["nproc"])
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    if env["loaded"]:
        print(f"# WARNING run starts with load {load[0]:.2f} above nproc {env['nproc']}", flush=True)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with Runner(workdir) as runner:
            setup, plain, traced = measure(runner, name, ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        samples = {metric: [it[metric] for it in traced] for metric in PER_LAYER}
        samples["trace.overhead_s"] = [_median(samples["trace.wall_s"]) - _median([it["wall_s"] for it in plain])]
        units = PER_LAYER
    else:
        samples = {metric: [it[metric] for it in plain] for metric in ("wall_s", "cpu_s", "peak_rss_mib")}
        samples["setup_s"] = setup
        units = END_TO_END
    for metric in units:
        q1, q3 = _quartiles(samples[metric])
        print(f"# {metric} median {_median(samples[metric]):.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"samples {len(samples[metric])} {units[metric]}", flush=True)
    load_after = os.getloadavg()
    print(f"# load_after {json.dumps(load_after)}", flush=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": _median(samples[m]), "unit": units[m]} for m in units},
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running step is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "squaresums" / "cli.py").is_file():
        print(f"error: no squaresums sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        print(f"# {'workload':<13} {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
        for n, res in results.items():
            ratio = res["failed"] / res["attempted"]
            print(f"# {n:<13} {'failed_ratio':<24} {ratio:>12.6g} {'':>12} {'':>12} {res['attempted']:>3}  fraction")
            for metric, entry in res["metrics"].items():
                q1, q3 = _quartiles(res["samples"][metric])
                print(f"# {n:<13} {metric:<24} {entry['value']:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{len(res['samples'][metric]):>3}  {entry['unit']}")
    final = {k: v for k, v in results[names[0]].items() if k != "samples"}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
