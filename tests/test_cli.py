"""Command-line behavior: formats, exit codes, reproducibility."""

import argparse
import ast
import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squaresums import cli, constants, expsum, repcount, singular, verify
from squaresums.errors import SquaresumsError
from oracles import concatenated, exact_sum
from tablefiles import read_table


def run_cli(args):
    return cli.main(args)


def test_constants_json(capsys):
    assert run_cli(["constants", "--format", "json", "--reproducible"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c3"] == pytest.approx(30.8706, abs=1e-4)
    assert out["b1_closed"] == pytest.approx(1.5639232, abs=1e-7)
    assert out["muller_b"] == pytest.approx(out["c3"], abs=1e-10)
    assert out["b1_direct_at_Q"]["Q"] == 4096
    assert out["b1_euler_at_Q"]["Q"] == 1000000
    assert out["w_values"]["4"] == pytest.approx(38.4658209, abs=1e-6)
    assert "generated" not in out
    assert "extended" not in out


def test_constants_extended_and_text(capsys):
    assert (
        run_cli(
            [
                "constants",
                "--format",
                "json",
                "--precision",
                "extended",
                "--digits",
                "20",
                "--w-orders",
                "3,4",
                "--reproducible",
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["extended"]["c3"].startswith("30.87060609050358")
    assert set(out["w_values"]) == {"3", "4"}
    assert run_cli(["constants", "--w-orders", "3"]) == 0
    text = capsys.readouterr().out
    assert "c3" in text and "30.8706" in text


def test_gauss_zero_magnitude_class(capsys):
    assert run_cli(["gauss", "--q", "6", "--a", "1", "--format", "csv", "--reproducible"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,re,im,magnitude"
    row = lines[1].split(",")
    assert row[0] == "1"
    assert abs(float(row[3])) < 1e-12


def test_gauss_all_residues(capsys):
    assert run_cli(["gauss", "--q", "5", "--format", "csv", "--reproducible"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header plus a in {1, 2, 3, 4}
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(math.sqrt(5), abs=1e-9)


def test_verify_mean_example(capsys):
    code = run_cli(
        [
            "verify-mean",
            "--limit",
            "10000",
            "--checkpoints",
            "100,1000,10000",
            "--reproducible",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,partial_sum,main_term,abs_err,rel_err"
    assert len(lines) == 4
    rels = [float(line.split(",")[4]) for line in lines[1:]]
    assert rels[-1] < rels[0]


def test_verify_meansquare_json(capsys):
    code = run_cli(
        [
            "verify-meansquare",
            "--limit",
            "30000",
            "--format",
            "json",
            "--reproducible",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["x"] for row in out["series"]] == [100, 300, 1000, 3000, 10000, 30000]
    ratio = out["series"][-1]["partial_sum"] / out["series"][-1]["main_term"]
    assert 0.9 < ratio < 1.1
    assert out["fit"]["slope"] < 2.0


def test_verify_general_runs(capsys):
    code = run_cli(
        [
            "verify-general",
            "--n",
            "4",
            "--limit",
            "2000",
            "--checkpoints",
            "100,300,1000,2000",
            "--reproducible",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5


def test_tables_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "r3.csv"
    bin_path = tmp_path / "r3.bin"
    assert run_cli(["tables", "--limit", "400", "--k", "3", "--output", str(csv_path), "--reproducible"]) == 0
    assert run_cli(
        [
            "tables",
            "--limit",
            "400",
            "--k",
            "3",
            "--builder",
            "convolution",
            "--table-format",
            "binary",
            "--output",
            str(bin_path),
            "--reproducible",
        ]
    ) == 0
    capsys.readouterr()
    args = ["verify-mean", "--limit", "400", "--checkpoints", "10,100,400", "--reproducible"]
    assert run_cli(args) == 0
    built = capsys.readouterr().out
    assert run_cli(args + ["--table", str(csv_path)]) == 0
    from_csv = capsys.readouterr().out
    assert run_cli(args + ["--table", str(bin_path)]) == 0
    from_bin = capsys.readouterr().out
    assert built == from_csv == from_bin


@pytest.mark.parametrize(
    "verify,order",
    [(["verify-mean"], 8), (["verify-general", "--n", "4"], 3), (["verify-meansquare"], 4)],
    ids=["r8-as-r3", "r3-as-r4", "r4-as-r3"],
)
def test_csv_table_of_another_order_is_refused_before_any_sum(verify, order, tmp_path, capsys):
    path = tmp_path / f"r{order}.csv"
    argv = ["tables", "--k", str(order), "--limit", "1000", "--output", str(path), "--reproducible"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert run_cli([*verify, "--limit", "1000", "--table", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: DomainError: ") and f"r(1) = {2 * order};" in err, err


def test_reproducible_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["verify-mean", "--limit", "3000", "--reproducible"]
    assert run_cli(base + ["--output", str(a)]) == 0
    assert run_cli(base + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_without_reproducible(tmp_path):
    out = tmp_path / "ts.csv"
    assert run_cli(["verify-mean", "--limit", "1000", "--output", str(out)]) == 0
    assert out.read_text().startswith("# generated 20")


def test_thread_count_does_not_change_output(tmp_path):
    one = tmp_path / "one.csv"
    eight = tmp_path / "eight.csv"
    base = ["verify-meansquare", "--limit", "10000", "--reproducible"]
    assert run_cli(base + ["--threads", "1", "--output", str(one)]) == 0
    assert run_cli(base + ["--threads", "8", "--output", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()


def test_singular_sweep_and_dump(capsys):
    assert run_cli(["singular", "--n", "1", "--reproducible"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "Q,bateman,r3,abs_err,rel_err"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "10", "100", "1000"]
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2 * math.pi, abs=1e-12)
    assert first[2] == "6"
    assert run_cli(["singular", "--n", "1", "--q-max", "4", "--dump-terms", "--reproducible"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,A_q_n"
    assert lines[-1].startswith("total,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(7 / 6, abs=1e-12)
    assert run_cli(
        ["singular", "--n", "7", "--q-grid", "1,50", "--format", "json", "--reproducible"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r3"] == 0
    assert out["points"][0]["rel_err"] is None


def test_weyl_sweep(capsys):
    assert run_cli(
        ["weyl-sweep", "--n-terms", "40", "--grid", "0.25", "--reproducible"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "alpha,re,im,magnitude"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(40.0, abs=1e-12)


def test_fit_subcommand(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert run_cli(
        [
            "verify-mean",
            "--limit",
            "10000",
            "--checkpoints",
            "100,300,1000,3000,10000",
            "--reproducible",
            "--output",
            str(out),
        ]
    ) == 0
    assert run_cli(["fit", "--input", str(out), "--format", "json"]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert fit["points_used"] == 5
    assert 0.0 < fit["slope"] < 1.5
    bad = tmp_path / "bad.csv"
    bad.write_text("x,wrong\n1,2\n")
    assert run_cli(["fit", "--input", str(bad)]) == 1


def test_usage_errors_exit_2(capsys):
    assert run_cli(["verify-mean", "--limit", "0"]) == 2
    assert run_cli(["verify-mean", "--limit", "200000000"]) == 2
    assert run_cli(["verify-mean", "--limit", "100", "--checkpoints", "50,20"]) == 2
    assert run_cli(["verify-mean", "--limit", "100", "--checkpoints", "50,200"]) == 2
    assert run_cli(["verify-mean", "--limit", "100", "--checkpoints", "a,b"]) == 2
    assert run_cli(["verify-mean", "--limit", "100", "--threads", "0"]) == 2
    assert run_cli(["singular", "--n", "0"]) == 2
    assert run_cli(["singular", "--n", "1", "--dump-terms"]) == 2
    assert run_cli(["gauss", "--q", "0"]) == 2
    assert run_cli(["weyl-sweep", "--grid", "0"]) == 2
    assert run_cli(["tables", "--limit", "10", "--k", "2", "--builder", "fold", "--output", "x"]) == 2
    assert run_cli(["verify-general", "--n", "3", "--limit", "10"]) == 2
    assert run_cli(["verify-general", "--n", str(cli.W_ORDER_CAP + 1), "--limit", "10"]) == 2
    for k in (0, cli.W_ORDER_CAP + 1):
        assert run_cli(["tables", "--limit", "10", "--k", str(k), "--output", "x"]) == 2
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()
    for args, flag in (
        (["verify-mean", "--limit", "100", "--checkpoints", ""], "--checkpoints"),
        (["singular", "--n", "5", "--q-grid", ""], "--q-grid"),
        (["constants", "--w-orders", ""], "--w-orders"),
    ):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {flag} is empty"]
    assert run_cli(["singular", "--n", "5", "--q-grid", "10,20", "--dump-terms", "--q-max", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == ["usage error: --dump-terms takes no --q-grid"]


def test_singular_q_above_cap_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("singular series started above the cap")

    monkeypatch.setattr(singular, "series_blocks", refuse)
    over = str(cli.Q_CAP + 1)
    assert run_cli(["singular", "--n", "1", "--q-max", over, "--dump-terms"]) == 2
    assert run_cli(["singular", "--n", "1", "--q-grid", f"1,{over}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("exceeds" in line for line in err)


def test_singular_q_max_without_dump_terms_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("singular sweep started with an ignored --q-max")

    monkeypatch.setattr(verify, "singular_truncation_sweep", refuse)
    assert run_cli(["singular", "--n", "5", "--q-max", "100"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: --q-max requires --dump-terms"]


def test_singular_n_above_cap_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("r3_point reached above the --n cap")

    monkeypatch.setattr(repcount, "r3_point", refuse)
    over = str(cli.LIMIT_CAP + 1)
    assert run_cli(["singular", "--n", over]) == 2
    assert run_cli(["singular", "--n", over, "--q-max", "4", "--dump-terms"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: --n {over} exceeds {cli.LIMIT_CAP}"] * 2
    at_cap = cli.build_parser().parse_args(["singular", "--n", str(cli.LIMIT_CAP)])
    assert cli._config_from_args(at_cap).n == cli.LIMIT_CAP


def test_verify_subcommands_have_no_builder_flag(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("table built despite an unknown flag")

    for name in ("build_r3_fold", "build_rk"):
        monkeypatch.setattr(repcount, name, refuse)
    for cmd in (["verify-mean"], ["verify-meansquare"], ["verify-general", "--n", "4"]):
        assert run_cli(cmd + ["--limit", "500", "--builder", "fold"]) == 2
    assert "unrecognized arguments: --builder fold" in capsys.readouterr().err


def test_positive_only_is_not_a_table_builder(monkeypatch, capsys, tmp_path):
    # r* (positive triples) is not r_3, so an order-3 file of it would pass for r_3
    def refuse(*args, **kwargs):
        raise AssertionError("table built for a builder that is not offered")

    for name in ("build_r1", "build_r3_fold", "build_rk"):
        monkeypatch.setattr(repcount, name, refuse)
    out = tmp_path / "rs.bin"
    argv = ["tables", "--limit", "1000", "--builder", "positive-only", "--output", str(out)]
    assert run_cli(argv) == 2
    assert "invalid choice: 'positive-only'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "k, builder, route",
    [(3, "auto", "fold"), (2, "auto", "convolution"), (3, "convolution", "convolution")],
)
def test_tables_note_names_the_route_that_built_it(capsys, tmp_path, k, builder, route):
    out = tmp_path / "t.bin"
    argv = ["tables", "--k", str(k), "--limit", "300", "--builder", builder,
            "--table-format", "binary", "--output", str(out)]
    assert run_cli(argv) == 0
    err = capsys.readouterr().err
    assert err == f"wrote order-{k} table (limit 300, {route}) to {out}\n", err
    expected = repcount.build_rk(300, k).counts
    assert (read_table(out, k, 300) == expected).all()


def test_weyl_and_gauss_above_caps_fail_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("exponential sum started above the cap")

    for name in ("weyl_sum", "gauss_sum", "gauss_magnitude_closed"):
        monkeypatch.setattr(expsum, name, refuse)
    over_terms = str(cli.N_TERMS_CAP + 1)
    fine_grid = repr(1.0 / (cli.GRID_POINTS_CAP + 1))
    assert run_cli(["weyl-sweep", "--n-terms", over_terms, "--grid", "1"]) == 2
    for grid in (fine_grid, "1e-310", "5e-324"):  # 1 / grid is inf for the last two
        assert run_cli(["weyl-sweep", "--n-terms", "1", "--grid", grid]) == 2
    # each within its own cap, but 10^13 terms together
    assert run_cli(["weyl-sweep", "--n-terms", str(cli.N_TERMS_CAP), "--grid", "1e-6"]) == 2
    assert run_cli(["gauss", "--q", str(cli.GAUSS_Q_CAP + 1)]) == 2
    assert run_cli(["gauss", "--q", str(cli.GAUSS_Q_CAP + 1), "--a", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7 and all(line.startswith("usage error: ") for line in err), err
    assert all("exceeds" in line or "more than" in line for line in err)
    # the caps themselves are accepted: terms times points exactly at its cap
    parse = cli.build_parser().parse_args
    for n_terms, grid in ((cli.N_TERMS_CAP, "0.01"), (1000, "1e-6")):
        at_cap = cli._config_from_args(parse(["weyl-sweep", "--n-terms", str(n_terms), "--grid", grid]))
        assert at_cap.n_terms * round(1 / at_cap.grid) == cli.WEYL_TERMS_CAP
    assert cli._config_from_args(parse(["gauss", "--q", str(cli.GAUSS_Q_CAP)])).q == cli.GAUSS_Q_CAP


def test_constants_above_caps_fail_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("constants computed above a cap")

    with monkeypatch.context() as patch:
        for name in ("constants_report", "constants_extended", "w_constant", "b1_direct", "b1_euler"):
            patch.setattr(constants, name, refuse)
        for flags in (
            ["--w-orders", "400"],
            ["--w-orders", f"3,{cli.W_ORDER_CAP + 1}"],
            ["--b1-direct-q", str(cli.B1_Q_CAP + 1)],
            ["--b1-euler-q", str(cli.B1_Q_CAP + 1)],
            ["--precision", "extended", "--digits", str(cli.DIGITS_CAP + 1)],
        ):
            assert run_cli(["constants", *flags]) == 2, flags
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 5 and all(line.startswith("usage error: ") for line in err), err
        assert all("exceeds" in line for line in err)
    # the caps themselves are accepted, and W_N at the order cap is finite
    at_cap = cli._config_from_args(cli.build_parser().parse_args([
        "constants", "--b1-direct-q", str(cli.B1_Q_CAP), "--b1-euler-q", str(cli.B1_Q_CAP),
        "--w-orders", str(cli.W_ORDER_CAP), "--digits", str(cli.DIGITS_CAP),
    ]))
    assert (at_cap.b1_direct_q, at_cap.b1_euler_q) == (cli.B1_Q_CAP, cli.B1_Q_CAP)
    assert (at_cap.w_orders, at_cap.digits) == ([cli.W_ORDER_CAP], cli.DIGITS_CAP)
    argv = ["constants", "--b1-direct-q", "64", "--b1-euler-q", "64", "--format", "json",
            "--w-orders", str(cli.W_ORDER_CAP), "--reproducible"]
    assert run_cli(argv) == 0
    w = json.loads(capsys.readouterr().out)["w_values"][str(cli.W_ORDER_CAP)]
    assert 0.0 < w < math.inf


def test_runtime_errors_exit_1(tmp_path, capsys):
    short = tmp_path / "short.csv"
    assert run_cli(["tables", "--limit", "50", "--k", "3", "--output", str(short), "--reproducible"]) == 0
    assert run_cli(["verify-mean", "--limit", "100", "--table", str(short)]) == 1
    assert run_cli(["fit", "--input", str(tmp_path / "missing.csv")]) == 1
    wrong_order = tmp_path / "r2.csv"
    assert run_cli(["tables", "--limit", "50", "--k", "2", "--output", str(wrong_order), "--reproducible"]) == 0
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_override_limit_flag_is_honored(monkeypatch):
    # the cap rejects, the override accepts; keep the actual size tiny by
    # pointing at a checkpoint grid that the table must cover anyway, and
    # report 4 TiB of physical memory so the memory bound accepts 3*10^8
    monkeypatch.setattr(os, "sysconf", lambda name: 2**30 if name == "SC_PHYS_PAGES" else 4096)
    assert cli.LIMIT_CAP == 10**8
    cfg = cli._config_from_args(
        cli.build_parser().parse_args(
            ["verify-mean", "--limit", "300000000", "--override-limit", "--checkpoints", "100"]
        )
    )
    assert cfg.limit == 300000000
    assert cfg.override_limit is True


def test_memory_bound_rejects_builds_before_any_work(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("table built beyond physical memory")

    for name in ("build_r1", "build_r3_fold", "build_rk"):
        monkeypatch.setattr(repcount, name, refuse)
    huge = ["--limit", str(10**20), "--override-limit"]
    assert run_cli(["tables", *huge, "--output", str(tmp_path / "x.csv")]) == 2
    assert run_cli(["verify-mean", *huge]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("usage error: --limit ") for line in err), err
    assert all("physical memory" in line for line in err)
    # a machine with 16 KiB: 16 B per entry admits limit 1023, not 1024
    monkeypatch.setattr(os, "sysconf", lambda name: 4 if name == "SC_PHYS_PAGES" else 4096)
    parse = cli.build_parser().parse_args
    assert cli._config_from_args(parse(["verify-mean", "--limit", "1023"])).limit == 1023
    assert run_cli(["verify-mean", "--limit", "1024"]) == 2
    assert run_cli(["tables", "--limit", "1024", "--output", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.count("physical memory") == 2
    assert not (tmp_path / "x.csv").exists()


def test_a_certain_overflow_fails_before_any_pass(monkeypatch, capsys, tmp_path):
    """`tables --k 8` and `verify-general --n 8` to 10^7 end, after their
    progress note, in the in-pass guard's error line and exit status 1, with
    no pass run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(repcount, "_add_squares", refuse)
    limit = ["--limit", str(10**7)]
    assert run_cli(["tables", "--k", "8", *limit, "--output", str(tmp_path / "r8.csv")]) == 1
    assert run_cli(["verify-general", "--n", "8", *limit]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("building ")]
    assert err == ["error: CountOverflowError: count accumulator exceeds 64-bit range"] * 2
    assert not (tmp_path / "r8.csv").exists()


# sha256 of the output of each subcommand and format under --reproducible (the
# table file for `tables`, stdout otherwise), with the exit status. The digests
# pin the output bytes the CLI wrote before it had a single emitter, except the
# two `singular --n 7 --q-grid 1,50` csv and json cases: their Q = 50 row moved
# in the 15th digit once A(8, 7) became exactly -0.5 (the transform gave
# -0.5000000000000001), and the `constants` and `singular --q-max 2000` cases,
# whose truncated sums (B1 and S3(1, 2000)) moved in the last bit when they
# became the exact sum of their terms rounded once, in place of np.sum's, and
# the three `verify-*` json cases, whose `fit` fields moved in the last bit when
# the fit's sums became math.fsum in place of numpy's reductions.
# `3..198` stands for every order up to W_ORDER_CAP; those two pins were taken
# from the float-formula constants, so they hold each W_N to the last bit (odd
# and even orders alike) and every extended digit.
PINNED = [
    ("tables --limit 400 --k 3", 0, "1d5b8c82fe7e2c744f96515b600fcf87387069257a10c638778e052317b93e1f"),
    ("tables --limit 400 --k 3 --table-format binary", 0, "d1b03f579ea5047e462db37508aa2433e30c00b415abd4dd4f8a2bc4d3d4fb20"),
    ("verify-mean --limit 10000 --checkpoints 100,1000,10000 --format csv", 0, "cd2c59b1be5aa26169264c3b8daba1fbc8836e6975988f97130f323eebb3f805"),
    ("verify-mean --limit 10000 --checkpoints 100,1000,10000 --format json", 0, "4f144c07fa294d065d4b177bb16c2255ef8888ea211826ff68a7d6ff0299ac70"),
    ("verify-mean --limit 10000 --checkpoints 100,1000,10000 --format text", 0, "2896e249af26274bae1e080b766b6da5f4486a0fd8173097d2ab8fc1729c9195"),
    ("verify-mean --limit 400 --checkpoints 100,400 --format csv", 0, "d7a14bcb3eddba8521f07d7c491dcfe46ac97466b6361d2b7174206f2241163f"),
    ("verify-mean --limit 400 --checkpoints 100,400 --format json", 0, "4c9cfb78e3577abc1b2989c6c714805c9fc8966388ae09abb3b2281e4b438771"),
    ("verify-mean --limit 400 --checkpoints 100,400 --format text", 0, "dcfcddf7373601b971803b29207290a9e636c87bba419cb24189e74f7946000e"),
    ("verify-mean --limit 2 --checkpoints 1,2 --format csv", 1, "295433d7754cbe5e2cc6843548c6882b26b789b2e4e905b541c63027911f53f7"),
    ("verify-mean --limit 2 --checkpoints 1,2 --format json", 1, "9ec23510fa62e377adf7e7c13deaa085e588fd37797af44e53dc8c30c99444a7"),
    ("verify-mean --limit 2 --checkpoints 1,2 --format text", 1, "24896bdbfd94f37be9480a1495db30a38012a0dcadc24a562c95ddb3359cb552"),
    ("verify-mean --limit 4 --checkpoints 1,4 --format csv", 0, "c18fd5f90c77ba837705839d261b336436121288ac659d4e0aa97712a8efe493"),
    ("verify-mean --limit 4 --checkpoints 1,4 --format json", 0, "1859643a2fe72a85f7319d7fefb542df2c762594910343988a61bf1328ad9f1b"),
    ("verify-mean --limit 4 --checkpoints 1,4 --format text", 0, "1c465fa517b4ec91174d3cd66e8df7df31da421d234dc87866318cd0f58fbb70"),
    ("verify-meansquare --limit 30000 --format csv", 0, "0b65739c95993932afa7eb071e0c030e5a07112592806a3b98df9fcddea3b549"),
    ("verify-meansquare --limit 30000 --format json", 0, "1d7a9b58bb6f15cfda459bde4f625fcb7e2e2a3570b32d83f4d038fe1d9eaf4a"),
    ("verify-meansquare --limit 30000 --format text", 0, "81fb3b387397c47c1cff754c552d3316a3181830b591ac6433f95ef8688e814a"),
    ("verify-general --n 4 --limit 2000 --checkpoints 100,300,1000,2000 --format csv", 0, "ca5482baf8d9cbea0355ef223528ee154c26f849515b6e41e5fe1df5935939a5"),
    ("verify-general --n 4 --limit 2000 --checkpoints 100,300,1000,2000 --format json", 0, "d8b1226c385133705f41fef3538c61a5417a5f425c47c54b816ca0b25eb9dd46"),
    ("verify-general --n 4 --limit 2000 --checkpoints 100,300,1000,2000 --format text", 0, "124dda514e77c7ddbf6fedc33c9d9ef66ab3e854d3ae6471ab303ae49f2ff37a"),
    ("constants --w-orders 3,4 --format csv", 0, "6138ada30eaf4802741fbf081c1c81399db0651396415390b4b50ba155f04921"),
    ("constants --w-orders 3,4 --format json", 0, "82ed4cf8437c7cc90a62298b65438f3a77570219ba6a47cee4b931bfd3232a35"),
    ("constants --w-orders 3,4 --format text", 0, "2d81d3a0ad79cb04d16d4767e183e7a3093af8faa45ef32a732959bf95a53498"),
    ("constants --precision extended --digits 20 --w-orders 3,4 --format csv", 0, "9581d33166424d9ad72dd1fda7383e775c81c1162f165a36121ab899a780a7d0"),
    ("constants --precision extended --digits 20 --w-orders 3,4 --format json", 0, "83dfe1d4078fc455819cb33e353cdec947616f90d80f99032f27c2a44f9bc7d2"),
    ("constants --precision extended --digits 20 --w-orders 3,4 --format text", 0, "51e1e54e286b5301d77f4581a0a4bf385f545b0ebcf9a66ad66938b62a81fb79"),
    ("constants --w-orders 3..198 --format json", 0, "52c96abba6a4beecbae6bad5dd33358ee95917542cd806cd4ddf3ec545284e59"),
    ("constants --precision extended --digits 100 --w-orders 3..198 --format text", 0, "9510b1ef53238edc1737bdff80649283b635265119dd8d8f5dcc8fab8a034d24"),
    ("singular --n 1 --format csv", 0, "5edf323d0b3f6def2d42ce6b6eedabb2c8da9d9fbbaf48d72cb7b3779889e443"),
    ("singular --n 1 --format json", 0, "ce0d51558a1a1dc0d7ed224d91516bdca1d9332cee51a293be2383e073ffe656"),
    ("singular --n 1 --format text", 0, "dfcb84e9fc43073bb176f827894ad5dd0dac9e013451a21994a82c9e504e9fd6"),
    ("singular --n 7 --q-grid 1,50 --format csv", 0, "61bdbb13965e4e4d9deee7adc76db4369eaf82b37f5e9796753b06507e1c4ccc"),
    ("singular --n 7 --q-grid 1,50 --format json", 0, "6052a786fe1760540c92a3c784cb157c9f669c86ba9f3c2d978e03b3f6aa6f1a"),
    ("singular --n 7 --q-grid 1,50 --format text", 0, "b80a16ebf493c98edbff25533fb6f199d3b9502cd606469964ceb31bf53e0028"),
    ("singular --n 1 --q-max 4 --dump-terms --format csv", 0, "2ded261b2fd8086b868f3e304448eeeff4c2eb0d1e5d1f348340fcd97c1fa9b2"),
    ("singular --n 1 --q-max 4 --dump-terms --format json", 0, "3501c661c73b86b2ee406ccad5bbd5f6678b9635db6868b5082e8adc836dad51"),
    ("singular --n 1 --q-max 4 --dump-terms --format text", 0, "fd1342c98beefb30b89877f97730d1ceb7d2ed94cc8b2b7fc47c09e82eb8f38f"),
    ("singular --n 1 --q-max 2000 --dump-terms --format csv", 0, "a8dfe1164e58837731f76895b0c76ca793718e93832cbda35d90fb611d9dd585"),
    ("singular --n 1 --q-max 2000 --dump-terms --format json", 0, "2388e2e7a60a4ccdc861dda57d5f6a14218e01c6bce42340f4d12b1dc752fae3"),
    ("singular --n 1 --q-max 2000 --dump-terms --format text", 0, "76051b614af1052e1e037c1518734f6b10e5b675f87352b662b277d44f2a3151"),
    ("gauss --q 6 --a 1 --format csv", 0, "f363e924d0efc883f9f805c62e7652a4dfaa4cb5aaa0c96c66dca2fd92e86b0f"),
    ("gauss --q 6 --a 1 --format json", 0, "c7f3ee01f2aa3e749ef68e099a5d2f3bf43a427d07c249173e9074575a51405d"),
    ("gauss --q 6 --a 1 --format text", 0, "0ab5e9238e8cbd95675f6b5620183f13e3205772a712d1049e2b1e5038fcab2f"),
    ("gauss --q 12 --format csv", 0, "a4d3e9ebf48f20daab009ca733def6313322d16670b8326a54213b6245e59e3a"),
    ("gauss --q 12 --format json", 0, "309faaac2576d929dac44e7c8872f6d4245314ebd62033ba90f847ad089f836d"),
    ("gauss --q 12 --format text", 0, "f3d13a2a1e8c825dfa6621073da1ff43baad13ff44e9080b9346acd0b42ac178"),
    ("weyl-sweep --n-terms 40 --grid 0.25 --format csv", 0, "560d51fad78a6b49273beabe0d574ab20fcdbf268a73f57e13a2dbb9801f79b5"),
    ("weyl-sweep --n-terms 40 --grid 0.25 --format json", 0, "a1d9fa51cb3ef701e2440e669f5429ee583da91dcb9313c21487e630a4a5e028"),
    ("weyl-sweep --n-terms 40 --grid 0.25 --format text", 0, "ba5a3ac5d26e466b0eb320490d20582f4b9af63db4dfccf9a9d9502d1b7219a8"),
    ("weyl-sweep --n-terms 10000 --grid 0.002 --format csv", 0, "83e41b64899ba11c88976eb69e7145785b9f6c22a17f754e706d41da524fe8e6"),
    ("fit --input SERIES --format csv", 0, "ab368bca6ca6c52b02400c9ccb57539a88e5038a057822bb56f160b8214553bd"),
    ("fit --input SERIES --format json", 0, "beca154b3912181878d260b285cac95d0c34a4c7b5b6e7c192cab7c90b9409c0"),
    ("fit --input SERIES --format text", 0, "ea551f42a89722f86ee53753b0cc9536a4822127ec4e3b0cd6d00395d03868b0"),
]


@pytest.mark.parametrize("args,code,digest", PINNED, ids=[case[0] for case in PINNED])
def test_pinned_output_bytes(args, code, digest, tmp_path, capsys):
    all_orders = ",".join(map(str, range(3, 199)))
    argv = [all_orders if a == "3..198" else a for a in args.split()] + ["--reproducible"]
    if argv[0] == "fit":  # SERIES is a verify-mean export
        series = tmp_path / "series.csv"
        mean = ["verify-mean", "--limit", "10000", "--checkpoints", "100,300,1000,3000,10000"]
        assert run_cli(mean + ["--reproducible", "--output", str(series)]) == 0
        argv[argv.index("SERIES")] = str(series)
    table = tmp_path / "table"
    if argv[0] == "tables":
        argv += ["--output", str(table)]
    capsys.readouterr()
    assert run_cli(argv) == code
    data = table.read_bytes() if argv[0] == "tables" else capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_series_rows_objects_and_sweep_nan(capsys):
    """CSV rows and JSON objects built from Checkpoint, FitResult and TruncationPoint."""
    cps = verify.mean_value_series(repcount.build_r3_fold(4), [1, 4])
    base = ["verify-mean", "--limit", "4", "--checkpoints", "1,4", "--reproducible"]
    assert run_cli(base) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,partial_sum,main_term,abs_err,rel_err"
    assert lines[1].startswith("1,6,")
    assert len(lines) == 3
    row = lines[2].split(",")
    assert int(row[0]) == 4 and int(row[1]) == 32
    assert float(row[2]) == pytest.approx(cps[1].main_term)
    assert run_cli(base + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["series"][0] == {
        "x": 1,
        "partial_sum": 6,
        "main_term": cps[0].main_term,
        "abs_err": cps[0].abs_err,
        "rel_err": cps[0].rel_err,
    }
    assert out["fit"] is None  # two checkpoints are too few for a fit
    fitted = ["verify-mean", "--limit", "2000", "--checkpoints", "10,100,1000,2000"]
    assert run_cli(fitted + ["--format", "json", "--reproducible"]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert set(fit) == {"slope", "intercept", "r_squared", "points_used"}
    assert run_cli(["singular", "--n", "7", "--q-grid", "1", "--reproducible"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Q,bateman,r3,abs_err,rel_err"
    assert lines[1].split(",")[4] == "nan"


def test_dump_terms_rows_and_generated_line(tmp_path, capsys):
    args = ["singular", "--n", "1", "--q-max", "4", "--dump-terms"]
    assert run_cli(args + ["--reproducible"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,A_q_n"
    assert lines[1] == "1,1"
    assert len(lines) == 6
    assert lines[-1].startswith("total,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(7 / 6, abs=1e-12)
    path = tmp_path / "trunc.csv"
    assert run_cli(args + ["--output", str(path)]) == 0
    text = path.read_text().splitlines()
    assert re.fullmatch(r"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", text[0])
    assert text[1:] == lines


def test_emit_renders_only_the_requested_format(capsys):
    def refuse():
        raise AssertionError("rendered a format that was not requested")

    class Unread:
        def __iter__(self):
            raise AssertionError("rows read for the text form")

    outputs = {}
    for fmt in ("csv", "json", "text"):
        args = SimpleNamespace(output_format=fmt, output=None, reproducible=True)
        rows = Unread() if fmt == "text" else iter([(1, 0.5), (2, float("nan"))])
        text = (lambda: ["a line"]) if fmt == "text" else refuse
        assert cli._emit(args, cli.Result(("k", "v"), rows, text, "rows")) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["csv"] == "k,v\n1,0.5\n2,nan\n"
    assert json.loads(outputs["json"]) == {"rows": [{"k": 1, "v": 0.5}, {"k": 2, "v": None}]}
    assert outputs["text"] == "a line\n"


@pytest.mark.parametrize("size", [0, 1, 2**16 + 3])
def test_json_float_arrays_match_the_encoder(capsys, size):
    """Streamed terms, written a block at a time, are the text of the stdlib
    encoder for their list, with their sum under `value`: repr for finite
    floats, NaN and the infinities spelled as json spells them, across block
    edges."""
    values = np.random.default_rng(size).standard_normal(size) / 3.0
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
    values[-len(special) :] = special[len(special) - size :]

    def terms(write):
        for lo in range(0, size, 5000):
            write(lo + 1, values[lo : lo + 5000])
        return 0.5

    args = SimpleNamespace(output_format="json", output=None, reproducible=True)
    assert cli._emit(args, cli.Result(("q",), [], list, extras={"n": 1}, terms=terms)) == 0
    want = {"n": 1, "terms": values.tolist(), "value": 0.5}
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_csv_dump_crosses_a_block(capsys):
    Q = 2**16 + 3  # past two of the sieve's blocks
    assert run_cli(["singular", "--n", "7", "--q-max", str(Q), "--dump-terms", "--reproducible"]) == 0
    lines = capsys.readouterr().out.splitlines()
    terms = concatenated(singular.series_blocks(7, Q))
    assert lines[0] == "q,A_q_n" and lines[-1] == "total,%.17g" % exact_sum([terms])
    assert lines[1:-1] == ["%d,%.17g" % row for row in enumerate(terms.tolist(), start=1)]


def test_failed_write_leaves_existing_output_intact(tmp_path, monkeypatch):
    """A dump, in each format, whose terms fail after two blocks, the header
    and (but as text) those blocks written: the old file stays as it was and
    no temporary file is left; then the dump replaces it, keeping its mode."""
    target = tmp_path / "terms.csv"
    read = []

    def blocks_failing_after_two(n, Q):
        for lo in (1, 4097):
            read.append(lo)
            yield lo, np.full(4096, 0.5)
        raise OSError(28, "No space left on device")

    starts = {"csv": "q,A_q_n\n1,1\n", "json": '{\n  "Q": 10000,\n  "n": 1,\n  "terms": [\n    1.0,', "text": "S3("}
    for fmt, start in starts.items():
        target.write_bytes(b"previous contents\n")
        target.chmod(0o600)
        args = ["singular", "--n", "1", "--q-max", "10000", "--dump-terms", "--format", fmt, "--output", str(target)]
        read.clear()
        with monkeypatch.context() as patch:
            patch.setattr(singular, "series_blocks", blocks_failing_after_two)
            assert run_cli(args) == 1
        assert read == [1, 4097], fmt
        assert target.read_bytes() == b"previous contents\n", fmt
        assert os.listdir(tmp_path) == ["terms.csv"], fmt
        assert run_cli(args + ["--reproducible"]) == 0
        assert target.read_text().startswith(start), fmt
        assert os.listdir(tmp_path) == ["terms.csv"]
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600  # an existing file keeps its mode


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1,
    max_size=8,
)


@st.composite
def _bad_table(draw):
    """An `n,count` file with valid rows around one bad row."""
    good = draw(st.integers(min_value=0, max_value=5))
    n = good
    bad = draw(
        st.one_of(
            _JUNK.filter(lambda s: not _is_int(s)).map(lambda s: f"{n},{s}"),
            st.just(f"{n}"),
            st.integers(min_value=2**63, max_value=2**200).map(lambda c: f"{n},{c}"),
            st.integers(max_value=-1).map(lambda c: f"{n},{c}"),
            st.integers(max_value=-1).map(lambda m: f"{m},1"),
        )
    )
    rows = [f"{i},{draw(st.integers(0, 100))}" for i in range(good)] + [bad, f"{n + 1},6"]
    return "n,count\n" + "\n".join(rows) + "\n"


@st.composite
def _bad_series(draw):
    """A verify-* series export with one short, non-numeric or non-positive-x row."""
    x = draw(st.integers(min_value=1, max_value=10**6))
    bad = draw(
        st.one_of(
            st.just(f"{x}"),
            st.just(f"{x},1,2"),
            _JUNK.filter(lambda s: not _is_float(s)).map(lambda s: f"{x},1,2,{s},0.1"),
            st.integers(max_value=0).map(lambda m: f"{m},1,2,3,0.1"),
        )
    )
    good = ["100,1,2,3,0.1", "1000,1,2,5,0.1", "10000,1,2,9,0.1"]
    at = draw(st.integers(min_value=0, max_value=len(good)))
    rows = good[:at] + [bad] + good[at:]
    return "x,partial_sum,main_term,abs_err,rel_err\n" + "\n".join(rows) + "\n"


@settings(max_examples=150)
@given(table=_bad_table(), series=_bad_series())
def test_malformed_input_files_end_in_one_error_line(table, series):
    with tempfile.TemporaryDirectory() as tmp:
        table_path = os.path.join(tmp, "table.csv")
        series_path = os.path.join(tmp, "series.csv")
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(table)
        with open(series_path, "w", encoding="utf-8") as fh:
            fh.write(series)
        for argv in (
            ["verify-mean", "--limit", "1", "--table", table_path],
            ["fit", "--input", series_path],
        ):
            code, err = _run_captured(argv)
            assert code == 1, (argv, err)
            assert err.startswith("error: DomainError: ") and err.count("\n") == 1, err


_MALFORMED_TABLES = {
    "non-integer": ("n,count\n0,1\n1,abc\n", "not an n,count row"),
    "above-2^63": ("n,count\n0,1\n1,99999999999999999999\n", "64-bit range"),
    "one-cell": ("n,count\n0,1\n1\n", "not an n,count row"),
    "blank-line": ("n,count\n0,1\n\n1,2\n", "not an n,count row"),
    "space-in-cell": ("n,count\n0,1\n1, 6\n", "not an n,count row"),
    "plus-sign": ("n,count\n0,1\n1,+6\n", "not an n,count row"),
    "minus-zero": ("n,count\n0,1\n1,-0\n", "not an n,count row"),
    "twenty-digits": ("n,count\n0,1\n1,10000000000000000000\n", "64-bit range"),
    "lone-cr": ("n,count\n0,1\r1,6\n", "not an n,count row"),
    "empty-body": ("n,count\n", "no rows"),
}


@pytest.mark.parametrize("content,expected", list(_MALFORMED_TABLES.values()), ids=list(_MALFORMED_TABLES))
def test_malformed_table_cases(tmp_path, content, expected):
    path = tmp_path / "table.csv"
    path.write_bytes(content.encode())
    code, err = _run_captured(["verify-mean", "--limit", "1", "--table", str(path)])
    assert code == 1
    assert err.startswith("error: DomainError: ") and expected in err and err.count("\n") == 1


def test_streamed_table_errors_match_the_loader(tmp_path):
    """Each --table error case of this module, read by verify-* as a stream:
    exit status 1 and one line naming the exception that reading the file
    whole raises, word for word, and no --output file."""
    cases = [(["verify-mean"], 3, 1, content.encode()) for content, _ in _MALFORMED_TABLES.values()]
    for k, built, verify_cmd, order, limit in [
        (3, 50, ["verify-mean"], 3, 100),  # too short
        (2, 50, ["verify-mean"], 3, 50),  # and each of another order
        (8, 1000, ["verify-mean"], 3, 1000),
        (3, 50, ["verify-general", "--n", "4"], 4, 50),
        (4, 1000, ["verify-meansquare"], 3, 1000),
    ]:
        path = tmp_path / "built"
        argv = ["tables", "--limit", str(built), "--k", str(k), "--reproducible"]
        for fmt in ("csv", "binary"):
            assert run_cli([*argv, "--table-format", fmt, "--output", str(path)]) == 0
            cases.append((verify_cmd, order, limit, path.read_bytes()))
    out = tmp_path / "out.csv"
    for verify_cmd, k, limit, data in cases:
        table = tmp_path / "table"
        table.write_bytes(data)
        with pytest.raises(SquaresumsError) as loaded:
            read_table(table, k, limit)
        argv = [*verify_cmd, "--limit", str(limit), "--table", str(table), "--output", str(out)]
        code, err = _run_captured(argv)
        assert (code, err) == (1, f"error: {type(loaded.value).__name__}: {loaded.value}\n"), argv
        assert not out.exists()


def test_short_fit_row_is_a_domain_error(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("x,partial_sum,main_term,abs_err,rel_err\n100,1,2\n")
    code, err = _run_captured(["fit", "--input", str(path)])
    assert code == 1
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_non_finite_fit_error_is_a_domain_error(tmp_path, bad):
    """A row whose abs_err is not finite is named in one error line: it is
    neither fitted (inf gave a NaN slope, which is not JSON) nor skipped (nan)."""
    path = tmp_path / "series.csv"
    path.write_text(f"x,abs_err\n100,3.5\n1000,{bad}\n10000,130.0\n")
    code, err = _run_captured(["fit", "--input", str(path), "--format", "json"])
    assert (code, err) == (1, f"error: DomainError: {path}: abs_err must be finite, got '1000,{bad}'\n")


_SUBPARSERS = next(
    action.choices
    for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
_INTS = st.one_of(
    st.integers(-10, 1000),
    st.sampled_from([2**31, 2**32, 2**63, cli.LIMIT_CAP, cli.LIMIT_CAP + 1]),
    st.integers(-(10**30), 10**30),
).map(str)
_HOSTILE = st.sampled_from(["", ",", "nan", "inf", "1e-310", "1e308", "0.5", "1,2", "2,1", "3,4,400"])
_LISTS = st.lists(st.integers(-5, 10**9), max_size=4).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def _argv(draw, name):
    """Subcommand `name` with its required flags and some of its optional ones,
    each flag taken from that subcommand's own parser, with hostile values."""
    argv = [name]
    flags = [a for a in _SUBPARSERS[name]._actions if a.option_strings and a.dest != "help"]
    for action in draw(st.permutations(flags)):
        if not (action.required or draw(st.booleans())):
            continue
        argv.append(action.option_strings[0])
        if action.choices:
            argv.append(draw(st.sampled_from([*action.choices, "nan"])))
        elif action.type in (int, float):
            argv.append(draw(st.one_of(_INTS, _HOSTILE)))
        elif action.nargs != 0:  # a list or a path; store_true flags take no value
            argv.append(draw(st.one_of(_INTS, _HOSTILE, _LISTS)))
    return argv


def _stub_table(x, k=3, threads=1):
    return repcount.RepTable(order=k, limit=1, counts=np.array([1, 0]))


def _stub_series(*args):
    """Checkpoints whose relative error decays, for the grid (the last argument)."""
    return [verify.Checkpoint(x, 1, 1.0, 1.0 / x, 1.0 / x) for x in args[-1]]


def _stub_sweep(n, qs):
    return verify.TruncationSweep(n, 6, (verify.TruncationPoint(1, 1.0, 5.0, 5 / 6),))


_STUBS = [
    *((repcount, name, _stub_table) for name in ("build_r1", "build_r3_fold", "build_rk")),
    *((verify, name, _stub_series) for name in ("mean_value_series", "mean_square_series", "mean_square_general")),
    (verify, "singular_truncation_sweep", _stub_sweep),
    (singular, "series_blocks", lambda n, Q: iter([(1, np.ones(Q))])),
    (expsum, "weyl_sum", lambda alpha, n_terms: 0j),
    (expsum, "gauss_sum", lambda q, a: 0j),
    (constants, "constants_report", lambda direct_q, euler_q, orders: {"c3": 1.0}),
    (constants, "constants_extended", lambda digits, orders: {"c3": "1"}),
]


# inputs the fuzz below once failed on, kept as explicit examples
_FUZZ_FOUND = {
    # an order of 2^32 or more did not fit the binary header: struct.error
    "tables": [["tables", "--table-format", "binary", "--output", "0", "--limit", "1", "--k", "4294967296"]],
}


@pytest.mark.parametrize("name", sorted(_SUBPARSERS))
def test_flag_fuzz_ends_in_output_or_one_error_line(name):
    """Every argument vector ends in output, or in one error line with exit
    status 1 or 2 (after any `building ...` progress note), never a traceback.
    The builders and the series and sum functions are stubs, so no drawn limit
    does real work; each run happens in a fresh directory that holds a table
    file `1` and a series file `nan`."""

    @settings(max_examples=40)
    @given(argv=_argv(name))
    def check(argv):
        _run_stubbed(argv)

    for argv in _FUZZ_FOUND.get(name, []):
        check = example(argv=argv)(check)
    check()


def _run_stubbed(argv):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        for module, name, stub in _STUBS:
            mp.setattr(module, name, stub)
        pathlib.Path("1").write_text("n,count\n0,1\n1,6\n")
        pathlib.Path("nan").write_text("x,abs_err\n10,1\n100,5\n1000,30\n")
        code, err = _run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code and not err.startswith("usage: "):  # main's own report, not argparse's
        lines = [line for line in err.splitlines() if not line.startswith("building ")]
        assert len(lines) == 1 and lines[0].startswith(("usage error: ", "error: ")), (argv, err)


def _child_env():
    """This process's environment with the package's source directory first on
    PYTHONPATH, for a fresh interpreter: pytest has already loaded everything."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _child(code, *args, env=None, timeout=300):
    """Stdout of `python -c code args...` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env or _child_env(),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs cli.main(argv[1]) with its output discarded and prints the exit status
# and which of the modules named in argv[2] the process then holds.
_LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
from squaresums import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(code, sorted(set(json.loads(sys.argv[2])) & set(sys.modules)))
"""


def test_imports_load_no_constants_thread_pool_or_numpy(tmp_path):
    """Importing the CLI, --help and usage errors load no numpy and no compute
    module; each subcommand loads only the modules it runs."""
    loaded = "import sys, {}; print(sorted(set({!r}) & set(sys.modules)))".format
    compute = ["numpy", "squaresums._binary", "squaresums._fold", "squaresums._sieve", "squaresums._util",
               "squaresums.constants", "squaresums.expsum",
               "squaresums.repcount", "squaresums.singular", "squaresums.verify"]
    assert _child(loaded("squaresums.cli", ["concurrent.futures", "mpmath", *compute])) == "[]\n"
    assert _child(loaded("squaresums", ["numpy"])) == "[]\n"
    table, series = str(tmp_path / "t.csv"), tmp_path / "series.csv"
    series.write_text("x,abs_err\n100,3.5\n1000,20.25\n10000,130.0\n")
    for argv, code, unloaded in [
        (["--help"], 0, compute),
        (["nonsense"], 2, compute),
        (["verify-mean", "--limit", "0"], 2, compute),
        (["tables", "--limit", "100", "--output", table], 0,
         ["squaresums._sieve", "squaresums.constants", "squaresums.expsum", "squaresums.singular",
          "squaresums.verify"]),
        # two int32 fold tiles of 2^16 rows: two workers where there are two CPUs
        (["tables", "--limit", "600000", "--threads", "2", "--output", table], 0,
         ["concurrent.futures", "squaresums.verify"]),
        # the fold's class layout is loaded only by a fold build
        (["tables", "--limit", "100", "--builder", "convolution", "--output", table], 0, ["squaresums._fold"]),
        (["verify-meansquare", "--limit", "100", "--table", table], 0,
         ["squaresums._fold", "squaresums.expsum", "squaresums.singular"]),
        (["gauss", "--q", "12"], 0, ["squaresums._fold", "squaresums.repcount", "squaresums.singular",
                                     "squaresums.verify"]),
        (["weyl-sweep", "--n-terms", "40", "--grid", "0.25"], 0,
         ["squaresums._fold", "squaresums.repcount", "squaresums.singular", "squaresums.verify"]),
        (["verify-mean", "--limit", "1000"], 0, ["squaresums.expsum", "squaresums.singular"]),
        (["verify-meansquare", "--limit", "1000"], 0,
         ["mpmath", "squaresums._sieve", "squaresums.expsum", "squaresums.singular"]),
        (["verify-general", "--n", "4", "--limit", "1000"], 0,
         ["mpmath", "squaresums._sieve", "squaresums.expsum", "squaresums.singular"]),
        (["fit", "--input", str(series)], 0,
         ["mpmath", "numpy", "squaresums.constants", "squaresums.repcount", "squaresums.singular"]),
        (["constants", "--w-orders", "3,4", "--b1-euler-q", "1000"], 0,
         ["mpmath", "squaresums._util", "squaresums.repcount", "squaresums.singular", "squaresums.verify"]),
        (["constants", "--precision", "extended", "--digits", "30"], 0,
         ["mpmath", "squaresums._util", "squaresums.repcount", "squaresums.singular", "squaresums.verify"]),
    ]:
        assert _child(_LOADED_AFTER_MAIN, json.dumps(argv), json.dumps(unloaded)) == f"{code} []\n", argv


_NEEDS_BLAS_WORKERS = pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="reads /proc/self/task; OpenBLAS starts no worker on one CPU")


@_NEEDS_BLAS_WORKERS
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise():
    # numpy starts the OpenBLAS pool as it loads, and a handler loads it after `cli`
    probe = ("import os, {}; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))").format
    env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    assert _child(probe("squaresums.cli, numpy"), env=env).split() == ["1", "1"]
    two = dict(env, OPENBLAS_NUM_THREADS="2")
    assert _child(probe("squaresums.cli, numpy"), env=two).split() == ["2", "2"]
    assert _child(probe("squaresums.expsum"), env=env).split()[1] == "None"  # library: untouched


# Prints the CPU seconds that every thread but the main one spends during
# argv[2] v_sum calls at x = argv[1], once import-time thread start-up has
# settled, and then v(0) at that x.
_WORKER_CPU_OF_V_SUM = """
import os, sys, time
from squaresums import expsum

def workers_cpu():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                utime, stime = fh.read().rsplit(")", 1)[1].split()[11:13]
            ticks += int(utime) + int(stime)
    return ticks / os.sysconf("SC_CLK_TCK")

x, calls = int(sys.argv[1]), int(sys.argv[2])
time.sleep(0.5)
before = workers_cpu()
for i in range(calls):
    expsum.v_sum(i / 2e5, x)
print(workers_cpu() - before, expsum.v_sum(0.0, x).real)
"""


@_NEEDS_BLAS_WORKERS
def test_library_v_sum_wakes_no_blas_worker():
    """With OpenBLAS on its default thread count, v_sum leaves its workers idle."""
    env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    assert float(_child(_WORKER_CPU_OF_V_SUM, str(10**6), "50", env=env).split()[0]) < 0.02


@_NEEDS_BLAS_WORKERS
def test_library_v_sum_at_2e8_is_small_and_single_threaded(tmp_path):
    """At x = 2*10^8, where a row of the blocks is 14143 long, v_sum peaks
    under 64 MiB above the same process at x = 1, leaves OpenBLAS's workers
    idle, and sums v(0) as Euler-Maclaurin does."""
    env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    x = 2 * 10**8
    out, err = tmp_path / "out.txt", tmp_path / "err.txt"
    peaks = {}
    for n in (1, x):
        argv = [sys.executable, "-c", _WORKER_CPU_OF_V_SUM, str(n), "20"]
        code, peaks[n] = map(int, _child(_PEAK_SPAWNER, "300", str(out), str(err), *argv,
                                         env=env, timeout=360).split())
        assert code == 0, err.read_text()
    worker_cpu, v0 = map(float, out.read_text().split())
    assert peaks[x] - peaks[1] < 64 << 20, (peaks[x] - peaks[1]) / 2**20
    assert worker_cpu < 0.02, worker_cpu
    # sum_{m<=x} m^{-1/2} = 2 sqrt(x) + zeta(1/2) + x^{-1/2}/2 - x^{-3/2}/24 + O(x^{-7/2})
    zeta_half = -1.4603545088095868
    want = 0.5 * (2 * math.sqrt(x) + zeta_half + 0.5 / math.sqrt(x))
    assert abs(v0 - want) <= 1e-12 * want, (v0, want)


_RUN_IN_CHILD = """
import contextlib, hashlib, io, json, sys
from squaresums import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--reproducible"])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(json.dumps([code, "mpmath" in sys.modules, digest]))
"""


def test_no_package_module_imports_mpmath():
    """mpmath is a test dependency: no module of the package imports it, at
    module level or inside a function."""
    package = pathlib.Path(cli.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not [n for n in names if n.split(".")[0] == "mpmath"], (path.name, node.lineno)


# Public names of the package that no module of it uses, each with its reason.
_UNREFERENCED = {
    ("expsum", "f_star"): "the major-arc approximant S(q,a)/q v(beta): perfbench/libstep.py "
                          "times its scheme, and the sixth-moment check planned in ROADMAP.md "
                          "integrates it over the major arcs",
    ("singular", "i_exact_range"): "the exact singular integral I(n), which that sixth-moment "
                                   "check sums for J_box",
}


def test_every_public_name_is_used_in_the_package():
    """Every public top-level function or class of the package is named, as a
    name or an attribute, somewhere in its sources, but for _UNREFERENCED: a
    library entry no module calls is an oracle for the tests, and belongs in
    tests/oracles.py."""
    package = pathlib.Path(cli.__file__).resolve().parent
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = {(module, name) for module, name in defined if name not in used}
    assert unused == set(_UNREFERENCED), sorted(unused)


@pytest.mark.parametrize("last", [
    "constants --w-orders 3,4 --format csv",
    "constants --precision extended --digits 20 --w-orders 3,4 --format text",
])
def test_only_a_constant_loads_mpmath(last, tmp_path):
    """In one fresh process every subcommand runs without loading mpmath, C3
    and W_N in verify-meansquare and verify-general included; then `last`, a
    constants report, runs without it too, Gamma and the extended digits
    included. The name is kept from when `last` loaded mpmath for Gamma; now
    no run does. Stdout keeps its pins."""
    runs = [
        "tables --limit 400 --k 3 --output TABLE",
        "verify-mean --limit 400 --checkpoints 100,400 --format csv --table TABLE",
        "verify-mean --limit 10000 --checkpoints 100,300,1000,3000,10000 --output SERIES",
        "fit --input SERIES --format csv",
        "singular --n 1 --format csv",
        "gauss --q 12 --format csv",
        "weyl-sweep --n-terms 40 --grid 0.25 --format csv",
        "verify-meansquare --limit 30000 --format csv",
        "verify-general --n 4 --limit 2000 --checkpoints 100,300,1000,2000 --format csv",
        last,
    ]
    files = {"TABLE": str(tmp_path / "t.csv"), "SERIES": str(tmp_path / "series.csv")}
    argvs = [[files.get(arg, arg) for arg in run.split()] for run in runs]
    report = [json.loads(line) for line in _child(_RUN_IN_CHILD, json.dumps(argvs)).splitlines()]
    assert [code for code, _, _ in report] == [0] * len(runs)
    assert [loaded for _, loaded, _ in report] == [False] * len(runs)
    pins = {args: digest for args, _, digest in PINNED}
    keys = [run.replace(" --table TABLE", "") for run in runs]
    pinned = [(key, digest) for key, (_, _, digest) in zip(keys, report) if key in pins]
    assert len(pinned) == len(runs) - 2  # all but the two that write files
    assert all(digest == pins[key] for key, digest in pinned), pinned


# One pinned case of each subcommand, run through the process entry point.
_ENTRY_CASES = [
    "tables --limit 400 --k 3 --table-format binary",
    "verify-mean --limit 400 --checkpoints 100,400 --format json",
    "verify-meansquare --limit 30000 --format text",
    "verify-general --n 4 --limit 2000 --checkpoints 100,300,1000,2000 --format csv",
    "constants --w-orders 3,4 --format csv",
    "singular --n 1 --q-max 2000 --dump-terms --format json",
    "gauss --q 12 --format text",
    "weyl-sweep --n-terms 40 --grid 0.25 --format csv",
    "fit --input SERIES --format json",
]


def _entry(args, stdout=subprocess.PIPE):
    """`python -m squaresums.cli args` in a fresh interpreter whose stdout is
    block-buffered, so the output is still buffered when main returns."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "squaresums.cli", *args], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("case", _ENTRY_CASES, ids=[case.split()[0] for case in _ENTRY_CASES])
def test_entry_point_writes_the_pinned_bytes(case, tmp_path):
    """The entry point ends the process once main returns and the output is
    flushed: the pinned bytes reach stdout as a pipe, stdout as a regular
    file, and --output alike (for `tables`, --output with stdout either way)."""
    digest = next(digest for args, _, digest in PINNED if args == case)
    argv = case.split() + ["--reproducible"]
    if argv[0] == "fit":
        series = tmp_path / "series.csv"
        mean = ["verify-mean", "--limit", "10000", "--checkpoints", "100,300,1000,3000,10000"]
        assert run_cli(mean + ["--reproducible", "--output", str(series)]) == 0
        argv[argv.index("SERIES")] = str(series)
    tables = argv[0] == "tables"  # the table is its --output, and stdout stays empty
    output = lambda name: argv + ["--output", str(tmp_path / name)]  # noqa: E731
    with open(tmp_path / "stdout", "wb") as fh:
        procs = [_entry(output("piped") if tables else argv),
                 _entry(output("filed") if tables else argv, stdout=fh)]
    if not tables:
        procs.append(_entry(output("written")))
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs), outs
    note = [err.startswith(b"wrote ") and err.count(b"\n") == 1 if tables else err == b"" for _, err in outs]
    assert all(note), outs
    stdout = (tmp_path / "stdout").read_bytes()
    if tables:
        assert outs[0][0] == stdout == b""
        written = [(tmp_path / name).read_bytes() for name in ("piped", "filed")]
    else:
        assert outs[2][0] == b""
        written = [outs[0][0], stdout, (tmp_path / "written").read_bytes()]
    assert [hashlib.sha256(data).hexdigest() for data in written] == [digest] * len(written)


def test_entry_point_keeps_main_s_statuses(tmp_path):
    """0, 1 and 2 as main returns them, with their output, also when stdout
    was closed at start (sys.stdout is None); an exception that escapes main
    still ends in its traceback and status 1."""
    failing = "verify-mean --limit 2 --checkpoints 1,2 --format csv"
    procs = [_entry(["--help"]), _entry(failing.split() + ["--reproducible"]), _entry(["nonsense"])]
    (help_out, _), (out, err), (_, usage) = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 1, 2]
    assert help_out.startswith(b"usage: squaresums")
    digest = next(digest for args, _, digest in PINNED if args == failing)
    assert hashlib.sha256(out).hexdigest() == digest and err.startswith(b"assertion failed: ")
    assert usage.startswith(b"usage: squaresums")
    table = tmp_path / "t.csv"
    argv = [sys.executable, "-m", "squaresums.cli", "tables", "--limit", "400", "--output", str(table)]
    closed = subprocess.run(argv, env=_child_env(), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert closed.returncode == 0 and closed.stderr.startswith(b"wrote ") and table.stat().st_size
    raising = "from squaresums import cli; cli.main = lambda: 1 / 0; cli.run()"
    proc = subprocess.run([sys.executable, "-c", raising], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stderr.startswith("Traceback")
    assert proc.stderr.endswith("ZeroDivisionError: division by zero\n")


@pytest.mark.parametrize("size", ["buffered", "large"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
def test_a_failed_write_is_one_error_line(sink, size):
    """Stdout to a pipe whose read end is closed, or to /dev/full: one `error:`
    line and status 1, no traceback, whether the write fails in run's final
    flush (--help, still buffered when main returns) or inside main (2000
    rows, past the buffer)."""
    if sink == "dev-full":
        if not sys.platform.startswith("linux"):
            pytest.skip("/dev/full is Linux's")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
    args = ["--help"] if size == "buffered" else ["singular", "--n", "1", "--q-max", "2000", "--dump-terms"]
    try:
        proc = _entry(args, stdout=fd)
    finally:
        os.close(fd)
    _, err = proc.communicate(timeout=300)
    lines = err.decode().splitlines()
    assert proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error: "), err


def test_console_script_and_main_block_run_one_function():
    """The `squaresums` script and `python -m squaresums.cli` both call run()."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"squaresums": "squaresums.cli:run"}
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    blocks = [node.body for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["run()"]]


# Runs argv[4:] with stdout and stderr to the files argv[2] and argv[3], kills
# it after argv[1] seconds, and prints its exit status and peak RSS in bytes.
# A child started by vfork is charged the resident set of the process that
# started it, so the command starts from this small interpreter, not from pytest.
_PEAK_SPAWNER = """
import os, subprocess, sys, time
deadline = time.monotonic() + float(sys.argv[1])
with open(sys.argv[2], "wb") as out, open(sys.argv[3], "wb") as err:
    proc = subprocess.Popen(sys.argv[4:], stdout=out, stderr=err)
while not (waited := os.wait4(proc.pid, os.WNOHANG))[0]:  # the child's own rusage
    if time.monotonic() > deadline:
        proc.kill()
    time.sleep(0.05)
print(os.waitstatus_to_exitcode(waited[1]), waited[2].ru_maxrss * 1024)  # ru_maxrss is in KiB
"""


def _cli_peak(args, tmp_path, timeout=300):
    """Exit status, stdout, stderr and peak RSS in bytes of one
    `python -m squaresums.cli args` child process (wait4)."""
    out, err = tmp_path / "peak-out.txt", tmp_path / "peak-err.txt"
    argv = [sys.executable, "-m", "squaresums.cli", *args]
    code, peak = map(int, _child(_PEAK_SPAWNER, str(timeout), str(out), str(err), *argv,
                                 timeout=timeout + 60).split())
    return code, out.read_text(), err.read_text(), peak


_PEAK_LIMIT = 2 * 10**6


@pytest.fixture(scope="module")
def peak_tables(tmp_path_factory):
    """An r_3 table to 2*10^6 in both formats, and the peak RSS in bytes of an
    idle run: `verify-mean --limit 100` loads numpy and the package but does no
    work. A bare --help loads neither."""
    folder = tmp_path_factory.mktemp("peak")
    table = repcount.build_r3_fold(_PEAK_LIMIT)
    repcount.save_csv(table, folder / "r3.csv")
    repcount.save_binary(table, folder / "r3.bin")
    del table
    code, _, err, idle = _cli_peak(["verify-mean", "--limit", "100", "--reproducible"], folder)
    assert code == 0, err
    return folder, idle


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_reading_a_table_holds_one_block(peak_tables):
    """verify-mean and verify-meansquare --table at 2*10^6 entries, from CSV
    and from binary, peak under 2 MiB above an idle run: the file is summed
    one block at a time, and C3 is a double without mpmath (2.9 MiB)."""
    folder, idle = peak_tables
    for command in ("verify-mean", "verify-meansquare"):
        for name in ("r3.csv", "r3.bin"):
            args = [command, "--limit", str(_PEAK_LIMIT), "--table", str(folder / name), "--reproducible"]
            code, _, err, peak = _cli_peak(args, folder)
            assert code == 0, err
            assert peak - idle < 2 << 20, (command, name, (peak - idle) / 2**20)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_a_short_limit_reads_only_its_rows(peak_tables):
    """verify-mean --limit 1000 on the 2*10^6 table, from CSV and from binary:
    the output of a build to 1000, at a peak under 2 MiB above an idle run."""
    folder, idle = peak_tables
    args = ["verify-mean", "--limit", "1000", "--reproducible"]
    code, built, err, _ = _cli_peak(args, folder)
    assert code == 0, err
    for name in ("r3.csv", "r3.bin"):
        code, out, err, peak = _cli_peak([*args, "--table", str(folder / name)], folder)
        assert code == 0, err
        assert out == built
        assert peak - idle < 2 << 20, (name, (peak - idle) / 2**20)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_json_is_written_in_bounded_batches(peak_tables):
    """gauss --q 4096 as JSON, about 41 000 encoder chunks, peaks within
    0.5 MiB of the same rows as CSV: the chunks are joined and written 1024
    at a time. Peaks on a 2-CPU Xeon, medians of 7: JSON 29.49 MiB, CSV
    29.52, and JSON 31.5 while every write joined up to 65 536 chunks."""
    folder, idle = peak_tables
    peaks = {}
    for fmt in ("json", "csv"):
        code, _, err, peaks[fmt] = _cli_peak(["gauss", "--q", "4096", "--format", fmt, "--reproducible"], folder)
        assert code == 0, err
    assert peaks["json"] - peaks["csv"] < 1 << 19, {fmt: (peak - idle) / 2**20 for fmt, peak in peaks.items()}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "command, extra, output",
    [
        ("tables", ["--table-format", "binary"], "out.bin"),
        ("tables", [], "out.csv"),
        ("verify-meansquare", [], None),
    ],
    ids=["tables-binary", "tables-csv", "verify-meansquare"],
)
def test_a_fold_build_holds_8_bytes_per_entry(peak_tables, command, extra, output):
    """At 2*10^6 entries each peaks under 5 B per entry above an idle run: the
    fold writes r_3 over its int32 class layout of r_2, 3.5 B per entry, and
    the writers and the sums read it a block at a time. Measured on a 2-CPU
    Xeon: 3.3, 3.5 and 3.8 B per entry (3.9, 4.1 and 4.5 with a natural-order
    int32 table). The name is from when the lattice and the output were two
    int32 tables and the bound was 9 B."""
    folder, idle = peak_tables
    args = [command, "--limit", str(_PEAK_LIMIT), "--reproducible", *extra]
    if output:
        args += ["--output", str(folder / output)]
    code, _, err, peak = _cli_peak(args, folder)
    assert code == 0, err
    assert peak - idle < 5 * (_PEAK_LIMIT + 1), (peak - idle) / (_PEAK_LIMIT + 1)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "extra, limit, per_entry",
    [
        (["--builder", "convolution"], _PEAK_LIMIT, 4.5),
        (["--k", "8"], 5 * 10**5, 9),
    ],
    ids=["convolution", "r8"],
)
def test_a_convolution_build_widens_in_place(peak_tables, extra, limit, per_entry):
    """tables --table-format binary by convolution peaks under `per_entry` B
    per entry above an idle run: r_1's buffer is reserved at the final width
    (int32 for r_3 at 2*10^6, int64 for r_8 at 5*10^5) and each widening pass
    widens the table inside it. Measured on a 2-CPU Xeon: 3.8 and 7.1 B per
    entry (5.5 and 11.2 when a widening pass cast a copy)."""
    folder, idle = peak_tables
    args = ["tables", "--limit", str(limit), "--table-format", "binary", *extra,
            "--reproducible", "--output", str(folder / "out.bin")]
    code, _, err, peak = _cli_peak(args, folder)
    assert code == 0, err
    assert peak - idle < per_entry * (limit + 1), (peak - idle) / (limit + 1)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "args, q_flag, per_q",
    [
        (["constants"], "--b1-euler-q", 4),
        (["singular", "--n", "5", "--dump-terms", "--format", "text"], "--q-max", 5),
        (["singular", "--n", "5"], "--q-grid", 5),
        (["singular", "--n", "5", "--dump-terms", "--format", "csv"], "--q-max", 7),
        (["singular", "--n", "5", "--dump-terms", "--format", "json"], "--q-max", 7),
    ],
    ids=["constants", "singular-dump", "singular-sweep", "singular-dump-csv", "singular-dump-json"],
)
def test_a_sieve_holds_its_outputs_and_blocks(tmp_path, args, q_flag, per_q):
    """At Q = 2*10^6 each peaks under `per_q` B per q above the same command at
    Q = 1. The sieve holds its table of f at the primes up to Q / 2, Q / 4
    entries (1 B per q for the int32 totients, 2 for the float64 terms), and
    one block; the B1 sums, the dumps and the sweep hold no Q-sized array, and
    a CSV or JSON dump one block's rendered text besides. Measured on a 2-CPU
    Xeon: 1.0 (the B1 sums sieve in 2^14 blocks), 3.1, 2.9, 5.2 and 5.2 B per
    q (12.4, 17.0 and 16.5 with a whole-range sieve; the text dump 11.2 when
    it held its float64 terms, the CSV and JSON dumps 12.4 and 13.0)."""
    code, _, err, idle = _cli_peak([*args, q_flag, "1", "--reproducible"], tmp_path)
    assert code == 0, err
    code, _, err, peak = _cli_peak([*args, q_flag, str(_PEAK_LIMIT), "--reproducible"], tmp_path)
    assert code == 0, err
    assert peak - idle < per_q * _PEAK_LIMIT, (peak - idle) / _PEAK_LIMIT


@pytest.mark.slow
@pytest.mark.parametrize(
    "args, digest",
    [
        ("constants --b1-euler-q 10000000", "3715f3c9dec7bbea6e4c3b2e02df2d54a62e0e92cb831a739fa0ec1bcfd9b027"),
        ("singular --n 5 --q-max 10000000 --dump-terms --format text",
         "a6f4ba09bd56301c5dae5b3e17a0cd8dc8df048382f9b83c0b5cf7324fb54ffd"),
        ("singular --n 5 --q-max 10000000 --dump-terms --format csv",
         "cbabaff4dd8bb7fbfbfba470e1e30200d146d695d0e9cfc3551405d6e7843d17"),
        ("singular --n 5 --q-max 10000000 --dump-terms --format json",
         "0cddee9d342d8dd3ea7b26f0db2d2ede0a368251e5284b7e516eb24d768c2cbd"),
    ],
    ids=["constants", "singular-dump", "singular-dump-csv", "singular-dump-json"],
)
def test_sieve_outputs_pin_at_the_q_cap(args, digest, capsys):
    """The B1 sums and S3(5, Q) at Q = 10^7, the B1 sums as their exact sums
    rounded once, S3(5, Q) byte for byte as the whole-range sieve printed it
    (np.sum rounded it correctly there), and every term of the CSV and JSON
    dumps as they were printed when the dump held all Q terms."""
    assert run_cli([*args.split(), "--reproducible"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_reading_a_10_7_table_holds_one_block(tmp_path):
    """verify-meansquare --table r3.bin at 10^7 entries peaks under 4 MiB above
    the same command at --limit 100, and sums as a build of the table does."""
    table = tmp_path / "r3.bin"
    argv = ["tables", "--limit", str(10**7), "--table-format", "binary", "--output", str(table)]
    assert run_cli([*argv, "--reproducible"]) == 0
    args = ["verify-meansquare", "--reproducible", "--checkpoints", "100,65536,1000000,10000000"]
    code, _, err, idle = _cli_peak(["verify-meansquare", "--limit", "100", "--reproducible"], tmp_path)
    assert code == 0, err
    code, out, err, peak = _cli_peak([*args, "--limit", str(10**7), "--table", str(table)], tmp_path)
    assert code == 0, err
    assert peak - idle < 4 << 20, (peak - idle) / 2**20
    assert out == _cli_peak([*args, "--limit", str(10**7)], tmp_path)[1]


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_a_10_7_convolution_build_widens_in_place(tmp_path):
    """tables --builder convolution --limit 10^7 peaks under 4.5 B per entry
    above an idle run: the int16 r_2 widens to int32 inside r_1's buffer."""
    code, _, err, idle = _cli_peak(["verify-mean", "--limit", "100", "--reproducible"], tmp_path)
    assert code == 0, err
    args = ["tables", "--builder", "convolution", "--limit", str(10**7), "--table-format", "binary",
            "--reproducible", "--output", str(tmp_path / "r3c.bin")]
    code, _, err, peak = _cli_peak(args, tmp_path, timeout=600)
    assert code == 0, err
    assert peak - idle < 4.5 * (10**7 + 1), (peak - idle) / (10**7 + 1)


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_a_10_7_fold_build_holds_its_class_layout(tmp_path):
    """tables --limit 10^7 by the fold peaks under 4 B per entry above an idle
    run: the int32 class layout holds 3.5 B per entry, a pass one scratch
    tile. Its binary is the convolution route's, byte for byte."""
    code, _, err, idle = _cli_peak(["verify-mean", "--limit", "100", "--reproducible"], tmp_path)
    assert code == 0, err
    args = ["tables", "--limit", str(10**7), "--table-format", "binary", "--reproducible"]
    code, _, err, peak = _cli_peak([*args, "--output", str(tmp_path / "r3.bin")], tmp_path, timeout=600)
    assert code == 0, err
    assert peak - idle < 4 * (10**7 + 1), (peak - idle) / (10**7 + 1)
    assert run_cli([*args, "--builder", "convolution", "--output", str(tmp_path / "r3c.bin")]) == 0
    assert filecmp.cmp(tmp_path / "r3.bin", tmp_path / "r3c.bin", shallow=False)


@pytest.mark.slow
def test_mean_square_pins_at_the_limit_cap(tmp_path):
    """verify-meansquare to 10^8 in a child process: the three exact sums, and a
    peak RSS under 4 B per entry: the fold writes r_3 over its int32 class
    layout, 3.5 B per entry. About 45 s and 364 MiB (3.82 B per entry, idle
    process included) on a 2-CPU Xeon, so the bound leaves 0.18 B per entry
    (17 MiB); with a natural-order int32 table it took 412 MiB."""
    args = ["verify-meansquare", "--limit", str(cli.LIMIT_CAP),
            "--checkpoints", "10000000,30000000,100000000", "--threads", "2", "--reproducible"]
    code, out, err, peak = _cli_peak(args, tmp_path, timeout=1800)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {int(row[0]): int(row[1]) for row in rows} == {
        10**7: 3086621138233288,
        3 * 10**7: 27781252986786420,
        10**8: 308691920648216368,
    }
    assert peak < 4 * (cli.LIMIT_CAP + 1)
