"""Command-line behavior: formats, exit codes, reproducibility."""

import json
import math

import pytest

from squaresums import cli, expsum, singular


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
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()


def test_singular_q_above_cap_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("singular series started above the cap")

    monkeypatch.setattr(singular, "singular_series_many", refuse)
    monkeypatch.setattr(singular, "singular_series", refuse)
    over = str(cli.Q_CAP + 1)
    assert run_cli(["singular", "--n", "1", "--q-max", over, "--dump-terms"]) == 2
    assert run_cli(["singular", "--n", "1", "--q-grid", f"1,{over}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("exceeds" in line for line in err)


def test_weyl_and_gauss_above_caps_fail_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("exponential sum started above the cap")

    for name in ("weyl_sum", "gauss_sum", "gauss_magnitude_closed"):
        monkeypatch.setattr(expsum, name, refuse)
    over_terms = str(cli.N_TERMS_CAP + 1)
    fine_grid = repr(1.0 / (cli.GRID_POINTS_CAP + 1))
    assert run_cli(["weyl-sweep", "--n-terms", over_terms, "--grid", "1"]) == 2
    assert run_cli(["weyl-sweep", "--n-terms", "1", "--grid", fine_grid]) == 2
    assert run_cli(["gauss", "--q", str(cli.GAUSS_Q_CAP + 1)]) == 2
    assert run_cli(["gauss", "--q", str(cli.GAUSS_Q_CAP + 1), "--a", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all("exceeds" in line or "more than" in line for line in err)
    # the caps themselves are accepted
    parse = cli.build_parser().parse_args
    at_cap = parse(["weyl-sweep", "--n-terms", str(cli.N_TERMS_CAP), "--grid", "1e-6"])
    assert cli._config_from_args(at_cap).n_terms == cli.N_TERMS_CAP
    assert cli._config_from_args(parse(["gauss", "--q", str(cli.GAUSS_Q_CAP)])).q == cli.GAUSS_Q_CAP


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


def test_override_limit_flag_is_honored():
    # the cap rejects, the override accepts; keep the actual size tiny by
    # pointing at a checkpoint grid that the table must cover anyway
    assert cli.LIMIT_CAP == 10**8
    cfg = cli._config_from_args(
        cli.build_parser().parse_args(
            ["verify-mean", "--limit", "300000000", "--override-limit", "--checkpoints", "100"]
        )
    )
    assert cfg.limit == 300000000
    assert cfg.override_limit is True
