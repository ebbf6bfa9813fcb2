"""Command-line frontend.

Orchestrates table builds, asymptotic verification runs, constant reports,
singular-series sweeps, and exponential-sum profiles. Machine-readable output
(CSV/JSON) goes to stdout or --output; progress notes go to stderr only.
Exit status: 0 success, 1 computation or assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from types import SimpleNamespace

from . import constants, expsum, repcount, singular, verify
from .errors import DomainError, InsufficientPointsError, SquaresumsError, TableTooShortError
from ._util import format_real

LIMIT_CAP = 10**8
Q_CAP = 10**7  # singular series memory grows linearly in Q: about 0.75 GB at the cap
N_TERMS_CAP = 10**7  # weyl_sum holds about 40 B per term: about 0.4 GB at the cap
GRID_POINTS_CAP = 10**6  # weyl-sweep evaluates ceil(1 / --grid) points
GAUSS_Q_CAP = 2**16  # listing S(q, a) for every coprime a costs O(q^2)


class CliUsageError(Exception):
    """Bad flag combination or value; maps to exit status 2."""


@dataclass
class RunConfig:
    """Validated run parameters for one subcommand invocation."""

    subcommand: str
    limit: int | None = None
    order: int | None = None
    q_max: int | None = None
    checkpoints: list[int] | None = None
    output_format: str = "text"
    output: str | None = None
    threads: int = 1
    precision: str = "double"
    reproducible: bool = False
    override_limit: bool = False
    builder: str = "auto"
    table_path: str | None = None
    table_format: str = "csv"
    n: int | None = None
    q: int | None = None
    a: int | None = None
    q_grid: list[int] | None = None
    dump_terms: bool = False
    n_terms: int = 1000
    grid_step: float = 0.01
    input_path: str | None = None
    digits: int = 30
    b1_direct_q: int = 4096
    b1_euler_q: int = 10**6
    w_orders: list[int] = field(default_factory=lambda: [3, 4, 5, 6])


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CliUsageError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise CliUsageError(f"{flag} is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squaresums",
        description="Exact sums-of-squares tables and asymptotic verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(sp, default_format="text"):
        sp.add_argument(
            "--format",
            dest="output_format",
            choices=("csv", "json", "text"),
            default=default_format,
        )
        sp.add_argument("--output", help="write result to this file instead of stdout")
        sp.add_argument(
            "--reproducible",
            action="store_true",
            help="omit timestamps so identical runs are byte-identical",
        )

    def add_build(sp):
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument(
            "--override-limit",
            action="store_true",
            help=f"allow --limit beyond {LIMIT_CAP}",
        )

    sp = sub.add_parser("tables", help="build a count table and export it")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--k", type=int, default=3, help="number of squares")
    sp.add_argument(
        "--builder",
        choices=("auto", "convolution", "fold", "positive-only"),
        default="auto",
    )
    sp.add_argument("--table-format", choices=("csv", "binary"), default="csv")
    sp.add_argument("--output", required=True)
    sp.add_argument("--reproducible", action="store_true")
    add_build(sp)

    for name, help_text in (
        ("verify-mean", "partial sums of r_3 against (4/3) pi x^{3/2}"),
        ("verify-meansquare", "partial sums of r_3^2 against C3 x^2"),
        ("verify-general", "partial sums of r_N^2 against W_N x^{N-1}"),
    ):
        sp = sub.add_parser(name, help=help_text)
        if name == "verify-general":
            sp.add_argument("--n", type=int, required=True, help="number of squares N > 3")
        sp.add_argument("--limit", type=int, required=True)
        sp.add_argument("--checkpoints", help="comma-separated ascending x values")
        sp.add_argument("--table", dest="table_path", help="load table instead of building")
        sp.add_argument(
            "--builder", choices=("auto", "convolution", "fold"), default="auto"
        )
        add_build(sp)
        add_io(sp, default_format="csv")

    sp = sub.add_parser("constants", help="report B1, C3, W_N and the spectral assembly")
    sp.add_argument("--b1-direct-q", type=int, default=4096)
    sp.add_argument("--b1-euler-q", type=int, default=10**6)
    sp.add_argument("--w-orders", default="3,4,5,6")
    sp.add_argument("--precision", choices=("double", "extended"), default="double")
    sp.add_argument("--digits", type=int, default=30, help="extended-precision digits")
    add_io(sp, default_format="text")

    sp = sub.add_parser("singular", help="singular-series truncations for one n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q-grid", help="comma-separated truncation levels")
    sp.add_argument("--q-max", type=int)
    sp.add_argument(
        "--dump-terms",
        action="store_true",
        help="emit every A(q,n) for q <= q-max instead of a sweep",
    )
    add_io(sp, default_format="csv")

    sp = sub.add_parser("gauss", help="quadratic Gauss sum values for one modulus")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int)
    add_io(sp, default_format="text")

    sp = sub.add_parser("weyl-sweep", help="|f(alpha)| profile over an alpha grid")
    sp.add_argument("--n-terms", type=int, default=1000)
    sp.add_argument("--grid", type=float, default=0.01, help="alpha step size")
    add_io(sp, default_format="csv")

    sp = sub.add_parser("fit", help="re-fit the error exponent from an exported CSV")
    sp.add_argument("--input", dest="input_path", required=True)
    add_io(sp, default_format="text")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if cfg.subcommand == "tables":
        cfg.order = args.k
    if cfg.subcommand == "verify-general":
        cfg.order = args.n
        if cfg.order <= 3:
            raise CliUsageError("--n must be > 3 for verify-general")
    if cfg.subcommand in ("tables", "verify-mean", "verify-meansquare", "verify-general"):
        if cfg.limit is None or cfg.limit < 1:
            raise CliUsageError("--limit must be a positive integer")
        if cfg.limit > LIMIT_CAP and not cfg.override_limit:
            raise CliUsageError(
                f"--limit {cfg.limit} exceeds {LIMIT_CAP}; pass --override-limit to proceed"
            )
        if cfg.threads < 1:
            raise CliUsageError("--threads must be >= 1")
    if getattr(args, "checkpoints", None):
        xs = _parse_int_list(args.checkpoints, "--checkpoints")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise CliUsageError("--checkpoints must be strictly ascending")
        if xs[0] < 1:
            raise CliUsageError("--checkpoints must be >= 1")
        if xs[-1] > cfg.limit:
            raise CliUsageError(
                f"checkpoint {xs[-1]} exceeds --limit {cfg.limit}"
            )
        cfg.checkpoints = xs
    if cfg.subcommand == "tables":
        if args.builder in ("fold", "positive-only") and cfg.order != 3:
            raise CliUsageError(f"--builder {args.builder} requires --k 3")
    if cfg.subcommand == "constants":
        if args.b1_direct_q < 1 or args.b1_euler_q < 1:
            raise CliUsageError("B1 truncation levels must be >= 1")
        cfg.w_orders = _parse_int_list(args.w_orders, "--w-orders")
        if min(cfg.w_orders) < 3:
            raise CliUsageError("--w-orders entries must be >= 3")
        if cfg.digits < 1:
            raise CliUsageError("--digits must be >= 1")
    if cfg.subcommand == "singular":
        if cfg.n is None or cfg.n < 1:
            raise CliUsageError("--n must be >= 1")
        if args.q_grid:
            cfg.q_grid = _parse_int_list(args.q_grid, "--q-grid")
            if min(cfg.q_grid) < 1:
                raise CliUsageError("--q-grid entries must be >= 1")
        if cfg.dump_terms:
            if cfg.q_max is None:
                raise CliUsageError("--dump-terms requires --q-max")
        if cfg.q_max is not None and cfg.q_max < 1:
            raise CliUsageError("--q-max must be >= 1")
        if cfg.q_max is not None and cfg.q_max > Q_CAP:
            raise CliUsageError(f"--q-max {cfg.q_max} exceeds {Q_CAP}")
        if cfg.q_grid and max(cfg.q_grid) > Q_CAP:
            raise CliUsageError(f"--q-grid entry {max(cfg.q_grid)} exceeds {Q_CAP}")
    if cfg.subcommand == "gauss":
        if cfg.q < 1:
            raise CliUsageError("--q must be >= 1")
        if cfg.q > GAUSS_Q_CAP:
            raise CliUsageError(f"--q {cfg.q} exceeds {GAUSS_Q_CAP}")
    if cfg.subcommand == "weyl-sweep":
        cfg.grid_step = float(args.grid)
        if cfg.n_terms < 1:
            raise CliUsageError("--n-terms must be >= 1")
        if cfg.n_terms > N_TERMS_CAP:
            raise CliUsageError(f"--n-terms {cfg.n_terms} exceeds {N_TERMS_CAP}")
        if not 0.0 < cfg.grid_step <= 1.0:
            raise CliUsageError("--grid must be in (0, 1]")
        if math.ceil(1.0 / cfg.grid_step) > GRID_POINTS_CAP:
            raise CliUsageError(
                f"--grid {cfg.grid_step} gives more than {GRID_POINTS_CAP} points"
            )
    return cfg


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(cfg: RunConfig, lines: list[str]) -> None:
    head = [] if cfg.reproducible else [f"# generated {_timestamp()}"]
    _write_text(cfg, "\n".join(head + lines) + "\n")


def _emit_json(cfg: RunConfig, obj: dict) -> None:
    if not cfg.reproducible:
        obj = dict(obj)
        obj["generated"] = _timestamp()
    _write_text(cfg, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _progress(cfg: RunConfig, message: str) -> None:
    if cfg.limit is not None and cfg.limit >= 10**6:
        print(message, file=sys.stderr)


def _build_table(cfg: RunConfig, k: int) -> repcount.RepTable:
    builder = cfg.builder
    if builder == "auto":
        builder = "fold" if k == 3 else "convolution"
    _progress(cfg, f"building order-{k} table to {cfg.limit} ({builder})")
    if builder == "fold":
        if k != 3:
            raise CliUsageError("--builder fold requires order 3")
        return repcount.build_r3_fold(cfg.limit, threads=cfg.threads)
    if builder == "positive-only":
        return repcount.build_rstar(cfg.limit, threads=cfg.threads)
    return repcount.build_rk(cfg.limit, k, threads=cfg.threads)


def _obtain_table(cfg: RunConfig, k: int) -> repcount.RepTable:
    if not cfg.table_path:
        return _build_table(cfg, k)
    with open(cfg.table_path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"RKTB":
        table = repcount.load_binary(cfg.table_path)
    else:
        table = repcount.load_csv(cfg.table_path, order=k)
    if table.order != k:
        raise DomainError(
            f"table {cfg.table_path} has order {table.order}, expected {k}"
        )
    if table.limit < cfg.limit:
        raise TableTooShortError(
            f"table limit {table.limit} is below --limit {cfg.limit}"
        )
    return table


def _handle_tables(cfg: RunConfig) -> int:
    table = _build_table(cfg, cfg.order)
    if cfg.table_format == "binary":
        repcount.save_binary(table, cfg.output)
    else:
        comment = None if cfg.reproducible else f"generated {_timestamp()}"
        repcount.save_csv(table, cfg.output, header_comment=comment)
    print(
        f"wrote order-{table.order} table (limit {table.limit}, "
        f"{table.builder_tag}) to {cfg.output}",
        file=sys.stderr,
    )
    return 0


def _series_text(cps, fit) -> str:
    lines = [f"{'x':>12} {'partial_sum':>20} {'main_term':>24} {'rel_err':>12}"]
    for c in cps:
        lines.append(
            f"{c.x:>12} {c.partial_sum:>20} {c.main_term:>24.6f} {c.rel_err:>12.3e}"
        )
    if fit is not None:
        lines.append(
            f"error-exponent fit: slope {fit.slope:.6f}, intercept "
            f"{fit.intercept:.6f}, r^2 {fit.r_squared:.6f} "
            f"({fit.points_used} points)"
        )
    return "\n".join(lines) + "\n"


def _handle_verify(cfg: RunConfig) -> int:
    if cfg.subcommand == "verify-mean":
        k, series_of = 3, lambda t, xs: verify.mean_value_series(t, xs)
    elif cfg.subcommand == "verify-meansquare":
        k, series_of = 3, lambda t, xs: verify.mean_square_series(t, xs)
    else:
        k = cfg.order
        series_of = lambda t, xs: verify.mean_square_general(k, t, xs)
    xs = cfg.checkpoints or verify.geometric_checkpoints(cfg.limit)
    table = _obtain_table(cfg, k)
    cps = series_of(table, xs)
    try:
        fit = verify.fit_error_exponent(cps)
    except InsufficientPointsError:
        fit = None
    if cfg.output_format == "csv":
        _emit_csv(cfg, verify.series_csv_lines(cps))
    elif cfg.output_format == "json":
        _emit_json(
            cfg, {"series": verify.checkpoint_dicts(cps), "fit": verify.fit_dict(fit)}
        )
    else:
        _write_text(cfg, _series_text(cps, fit))
    if len(cps) >= 2 and not cps[-1].rel_err < cps[0].rel_err:
        print(
            f"assertion failed: rel_err did not decay "
            f"({cps[0].rel_err:.3e} at x={cps[0].x} -> "
            f"{cps[-1].rel_err:.3e} at x={cps[-1].x})",
            file=sys.stderr,
        )
        return 1
    return 0


def _constants_obj(cfg: RunConfig, report: constants.ConstantsReport) -> dict:
    obj = {
        "b1_direct_at_Q": {"value": report.b1_direct_at_Q, "Q": report.b1_direct_Q},
        "b1_euler_at_Q": {"value": report.b1_euler_at_Q, "Q": report.b1_euler_Q},
        "b1_closed": report.b1_closed,
        "c3": report.c3,
        "w_values": {str(n): v for n, v in sorted(report.w_values.items())},
        "muller_b": report.muller_b,
        "assembly_components": dict(sorted(report.assembly_components.items())),
    }
    if cfg.precision == "extended":
        obj["extended"] = constants.constants_extended(cfg.digits, tuple(sorted(report.w_values)))
    return obj


def _flatten(obj: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _handle_constants(cfg: RunConfig) -> int:
    report = constants.constants_report(cfg.b1_direct_q, cfg.b1_euler_q, cfg.w_orders)
    obj = _constants_obj(cfg, report)
    if cfg.output_format == "json":
        _emit_json(cfg, obj)
    elif cfg.output_format == "csv":
        lines = ["name,value"]
        for name, value in _flatten(obj):
            text = format_real(value) if isinstance(value, float) else str(value)
            lines.append(f"{name},{text}")
        _emit_csv(cfg, lines)
    else:
        width = max(len(name) for name, _ in _flatten(obj))
        lines = []
        for name, value in _flatten(obj):
            text = format_real(value) if isinstance(value, float) else str(value)
            lines.append(f"{name:<{width}}  {text}")
        _write_text(cfg, "\n".join(lines) + "\n")
    return 0


def _handle_singular(cfg: RunConfig) -> int:
    if cfg.dump_terms:
        trunc = singular.singular_series(cfg.n, cfg.q_max)
        if cfg.output_format == "json":
            _emit_json(
                cfg,
                {
                    "n": trunc.n,
                    "Q": trunc.Q,
                    "value": trunc.value,
                    "terms": list(map(float, trunc.terms)),
                },
            )
        elif cfg.output_format == "text":
            _write_text(
                cfg,
                f"S3(n={trunc.n}, Q={trunc.Q}) = {format_real(trunc.value)}\n",
            )
        else:
            _emit_csv(cfg, singular.truncation_csv_lines(trunc))
        return 0
    grid = cfg.q_grid or [1, 10, 100, 1000]
    sweep = verify.singular_truncation_sweep(cfg.n, grid)
    if cfg.output_format == "json":
        _emit_json(
            cfg,
            {
                "n": sweep.n,
                "r3": sweep.r3,
                "points": [
                    {
                        "Q": p.Q,
                        "bateman": p.bateman,
                        "abs_err": p.abs_err,
                        "rel_err": None if math.isnan(p.rel_err) else p.rel_err,
                    }
                    for p in sweep.points
                ],
            },
        )
    elif cfg.output_format == "text":
        lines = [f"n = {sweep.n}, exact r3 = {sweep.r3}"]
        for p in sweep.points:
            lines.append(
                f"Q={p.Q:>8}  bateman={p.bateman:>14.6f}  rel_err={p.rel_err:.3e}"
            )
        _write_text(cfg, "\n".join(lines) + "\n")
    else:
        _emit_csv(cfg, verify.sweep_csv_lines(sweep))
    return 0


def _handle_gauss(cfg: RunConfig) -> int:
    closed = expsum.gauss_magnitude_closed(cfg.q)
    if cfg.a is not None:
        a_values = [cfg.a]
    else:
        a_values = [a for a in range(1, cfg.q + 1) if math.gcd(a, cfg.q) == 1]
    rows = []
    for a in a_values:
        s = expsum.gauss_sum(cfg.q, a)
        rows.append((a, s.real, s.imag, abs(s)))
    if cfg.output_format == "json":
        _emit_json(
            cfg,
            {
                "q": cfg.q,
                "closed_magnitude": closed,
                "values": [
                    {"a": a, "re": re, "im": im, "magnitude": mag}
                    for a, re, im, mag in rows
                ],
            },
        )
    elif cfg.output_format == "csv":
        lines = ["a,re,im,magnitude"]
        for a, re, im, mag in rows:
            lines.append(
                f"{a},{format_real(re)},{format_real(im)},{format_real(mag)}"
            )
        _emit_csv(cfg, lines)
    else:
        lines = [f"q = {cfg.q}, closed-form magnitude for coprime a: {closed:.12g}"]
        for a, re, im, mag in rows:
            lines.append(f"a={a:>6}  S = {re:+.12f} {im:+.12f}i  magnitude {mag:.12f}")
        _write_text(cfg, "\n".join(lines) + "\n")
    return 0


def _handle_weyl(cfg: RunConfig) -> int:
    count = math.ceil(1.0 / cfg.grid_step)
    rows = []
    for i in range(count):
        alpha = i * cfg.grid_step
        if alpha >= 1.0:
            break
        f = expsum.weyl_sum(alpha, cfg.n_terms)
        rows.append((alpha, f.real, f.imag, abs(f)))
    if cfg.output_format == "json":
        _emit_json(
            cfg,
            {
                "n_terms": cfg.n_terms,
                "values": [
                    {"alpha": alpha, "re": re, "im": im, "magnitude": mag}
                    for alpha, re, im, mag in rows
                ],
            },
        )
    elif cfg.output_format == "text":
        lines = [f"f(alpha) over {len(rows)} grid points, N = {cfg.n_terms}"]
        for alpha, _, _, mag in rows:
            lines.append(f"alpha={alpha:<12.6f} |f|={mag:.6f}")
        _write_text(cfg, "\n".join(lines) + "\n")
    else:
        lines = ["alpha,re,im,magnitude"]
        for alpha, re, im, mag in rows:
            lines.append(
                f"{format_real(alpha)},{format_real(re)},"
                f"{format_real(im)},{format_real(mag)}"
            )
        _emit_csv(cfg, lines)
    return 0


def _handle_fit(cfg: RunConfig) -> int:
    points = []
    with open(cfg.input_path, newline="") as fh:
        header = None
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                if "x" not in header or "abs_err" not in header:
                    raise DomainError(
                        f"{cfg.input_path} lacks x/abs_err columns: {header}"
                    )
                xi, ei = header.index("x"), header.index("abs_err")
                continue
            if not parts[0].lstrip("-").isdigit():
                continue  # footer or non-data row
            points.append(
                SimpleNamespace(x=int(parts[xi]), abs_err=float(parts[ei]))
            )
    fit = verify.fit_error_exponent(points)
    if cfg.output_format == "json":
        _emit_json(cfg, {"fit": verify.fit_dict(fit)})
    elif cfg.output_format == "csv":
        lines = [
            "slope,intercept,r_squared,points_used",
            f"{format_real(fit.slope)},{format_real(fit.intercept)},"
            f"{format_real(fit.r_squared)},{fit.points_used}",
        ]
        _emit_csv(cfg, lines)
    else:
        _write_text(
            cfg,
            f"slope {fit.slope:.6f}, intercept {fit.intercept:.6f}, "
            f"r^2 {fit.r_squared:.6f} ({fit.points_used} points)\n",
        )
    return 0


_HANDLERS = {
    "tables": _handle_tables,
    "verify-mean": _handle_verify,
    "verify-meansquare": _handle_verify,
    "verify-general": _handle_verify,
    "constants": _handle_constants,
    "singular": _handle_singular,
    "gauss": _handle_gauss,
    "weyl-sweep": _handle_weyl,
    "fit": _handle_fit,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    handler = _HANDLERS[config.subcommand]
    return handler(config)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SquaresumsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
