"""Command-line frontend.

Orchestrates table builds, asymptotic verification runs, constant reports,
singular-series sweeps, and exponential-sum profiles. Each handler returns its
result as data (a Result); `_emit` alone renders it as CSV, JSON or text and
writes it to stdout or, atomically, to --output. Progress notes go to stderr.
Exit status: 0 success, 1 computation or assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict, astuple, dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, islice

# No subcommand calls BLAS, so this only stops the worker threads OpenBLAS
# starts and spins when numpy loads: 0.06-0.09 s of CPU per process. Set before
# any handler imports numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# numpy and the compute modules are imported by the handler that runs them, so
# parsing, --help and usage errors load neither, and a subcommand loads only its own.
from .errors import InsufficientPointsError, SquaresumsError

LIMIT_CAP = 10**8
Q_CAP = 10**7  # singular series memory grows linearly in Q: 183 MiB peak RSS at the cap
N_TERMS_CAP = 10**7  # weyl_sum holds about 40 B per term: about 0.4 GB at the cap
GRID_POINTS_CAP = 10**6  # weyl-sweep evaluates ceil(1 / --grid) points
WEYL_TERMS_CAP = 10**9  # --n-terms times the points: weyl_sum takes about 65 ns a term, 65 s at the cap
GAUSS_Q_CAP = 2**16  # listing S(q, a) for every coprime a costs O(q^2)
B1_Q_CAP = 10**7  # the B1 totient sieves: 0.8 s and 148 MiB peak RSS at the cap
W_ORDER_CAP = 198  # bounds --w-orders, and --k and --n (an order-k build is k - 1 passes)
DIGITS_CAP = 1000  # every W_N up to W_ORDER_CAP to 1000 digits takes about 5 s


class CliUsageError(Exception):
    """Bad flag combination or value; maps to exit status 2."""


@dataclass
class Result:
    """One subcommand's output as data. `rows` (one value per column) is read
    once, by the CSV or the JSON writer, so it may be lazy; JSON lists them as
    objects under `json_key` (if set) beside the top-level `extras`, leaving out
    columns that are extras keys. `text` returns the text lines. `csv_body`, if
    set, returns the CSV lines below the header, rendered in chunks, in place of
    `rows`. A `failure` is printed to stderr after the output and makes the exit
    status 1."""

    columns: tuple[str, ...]
    rows: Iterable[tuple]
    text: Callable[[], Iterable[str]]
    json_key: str | None = None
    extras: dict = field(default_factory=dict)
    failure: str | None = None
    csv_body: Callable[[], Iterable[str]] | None = None


def _require(ok, message: str) -> None:
    if not ok:
        raise CliUsageError(message)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CliUsageError(f"{flag} expects comma-separated integers, got {text!r}")
    _require(values, f"{flag} is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    description = "Exact sums-of-squares tables and asymptotic verification."
    parser = argparse.ArgumentParser(prog="squaresums", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(sp, default_format):
        formats = ("csv", "json", "text")
        sp.add_argument("--format", dest="output_format", choices=formats, default=default_format)
        sp.add_argument("--output", help="write result to this file instead of stdout")
        reproducible_help = "omit timestamps so identical runs are byte-identical"
        sp.add_argument("--reproducible", action="store_true", help=reproducible_help)

    def add_build(sp):
        sp.add_argument("--threads", type=int, default=1)
        limit_help = f"allow --limit beyond {LIMIT_CAP}"
        sp.add_argument("--override-limit", action="store_true", help=limit_help)

    sp = sub.add_parser("tables", help="build a count table and export it")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--k", type=int, default=3, help="number of squares")
    sp.add_argument("--builder", choices=("auto", "convolution", "fold"), default="auto")
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
        add_build(sp)
        add_io(sp, "csv")
    sp = sub.add_parser("constants", help="report B1, C3, W_N and the spectral assembly")
    sp.add_argument("--b1-direct-q", type=int, default=4096)
    sp.add_argument("--b1-euler-q", type=int, default=10**6)
    sp.add_argument("--w-orders", default="3,4,5,6")
    sp.add_argument("--precision", choices=("double", "extended"), default="double")
    sp.add_argument("--digits", type=int, default=30, help="extended-precision digits")
    add_io(sp, "text")
    sp = sub.add_parser("singular", help="singular-series truncations for one n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q-grid", help="comma-separated truncation levels")
    sp.add_argument("--q-max", type=int)
    dump_help = "emit every A(q,n) for q <= q-max instead of a sweep"
    sp.add_argument("--dump-terms", action="store_true", help=dump_help)
    add_io(sp, "csv")
    sp = sub.add_parser("gauss", help="quadratic Gauss sum values for one modulus")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int)
    add_io(sp, "text")
    sp = sub.add_parser("weyl-sweep", help="|f(alpha)| profile over an alpha grid")
    sp.add_argument("--n-terms", type=int, default=1000)
    sp.add_argument("--grid", type=float, default=0.01, help="alpha step size")
    add_io(sp, "csv")
    sp = sub.add_parser("fit", help="re-fit the error exponent from an exported CSV")
    sp.add_argument("--input", dest="input_path", required=True)
    add_io(sp, "text")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate the parsed flags, parse the list flags in place, and return `args`."""
    cmd = args.subcommand
    if cmd == "verify-general":
        _require(args.n > 3, "--n must be > 3 for verify-general")
        _require(args.n <= W_ORDER_CAP, f"--n {args.n} exceeds {W_ORDER_CAP}")
    if cmd == "tables":
        _require(args.k >= 1, "--k must be >= 1")
        _require(args.k <= W_ORDER_CAP, f"--k {args.k} exceeds {W_ORDER_CAP}")
        _require(args.k == 3 or args.builder != "fold", "--builder fold requires --k 3")
    if cmd in ("tables", "verify-mean", "verify-meansquare", "verify-general"):
        _require(args.limit >= 1, "--limit must be a positive integer")
        over = f"--limit {args.limit} exceeds {LIMIT_CAP}; pass --override-limit to proceed"
        _require(args.limit <= LIMIT_CAP or args.override_limit, over)
        _require(args.threads >= 1, "--threads must be >= 1")
        # The memory check covers builds only: a --table read holds one block of the
        # file at any limit. 32 B per entry bounds each measured build's peak RSS
        # above a CLI process that has loaded numpy and the package but done no
        # work (29 MiB; a bare --help is 16 MiB): 8 B for the fold's tables and
        # verify-meansquare at 10^6..10^8 (the int32 lattice and fold output),
        # 10 B for r_4, about 20 B for r_8
        if not getattr(args, "table_path", None):
            need = 32 * (args.limit + 1)
            ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            _require(need <= ram, f"--limit {args.limit} needs about {need >> 20} MiB, "
                     f"more than the {ram >> 20} MiB of physical memory")
    if getattr(args, "checkpoints", None) is not None:
        xs = args.checkpoints = _parse_int_list(args.checkpoints, "--checkpoints")
        _require(xs == sorted(set(xs)), "--checkpoints must be strictly ascending")
        _require(xs[0] >= 1, "--checkpoints must be >= 1")
        _require(xs[-1] <= args.limit, f"checkpoint {xs[-1]} exceeds --limit {args.limit}")
    if cmd == "constants":
        _require(min(args.b1_direct_q, args.b1_euler_q) >= 1, "B1 truncation levels must be >= 1")
        for flag, q in (("--b1-direct-q", args.b1_direct_q), ("--b1-euler-q", args.b1_euler_q)):
            _require(q <= B1_Q_CAP, f"{flag} {q} exceeds {B1_Q_CAP}")
        args.w_orders = sorted(set(_parse_int_list(args.w_orders, "--w-orders")))
        _require(args.w_orders[0] >= 3, "--w-orders entries must be >= 3")
        top = args.w_orders[-1]
        _require(top <= W_ORDER_CAP, f"--w-orders entry {top} exceeds {W_ORDER_CAP}")
        _require(args.digits >= 1, "--digits must be >= 1")
        _require(args.digits <= DIGITS_CAP, f"--digits {args.digits} exceeds {DIGITS_CAP}")
    if cmd == "singular":
        _require(args.n >= 1, "--n must be >= 1")
        _require(args.n <= LIMIT_CAP, f"--n {args.n} exceeds {LIMIT_CAP}")
        if args.q_grid is not None:
            args.q_grid = _parse_int_list(args.q_grid, "--q-grid")
            _require(min(args.q_grid) >= 1, "--q-grid entries must be >= 1")
        _require(args.q_max is not None or not args.dump_terms, "--dump-terms requires --q-max")
        _require(args.q_max is None or args.dump_terms, "--q-max requires --dump-terms")
        _require(args.q_grid is None or not args.dump_terms, "--dump-terms takes no --q-grid")
        if args.q_max is not None:
            _require(args.q_max >= 1, "--q-max must be >= 1")
            _require(args.q_max <= Q_CAP, f"--q-max {args.q_max} exceeds {Q_CAP}")
        if args.q_grid:
            top = max(args.q_grid)
            _require(top <= Q_CAP, f"--q-grid entry {top} exceeds {Q_CAP}")
    if cmd == "gauss":
        _require(args.q >= 1, "--q must be >= 1")
        _require(args.q <= GAUSS_Q_CAP, f"--q {args.q} exceeds {GAUSS_Q_CAP}")
    if cmd == "weyl-sweep":
        _require(args.n_terms >= 1, "--n-terms must be >= 1")
        _require(args.n_terms <= N_TERMS_CAP, f"--n-terms {args.n_terms} exceeds {N_TERMS_CAP}")
        _require(0.0 < args.grid <= 1.0, "--grid must be in (0, 1]")
        too_fine = f"--grid {args.grid} gives more than {GRID_POINTS_CAP} points"
        _require(1.0 / args.grid <= GRID_POINTS_CAP, too_fine)  # 1/grid may be inf
        terms = args.n_terms * math.ceil(1.0 / args.grid)
        _require(terms <= WEYL_TERMS_CAP, f"--n-terms {args.n_terms} at --grid {args.grid} "
                 f"sums {terms} terms, more than {WEYL_TERMS_CAP}")
    return args


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _cell(value) -> str:
    """Text cell, as the CSV writes it: floats to 17 significant digits, the rest str."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


class _CsvLines(dict):
    """The %-format of a CSV line for each tuple of cell types, filled on first
    use: cells as `_cell` renders them, `%.17g` for floats and `%s` otherwise."""

    def __missing__(self, types: tuple) -> str:
        line = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"
        self[types] = line
        return line


_BLOCK = 1 << 16  # array entries rendered per chunk by the dump's CSV and JSON forms


def _json_floats(values) -> Iterable[str]:
    """A 1-D float64 array as the indent-2 encoder writes a list that is a value
    of the top-level object, one block at a time: a finite float's text is its
    repr, as in the encoder, and json.dumps spells NaN and the infinities."""
    import numpy as np

    if not values.size:
        yield "[]"
        return
    sep = ",\n    "
    yield "[\n    "
    for lo in range(0, values.size, _BLOCK):
        block = values[lo : lo + _BLOCK]
        spell = float.__repr__ if np.isfinite(block).all() else json.dumps
        yield ("" if lo == 0 else sep) + sep.join(map(spell, block.tolist()))
    yield "\n  ]"


def _emit(args, result: Result) -> int:
    """Render `result` in the requested format only, write it, return the exit status."""
    stamp = None if args.reproducible else _timestamp()
    if args.output:
        from ._util import atomic_write

        out = atomic_write(args.output)
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        if args.output_format == "csv":
            if stamp:
                fh.write(f"# generated {stamp}\n")
            fh.write(",".join(result.columns) + "\n")
            if result.csv_body:
                fh.writelines(result.csv_body())
            else:
                rows = iter(result.rows)
                lines = _CsvLines()
                while chunk := list(islice(rows, 4096)):  # one write per chunk, not per line
                    fh.write("".join([lines[tuple(map(type, row))] % row for row in chunk]))
        elif args.output_format == "json":
            import numpy as np

            obj, arrays = {}, {}
            for k, v in result.extras.items():
                if isinstance(v, np.ndarray):  # _json_floats renders it where its placeholder is
                    assert v.dtype == np.float64 and v.ndim == 1, k
                    token = f"\0{k}"
                    arrays[json.dumps(token)] = v
                    v = token
                obj[k] = v
            if result.json_key:
                cols = [(i, c) for i, c in enumerate(result.columns) if c not in obj]
                obj[result.json_key] = [
                    {c: None if row[i] != row[i] else row[i] for i, c in cols}  # nan -> null
                    for row in result.rows
                ]
            if stamp:
                obj["generated"] = stamp
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
            if arrays:  # a placeholder is one chunk; the other extras are a few chunks
                for chunk in chunks:
                    fh.writelines(_json_floats(arrays[chunk]) if chunk in arrays else (chunk,))
            else:
                while batch := "".join(islice(chunks, 1 << 16)):  # bounded memory, few writes
                    fh.write(batch)
            fh.write("\n")
        else:
            fh.writelines(line + "\n" for line in result.text())
    if result.failure:
        print(result.failure, file=sys.stderr)
    return 1 if result.failure else 0


def _build_table(args, k: int, builder: str = "auto") -> tuple[repcount.RepTable, str]:
    """The order-k table to --limit, and the route that built it."""
    from . import repcount

    if builder == "auto":
        builder = "fold" if k == 3 else "convolution"
    if args.limit >= 10**6:
        print(f"building order-{k} table to {args.limit} ({builder})", file=sys.stderr)
    if builder == "fold":
        return repcount.build_r3_fold(args.limit, threads=args.threads), builder
    return repcount.build_rk(args.limit, k, threads=args.threads), builder


def _handle_tables(args) -> None:
    """The table file is the output, in repcount's own CSV or binary format."""
    from . import repcount

    table, builder = _build_table(args, args.k, args.builder)
    if args.table_format == "binary":
        repcount.save_binary(table, args.output)
    else:
        comment = None if args.reproducible else f"generated {_timestamp()}"
        repcount.save_csv(table, args.output, header_comment=comment)
    note = f"order-{table.order} table (limit {table.limit}, {builder})"
    print(f"wrote {note} to {args.output}", file=sys.stderr)


_FIT_TEXT = (
    "slope {slope:.6f}, intercept {intercept:.6f}, r^2 {r_squared:.6f} ({points_used} points)"
).format


def _handle_verify(args) -> Result:
    from . import repcount, verify

    k = args.n if args.subcommand == "verify-general" else 3
    xs = args.checkpoints or verify.geometric_checkpoints(args.limit)
    path = args.table_path
    table = repcount.TableFile(path, k, args.limit) if path else _build_table(args, k)[0]
    if args.subcommand == "verify-mean":
        cps = verify.mean_value_series(table, xs)
    elif args.subcommand == "verify-meansquare":
        cps = verify.mean_square_series(table, xs)
    else:
        cps = verify.mean_square_general(k, table, xs)
    try:
        fit = verify.fit_error_exponent(cps)
    except InsufficientPointsError:
        fit = None
    rows = [astuple(c) for c in cps]
    head = f"{'x':>12} {'partial_sum':>20} {'main_term':>24} {'rel_err':>12}"
    line = "{0:>12} {1:>20} {2:>24.6f} {4:>12.3e}".format
    tail = [] if fit is None else [f"error-exponent fit: {_FIT_TEXT(**asdict(fit))}"]
    text = lambda: [head] + [line(*row) for row in rows] + tail
    first, last = cps[0], cps[-1]
    failure = None
    if len(cps) >= 2 and not last.rel_err < first.rel_err:
        failure = (f"assertion failed: rel_err did not decay ({first.rel_err:.3e} at "
                   f"x={first.x} -> {last.rel_err:.3e} at x={last.x})")
    columns = tuple(f.name for f in fields(verify.Checkpoint))
    extras = {"fit": None if fit is None else asdict(fit)}
    return Result(columns, rows, text, "series", extras, failure)


def _flatten(obj: dict, prefix: str = ""):
    """(dotted name, value) for every leaf of a nested dict, in insertion order."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _handle_constants(args) -> Result:
    from . import constants  # local: mpmath loads only where a constant is evaluated

    obj = constants.constants_report(args.b1_direct_q, args.b1_euler_q, args.w_orders)
    if args.precision == "extended":
        obj["extended"] = constants.constants_extended(args.digits, args.w_orders)
    rows = list(_flatten(obj))
    width = max(len(name) for name, _ in rows)
    text = lambda: (f"{name:<{width}}  {_cell(value)}" for name, value in rows)
    return Result(("name", "value"), rows, text, extras=obj)


def _handle_singular(args) -> Result:
    if args.dump_terms:
        from . import singular

        trunc = singular.singular_series(args.n, args.q_max)

        def csv_body():  # one % per block of terms, rendered as _CsvLines renders rows
            for lo in range(0, trunc.Q, _BLOCK):
                size = min(_BLOCK, trunc.Q - lo)
                cells = zip(range(lo + 1, lo + size + 1), trunc.terms[lo : lo + _BLOCK].tolist())
                yield ("%d,%.17g\n" * size) % tuple(chain.from_iterable(cells))
            yield "total,%.17g\n" % trunc.value

        text = lambda: [f"S3(n={trunc.n}, Q={trunc.Q}) = {_cell(trunc.value)}"]
        extras = {"n": trunc.n, "Q": trunc.Q, "value": trunc.value, "terms": trunc.terms}
        return Result(("q", "A_q_n"), (), text, extras=extras, csv_body=csv_body)
    from . import verify

    sweep = verify.singular_truncation_sweep(args.n, args.q_grid or [1, 10, 100, 1000])
    rows = [(p.Q, p.bateman, sweep.r3, p.abs_err, p.rel_err) for p in sweep.points]
    line = "Q={0:>8}  bateman={1:>14.6f}  rel_err={4:.3e}".format
    text = lambda: [f"n = {sweep.n}, exact r3 = {sweep.r3}"] + [line(*row) for row in rows]
    columns = ("Q", "bateman", "r3", "abs_err", "rel_err")
    return Result(columns, rows, text, "points", {"n": sweep.n, "r3": sweep.r3})


def _handle_gauss(args) -> Result:
    from . import expsum

    q = args.q
    closed = expsum.gauss_magnitude_closed(q)
    coprime = (a for a in range(1, q + 1) if math.gcd(a, q) == 1)
    a_values = [args.a] if args.a is not None else coprime
    sums = [(a, expsum.gauss_sum(q, a)) for a in a_values]
    rows = [(a, s.real, s.imag, abs(s)) for a, s in sums]
    head = f"q = {q}, closed-form magnitude for coprime a: {closed:.12g}"
    line = "a={:>6}  S = {:+.12f} {:+.12f}i  magnitude {:.12f}".format
    text = lambda: [head] + [line(*row) for row in rows]
    extras = {"q": args.q, "closed_magnitude": closed}
    return Result(("a", "re", "im", "magnitude"), rows, text, "values", extras)


def _handle_weyl(args) -> Result:
    from . import expsum

    alphas = [i * args.grid for i in range(math.ceil(1.0 / args.grid))]
    sums = [(alpha, expsum.weyl_sum(alpha, args.n_terms)) for alpha in alphas if alpha < 1.0]
    rows = [(alpha, f.real, f.imag, abs(f)) for alpha, f in sums]
    head = f"f(alpha) over {len(rows)} grid points, N = {args.n_terms}"
    line = "alpha={0:<12.6f} |f|={3:.6f}".format
    text = lambda: [head] + [line(*row) for row in rows]
    extras = {"n_terms": args.n_terms}
    return Result(("alpha", "re", "im", "magnitude"), rows, text, "values", extras)


def _handle_fit(args) -> Result:
    from . import verify

    fit = verify.fit_error_exponent(verify.read_series(args.input_path))
    columns = tuple(f.name for f in fields(verify.FitResult))
    text = lambda: [_FIT_TEXT(**asdict(fit))]
    return Result(columns, [astuple(fit)], text, extras={"fit": asdict(fit)})


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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = _HANDLERS[args.subcommand](_config_from_args(args))
        return 0 if result is None else _emit(args, result)
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
