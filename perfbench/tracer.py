"""Traced child process of the benchmark.

    python3 tracer.py SPANS_JSON cli ARGS...   # like `squaresums ARGS...`
    python3 tracer.py SPANS_JSON lib           # like `python3 libstep.py`

Before running, every public function defined in `repcount`, `expsum`,
`singular`, `constants`, `verify` and `cli` is wrapped, at every module
attribute that binds it: `constants.gauss_sum`, `verify.mean_square_constant`
and `verify.w_constant` are the same function objects as their definitions and
get the same wrapper. A wrapper records its span; a function's self time is
its span minus the spans of the wrapped functions it called. Spans are kept in
memory as per-function totals and written to SPANS_JSON when the run ends,
with CLOCK_MONOTONIC stamps (system-wide on Linux) for when the child was
ready to run and when it was done, so the parent can split process start-up
and exit from the work.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time


def install(modules) -> dict[str, list]:
    """Wrap the public functions of `modules`; returns name -> [calls, span_s, self_s]."""
    stats: dict[str, list] = {}
    local = threading.local()

    def wrap(qualname, fn):
        rec = stats.setdefault(qualname, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.monotonic() - start
                children = stack.pop()
                rec[0] += 1
                rec[1] += span
                rec[2] += span - children
                if stack:
                    stack[-1] += span

        return traced

    wrappers = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                layer = mod.__name__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = wrap(f"{layer}.{name}", obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
    return stats


def main() -> int:
    out_path, kind, *args = sys.argv[1:]
    from squaresums import cli, constants, expsum, repcount, singular, verify

    stats = install([repcount, expsum, singular, constants, verify, cli])
    ready = time.monotonic()
    rc = 1
    try:
        if kind == "cli":
            rc = cli.main(args)
        else:
            import libstep

            rc = libstep.main()
    finally:
        done = time.monotonic()
        traced = sum(rec[2] for rec in stats.values())
        with open(out_path, "w") as fh:
            json.dump(
                {"ready": ready, "done": done, "glue_s": done - ready - traced, "functions": stats},
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
