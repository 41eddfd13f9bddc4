"""Command-line front end.

Subcommands:
  eval      evaluate the CF series over a (t, u, x) grid
  compare   evaluate and report errors against the matching oracle
  tables    dump the exact-rational series coefficients c_(alpha, beta)
  triangle  print the term-counting triangle with row sums

Grid axes are given as "lo:hi:count" or a single number; multivariate u/x
axes are separated by ';'.  Output is CSV (default) or JSON, deterministic
row order (t-major, then x, then u).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import import_module
from itertools import product
from typing import TYPE_CHECKING

from . import __version__
from .symalg import coefficient_recursion, coefficients_to_jsonable, counting_triangle

if TYPE_CHECKING:
    from .symbols import AffineModel

FORMAT_HEADER = "# affine-cf v1"

# The names of gensym.BASELINE_REGISTRY, spelled out so that --help imports
# no numeric layer (tests/test_cli.py checks that the two agree).
BASELINES = ("heston", "vasicek", "zero")

# Importing the numeric layers (series_eval, gensym, oracle, symbols) adds
# about 0.02 s CPU to a fresh process, a quarter of a fresh `triangle`, so
# tables, triangle, --help and --version leave them unimported; no layer
# imports numpy.  eval and compare bind these names on first use, as
# does an attribute lookup on this module (a tracer, a test); a name already
# bound (a tracer's wrapper, a monkeypatch) is never replaced.  The commands
# look them up as module globals at call time.
_NUMERIC = {
    "eval_local": "series_eval",
    "eval_globalized": "series_eval",
    "eval_generalized": "gensym",
    "riccati_cf": "oracle",
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_NUMERIC[name]}", __package__), name)
    return globals().setdefault(name, value)


def _bind_numeric() -> None:
    module = sys.modules[__name__]
    for name in _NUMERIC:
        getattr(module, name)


class CliError(Exception):
    pass


def _parse_axis(spec: str) -> list:
    """'lo:hi:count' -> count evenly spaced points from lo to hi, the
    floats numpy.linspace gives; a bare number -> one-point axis."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise CliError(f"bad axis spec {spec!r}; want 'lo:hi:count' or a number")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise CliError(f"axis count must be >= 1 in {spec!r}")
    div = max(n - 1, 1)
    step = (hi - lo) / div
    if step == 0:  # lo = hi or a denormal span: scale before multiplying
        axis = [i / div * (hi - lo) + lo for i in range(n)]
    else:
        axis = [i * step + lo for i in range(n)]
    if n > 1:
        axis[-1] = hi
    return axis


def _parse_vector_spec(spec: str, dimension: int, name: str) -> list:
    """';'-separated per-coordinate axes -> list of d-vectors (cartesian)."""
    axes = [_parse_axis(s) for s in spec.split(";")]
    if len(axes) == 1 and dimension > 1:
        axes = axes + [[0.0]] * (dimension - 1)
    if len(axes) != dimension:
        raise CliError(
            f"{name} spec {spec!r} has {len(axes)} axes for dimension {dimension}"
        )
    return [list(v) for v in product(*axes)]


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _resolve_baseline(name: str, model: AffineModel):
    from .gensym import heston_baseline, vasicek_baseline, zero_baseline
    from .oracle import heston_params, vasicek_params

    if name not in BASELINES:
        raise CliError(f"unknown baseline {name!r}; available: {sorted(BASELINES)}")
    if name == "zero":
        return zero_baseline(model.dimension)
    if name == "vasicek":
        return vasicek_baseline(vasicek_params(model))
    return heston_baseline(heston_params(model))


def _grid_rows(args, model: AffineModel):
    ts = _parse_axis(args.t)
    us = _parse_vector_spec(args.u, model.dimension, "--u")
    xs = _parse_vector_spec(args.x, model.dimension, "--x")
    points = list(product(ts, xs, us))  # t-major, then x, then u

    baseline = None
    if args.mode == "generalized":
        baseline = _resolve_baseline(args.baseline, model)

    def one(point):
        t, x, u = point
        try:
            if args.mode == "local":
                res = eval_local(model, x, u, t, args.k)
            elif args.mode == "global":
                res = eval_globalized(model, x, u, t, args.k)
            else:
                res = eval_generalized(model, baseline, x, u, t, args.k)
        except Exception as exc:  # surfaced per row, not fatal
            return point, None, f"{type(exc).__name__}: {exc}"
        return point, res, ""

    return [one(p) for p in points]


def _oracle_for(model: AffineModel):
    """(name, oracle) with oracle(x, u, t) -> (value, the oracle's own error
    estimate): RK4 step halving, or 0.0 for the closed form."""
    from .oracle import levy_khintchine_cf, slopes_vanish

    if slopes_vanish(model):
        return "levy-khintchine", \
            lambda x, u, t: (levy_khintchine_cf(model, x, u, t), 0.0)

    def rk4(x, u, t):
        res = riccati_cf(model, x, u, t)
        return res.value, res.step_error

    return "riccati-rk4", rk4


def _point_columns(point, res, reason, k):
    t, x, u = point
    row = {"t": t}
    for i, v in enumerate(x, 1):
        row[f"x{i}"] = v
    for i, v in enumerate(u, 1):
        row[f"u{i}"] = v
    if res is None:
        row.update(re=float("nan"), im=float("nan"),
                   abs=float("nan"), tail=float("nan"))
    else:
        row.update(re=res.value.real, im=res.value.imag,
                   abs=abs(res.value), tail=res.tail_estimate)
    row["K"] = k
    row["reason"] = reason
    return row


def cmd_eval(args) -> dict:
    from .symbols import load_model

    _bind_numeric()
    model = load_model(args.model)
    rows = []
    for point, res, reason in _grid_rows(args, model):
        rows.append(_point_columns(point, res, reason, args.k))
    return {"command": "eval", "mode": args.mode, "k": args.k, "rows": rows}


def cmd_compare(args) -> dict:
    import statistics
    import time

    from .symbols import load_model

    _bind_numeric()
    model = load_model(args.model)
    oracle_name, oracle = _oracle_for(model)
    t_series = time.perf_counter()
    computed = _grid_rows(args, model)
    t_series = time.perf_counter() - t_series

    rows = []
    rels = []
    t_oracle = time.perf_counter()
    for point, res, reason in computed:
        t, x, u = point
        row = _point_columns(point, res, reason, args.k)
        try:
            ref, ref_err = oracle(x, u, t)
        except Exception as exc:
            row.update(oracle_re=float("nan"), oracle_im=float("nan"),
                       abs_err=float("nan"), rel_err=float("nan"),
                       oracle_err=float("nan"))
            row["reason"] = (row["reason"] + "; " if row["reason"] else "") \
                + f"oracle {type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        if res is None:
            row.update(oracle_re=ref.real, oracle_im=ref.imag,
                       abs_err=float("nan"), rel_err=float("nan"),
                       oracle_err=ref_err)
        else:
            err = abs(res.value - ref)
            rel = err / max(abs(ref), 1e-300)
            rels.append(rel)
            row.update(oracle_re=ref.real, oracle_im=ref.imag,
                       abs_err=err, rel_err=rel, oracle_err=ref_err)
        rows.append(row)
    t_oracle = time.perf_counter() - t_oracle

    summary = {
        "oracle": oracle_name,
        "points": len(rows),
        "max_rel_err": max(rels) if rels else float("nan"),
        "median_rel_err": statistics.median(rels) if rels else float("nan"),
        "series_seconds": t_series,
        "oracle_seconds": t_oracle,
    }
    return {"command": "compare", "mode": args.mode, "k": args.k,
            "oracle": oracle_name, "rows": rows, "summary": summary}


def cmd_tables(args) -> dict:
    if args.k > 20:
        raise CliError("tables rows are capped at 20")
    rows = coefficient_recursion(args.dimension, args.k)
    return {"command": "tables", "dimension": args.dimension, "k": args.k,
            "coefficients": coefficients_to_jsonable(rows)}


def cmd_triangle(args) -> dict:
    if args.k > 20:
        raise CliError("triangle rows are capped at 20")
    tri = counting_triangle(args.k)
    rows = []
    import math

    for n, row in enumerate(tri.rows, start=1):
        rn = sum(row)
        rows.append({"n": n, "counts": row, "R": rn,
                     "R_over_factorial": rn / math.factorial(n),
                     "within_bound": rn <= math.factorial(n)})
    return {"command": "triangle", "rows": rows}


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _write_csv(payload: dict, fh) -> None:
    fh.write(FORMAT_HEADER + "\n")
    cmd = payload["command"]
    if cmd in ("eval", "compare"):
        rows = payload["rows"]
        if not rows:
            return
        cols = list(rows[0].keys())
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([
                row[c] if isinstance(row[c], (str, int)) else _fmt(row[c])
                for c in cols
            ])
        if "summary" in payload:
            s = payload["summary"]
            fh.write(f"# max_rel_err {_fmt(s['max_rel_err'])}\n")
            fh.write(f"# median_rel_err {_fmt(s['median_rel_err'])}\n")
    elif cmd == "tables":
        writer = csv.writer(fh)
        writer.writerow(["k", "alpha", "beta", "num", "den"])
        for k, entries in payload["coefficients"].items():
            for e in entries:
                writer.writerow([k, e["alpha"], e["beta"], e["num"], e["den"]])
    else:  # triangle
        writer = csv.writer(fh)
        writer.writerow(["n", "counts", "R", "R_over_factorial", "within_bound"])
        for row in payload["rows"]:
            writer.writerow([row["n"], " ".join(map(str, row["counts"])),
                             row["R"], _fmt(row["R_over_factorial"]),
                             row["within_bound"]])


def _emit(payload: dict, args) -> None:
    buf = io.StringIO()
    if args.format == "json":
        json.dump({"version": FORMAT_HEADER.lstrip("# "), **payload}, buf,
                  indent=2, default=str)
        buf.write("\n")
    else:
        _write_csv(payload, buf)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="affine-cf",
        description="Characteristic functions of affine processes via "
                    "symbol-calculus power series.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--model", required=True, help="model JSON path")
        sp.add_argument("--k", type=int, default=16, help="truncation order")
        sp.add_argument("--t", default="0.5", help="time axis 'lo:hi:n' or value")
        sp.add_argument("--u", default="1.0",
                        help="frequency axes, ';'-separated per coordinate")
        sp.add_argument("--x", default="0.0",
                        help="state axes, ';'-separated per coordinate")
        sp.add_argument("--mode", choices=("local", "global", "generalized"),
                        default="local")
        sp.add_argument("--baseline", default="zero",
                        help="baseline name for generalized mode "
                             f"({sorted(BASELINES)})")
        add_output(sp)

    def add_output(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    add_common(sub.add_parser("eval", help="evaluate the CF over a grid"))
    add_common(sub.add_parser("compare", help="evaluate and compare to oracle"))

    sp = sub.add_parser("tables", help="dump exact series coefficients")
    sp.add_argument("--k", type=int, default=6, help="highest row")
    sp.add_argument("--dimension", type=int, default=1)
    add_output(sp)

    sp = sub.add_parser("triangle", help="print the counting triangle")
    sp.add_argument("--k", type=int, default=8, help="number of rows")
    add_output(sp)
    return p


_DISPATCH = {
    "eval": cmd_eval,
    "compare": cmd_compare,
    "tables": cmd_tables,
    "triangle": cmd_triangle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _DISPATCH[args.command](args)
    except (CliError, OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
