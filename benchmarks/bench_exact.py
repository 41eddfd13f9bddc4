"""Fresh-process timings of the exact engine, layer by layer.

Run:  python3 benchmarks/bench_exact.py [--series 1:16 2:8] [--triangle 16]
                                        [--repeats 3]

Each measurement runs in a new interpreter, so every cache starts cold, as
in a fresh ``affine-cf tables`` or ``triangle`` process.  Per (d, K) it
reports the CPU seconds of ``d_series``, ``coefficient_recursion`` and
``cross_check`` at every order 1..K (its inputs are built first, untimed),
of ``counting_triangle`` for the requested rows (its closed form, which
builds no series, so it reads near 0), and of
``gensym.correction_series`` for a perturbed Vasicek target around the
Vasicek baseline at K=12 (models and imports built first, untimed).  The
"size" column counts, per layer, the terms, the table entries, the orders
that agree, the rows that sum to n! and the correction terms.  The import rows report the CPU seconds of a
whole fresh process (interpreter start included) that imports the package,
imports ``symalg`` alone, runs ``affine-cf triangle --k 8``, or runs the
numeric CLI (``affine-cf eval`` on ``models/cir.json``, and ``affine-cf
compare --mode generalized --baseline zero`` on it), and whether it loaded
numpy.  Every row also reports the peak RSS (``ru_maxrss``) of
its fresh processes.  The medians over the repeats are printed.  Timings
are reported, never asserted; the host's speed can swing by 20% between
runs.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import factorial


def measure(layer: str, d: int, k: int) -> dict:
    """One cold measurement, run inside the fresh interpreter."""
    from affine_cf import symalg

    if layer == "cross_check":
        polys = symalg.d_series(d, k)
        rows = symalg.coefficient_recursion(d, k)
    elif layer == "correction_series":
        from affine_cf import gensym, oracle, symbols

        params = oracle.VasicekParams(a0=0.02, b0=0.05, b1=-0.3)
        target = symbols.AffineModel.from_arrays(
            a0=[[2.0 * params.a0 + 0.05]], b0=[params.b0 + 0.01],
            b_slope=[[params.b1 - 0.1]])
        baseline = gensym.vasicek_baseline(params)
    start = time.process_time()
    if layer == "d_series":
        polys = symalg.d_series(d, k)
        size = sum(len(p) for p in polys)
    elif layer == "coefficient_recursion":
        rows = symalg.coefficient_recursion(d, k)
        size = sum(len(r) for r in rows.values())
    elif layer == "cross_check":
        size = sum(symalg.cross_check(polys, rows, order, d).ok
                   for order in range(1, k + 1))
    elif layer == "correction_series":
        polys = gensym.correction_series(target, baseline, k)
        size = sum(len(p) for p in polys)
    else:
        sums = symalg.counting_triangle(k).row_sums
        size = sum(r == factorial(n) for n, r in enumerate(sums, start=1))
    cpu_s = time.process_time() - start
    return {"cpu_s": cpu_s, "size": size, "rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    # ru_maxrss is in kB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CIR_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "models", "cir.json")

# Fresh-process start-ups: the program each row runs.
IMPORTS = {
    "import affine_cf": "import affine_cf",
    "from affine_cf import symalg": "from affine_cf import symalg",
    "affine-cf triangle --k 8":
        "from affine_cf import cli; cli.main(['triangle', '--k', '8'])",
    "affine-cf eval cir.json":
        f"from affine_cf import cli; cli.main(['eval', '--model', {CIR_JSON!r}])",
    "affine-cf compare generalized zero":
        "from affine_cf import cli; cli.main(['compare', '--model', "
        f"{CIR_JSON!r}, '--mode', 'generalized', '--baseline', 'zero'])",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fresh(layer: str, d: int, k: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--one", layer, str(d), str(k)],
        env=child_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# Appended to each start-up program: whether it loaded numpy, and its peak
# RSS in kB.
REPORT = """
import resource, sys
sys.stderr.write(f"{'numpy' in sys.modules} "
                 f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
"""


def fresh_start(code: str) -> dict:
    """CPU seconds and peak RSS of a whole fresh process running ``code``,
    and whether it loaded numpy."""
    probe = code + REPORT
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    numpy, rss_kb = out.stderr.split()
    return {"cpu_s": cpu, "numpy": numpy == "True",
            "rss_mb": int(rss_kb) / 1024.0}


def pair(spec: str) -> tuple[int, int]:
    d, k = spec.split(":")
    return int(d), int(k)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--series", type=pair, nargs="+",
                    default=[(1, 12), (1, 16), (2, 6), (2, 8)],
                    help="d:K pairs for d_series, coefficient_recursion and "
                         "cross_check")
    ap.add_argument("--triangle", type=int, nargs="+", default=[16],
                    help="row counts for counting_triangle")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--one", nargs=3, metavar=("LAYER", "D", "K"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        layer, d, k = args.one
        print(json.dumps(measure(layer, int(d), int(k))))
        return

    jobs = [(layer, d, k) for d, k in args.series
            for layer in ("d_series", "coefficient_recursion", "cross_check")]
    jobs += [("counting_triangle", 1, rows) for rows in args.triangle]
    jobs.append(("correction_series", 1, 12))
    print(f"{'layer':<22} {'d':>2} {'K':>3} {'size':>8} {'cpu s (median)':>15}"
          f" {'rss MB':>7}  all runs (cpu s)")
    for layer, d, k in jobs:
        runs = [fresh(layer, d, k) for _ in range(args.repeats)]
        times = [r["cpu_s"] for r in runs]
        rss = statistics.median(r["rss_mb"] for r in runs)
        print(f"{layer:<22} {d:>2} {k:>3} {runs[0]['size']:>8} "
              f"{statistics.median(times):>15.3f} {rss:>7.1f}  "
              + " ".join(f"{t:.3f}" for t in times))

    print(f"\n{'start-up':<34} {'numpy':>5} {'cpu s (median)':>15} "
          f"{'rss MB':>7}  all runs (cpu s)")
    for label, code in IMPORTS.items():
        runs = [fresh_start(code) for _ in range(args.repeats)]
        times = [r["cpu_s"] for r in runs]
        rss = statistics.median(r["rss_mb"] for r in runs)
        numpy = "yes" if any(r["numpy"] for r in runs) else "no"
        print(f"{label:<34} {numpy:>5} {statistics.median(times):>15.3f} "
              f"{rss:>7.1f}  " + " ".join(f"{t:.3f}" for t in times))


if __name__ == "__main__":
    main()
