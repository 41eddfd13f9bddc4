"""Fresh-process timings of the Riccati oracle, of ``eval_local`` (per point
and per warm Fourier grid) and of long-horizon ``eval_globalized``.

Run:  python3 benchmarks/bench_oracle.py [--points 2] [--repeats 3]

Each measurement runs in a new interpreter, as in a fresh
``affine-cf compare`` process.  ``riccati_cf`` is timed per point at the
default integrator (step halving from a first rung of 125/250 steps to
the 2000/4000-step cap, building its unrolled RK4 loop once per point) on
CIR, Heston, ``models/bm_jumps.json`` and the 3-d cross-term diffusion
(``diff3``, so that the loop is timed beyond d = 2) at their points'
horizons, and on CIR and Heston at the
``affine-cf compare`` benchmark's horizon t = 0.1 and at t = 5, with the
step count of the fine run it returned per point; ``eval_local``
per point on CIR at K = 16, on Heston at K = 8 and 16, on 3-, 4- and
5-d diffusions at K = 16, 16 and 12 and on a 3-d model with full-covariance
Gaussian jumps at K = 16 (``jump3``: every eps up to K - 1 is live,
E = C(K - 1 + d, d) = 816 of them, and the flow jet holds K coefficients
per live eps);
``eval_local`` per warm 16-point Fourier grid (one (t, x), 16
frequencies, 20 grids after one untimed grid) on CIR K = 16, Heston K = 8
and 16 and ``bm_jumps`` K = 16, split into the symbol's derivative rows
(``component_rows``) and the rest of the grid, the jet (the flow jet of
the rows, its power-series exponential and the summation);
``eval_globalized``
per point at K = 16 on CIR at t = 1 and 5, on Heston at t = 5, on the
4-d diffusion at t = 2 and on two jump models at t = 2 (``expj``, 1-d, and
``ubg``, 2-d, whose flow jets run over every eps up to K - 1), and
``semiflow``, the same cases warm (after one untimed point), split into
the derivative rows and the rest (each step's flow jet and its update),
with the steps per point;
``eval_generalized`` per point at K = 16 on CIR around the Vasicek process
of its drift and on Heston with b21 = 2, s = 0.5 around the Heston
baseline (two flow jets per point, the target's and the baseline's);
``baseline``, the warm cost of building each registered baseline from a
model (``gensym.BASELINE_REGISTRY``: ``zero`` and ``vasicek`` on CIR,
``heston`` on Heston, 20 builds after one untimed build), which is the
cost of its residual check.  The median CPU time and the median peak RSS
(``ru_maxrss``) of the fresh processes are printed.  Timings are
reported, never asserted; the host's speed can swing by 20% between runs.
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

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# (x, u, t) per model; the points cycle through the u values.
CASES = {
    "cir": ([0.04], [[1.0], [2.0], [-1.5]], 0.5),
    "heston": ([0.0, 0.04], [[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], 1.0),
    "bm_jumps": ([0.1], [[1.5], [0.5], [3.0]], 0.8),
    "diff3": ([0.04] * 3, [[1.0, -0.5, 0.3], [2.0, 0.1, -1.0]], 0.5),
    "diff4": ([0.04] * 4, [[1.0, -0.5, 0.3, 0.8], [2.0, 0.1, -1.0, 0.4]], 0.5),
    "diff5": ([0.04] * 5, [[1.0, -0.5, 0.3, 0.8, -0.2]], 0.5),
    "expj": ([0.2], [[1.7], [0.5], [-1.0]], 0.5),
    "ubg": ([0.3, -0.2], [[1.1, -0.6], [0.5, 0.2]], 0.5),
    "jump3": ([0.2, 0.1, -0.3], [[0.7, -1.1, 0.4], [1.5, 0.3, -0.8]], 0.3),
}
# riccati_cf case -> (model case, horizon; None: the model case's own t)
RICCATI = {"cir": ("cir", None), "heston": ("heston", None),
           "bm_jumps": ("bm_jumps", None), "diff3": ("diff3", None),
           "cir-t0.1": ("cir", 0.1), "cir-t5": ("cir", 5.0),
           "heston-t0.1": ("heston", 0.1), "heston-t5": ("heston", 5.0)}
# eval_local case -> (model case, K); eval_globalized case -> (model case, t)
LOCAL = {"cir-K16": ("cir", 16), "heston-K8": ("heston", 8),
         "heston-K16": ("heston", 16), "diff3-K16": ("diff3", 16),
         "diff4-K16": ("diff4", 16), "diff5-K12": ("diff5", 12),
         "jump3-K16": ("jump3", 16)}
# warm Fourier-grid case -> (model case, K)
GRID = {"cir-K16": ("cir", 16), "heston-K8": ("heston", 8),
        "heston-K16": ("heston", 16), "bm_jumps-K16": ("bm_jumps", 16)}
GRID_POINTS = 16
GRID_REPEATS = 20  # warm grids per process
GLOBALIZED = {"cir-t1": ("cir", 1.0), "cir-t5": ("cir", 5.0),
              "heston-t5": ("heston", 5.0), "diff4-t2": ("diff4", 2.0),
              "expj-t2": ("expj", 2.0), "ubg-t2": ("ubg", 2.0)}
# eval_generalized case (K = 16) -> model case, whose points it reads
GENERALIZED = {"cir-vasicek": "cir", "heston-b21": "heston"}
# registered baseline -> the model case it is built from
BASELINES = {"zero": "cir", "vasicek": "cir", "heston": "heston"}
BASELINE_REPEATS = 20  # warm builds per process


def _diffusion(d: int):
    """A d-factor affine diffusion: correlated constant diffusion, a CIR-type
    square-root factor on each axis and a coupled mean-reverting drift."""
    from affine_cf.symbols import AffineModel

    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    return AffineModel.from_arrays(
        a0=[[0.1 if i == j else 0.02 for j in range(d)] for i in range(d)],
        a_slope=[[[0.2 * (i == j == l) for j in range(d)] for i in range(d)]
                 for l in range(d)],
        b0=[0.05] * d,
        b_slope=[[-0.5 * eye[i][j] + 0.1 * (j == i + 1) for j in range(d)]
                 for i in range(d)],
        state_domain=[(0.0, None)] * d)


def _jumps(case: str):
    """Jumps on every live component: ``expj`` a 1-d square-root factor with
    exponential jumps in the constant part and the slope, ``ubg`` a 2-d model
    with Gaussian jumps in the constant part and the first slope under
    unit-ball truncation, ``jump3`` a 3-d model with cross-diffusion and
    full-covariance Gaussian jumps in the constant part.  Every eps up to
    K - 1 is live in their tables."""
    from affine_cf.symbols import (AffineModel, ExponentialJumps,
                                   GaussianJumps, NoJumps)

    if case == "jump3":
        return AffineModel.from_arrays(
            a0=[[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.1]],
            a_slope=[[[0.2, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.0]],
                     [[0.0, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.1, 0.2]],
                     [[0.0] * 3] * 3],
            b0=[0.1, -0.05, 0.2],
            b_slope=[[-0.5, 0.1, 0.0], [0.2, -0.3, 0.0], [0.0, 0.4, 0.0]],
            jumps=(GaussianJumps(intensity=0.3, mean=[0.1, -0.2, 0.05],
                                 cov=[[0.04, 0.01, 0.005],
                                      [0.01, 0.02, 0.004],
                                      [0.005, 0.004, 0.03]]),
                   NoJumps(), NoJumps(), NoJumps()))
    if case == "expj":
        return AffineModel.from_arrays(
            a0=[[0.1]], a_slope=[[[0.2]]], b0=[0.05], b_slope=[[-0.4]],
            jumps=(ExponentialJumps(intensity=0.4, rates=[3.0]),
                   ExponentialJumps(intensity=0.2, rates=[5.0])))
    return AffineModel.from_arrays(
        a0=[[0.3, 0.1], [0.1, 0.2]],
        a_slope=[[[0.5, -0.2], [-0.2, 0.4]], [[0.0, 0.0], [0.0, 0.0]]],
        b0=[0.1, -0.2], b_slope=[[-0.4, 0.1], [0.0, -0.7]],
        jumps=(GaussianJumps(intensity=0.4, mean=[0.2, -0.1],
                             cov=[[0.05, 0.0], [0.0, 0.02]]),
               GaussianJumps(intensity=0.3, mean=[0.1, 0.3],
                             cov=[[0.04, 0.0], [0.0, 0.01]]),
               NoJumps()),
        truncation="unit_ball")


def _model(case: str):
    from affine_cf import oracle
    from affine_cf.symbols import load_model

    if case in ("expj", "ubg", "jump3"):
        return _jumps(case)
    if case == "cir":
        return oracle.cir_model(oracle.CIRParams(b0=0.04, b1=-0.5, s=0.2))
    if case == "heston":
        return oracle.heston_model(_heston_params())
    if case.startswith("diff"):
        return _diffusion(int(case[4:]))
    return load_model(os.path.join(ROOT, "models", f"{case}.json"))


def _heston_params():
    from affine_cf import oracle

    return oracle.HestonParams(b00=0.0, b10=0.0, b11=0.0, b20=0.04, b21=1.5,
                               s=0.3, rho=-0.7)


def _generalized(case: str):
    """(target, baseline) of an ``eval_generalized`` case: CIR around the
    Vasicek process of its drift, or Heston with b21 = 2, s = 0.5 around the
    Heston baseline."""
    from dataclasses import replace

    from affine_cf import gensym, oracle

    if case == "cir-vasicek":
        return _model("cir"), gensym.vasicek_baseline(
            oracle.VasicekParams(a0=0.0, b0=0.04, b1=-0.5))
    params = _heston_params()
    return (oracle.heston_model(replace(params, b21=2.0, s=0.5)),
            gensym.heston_baseline(params))


def _split_timers(series_eval) -> dict:
    """Wrap ``series_eval.component_rows`` so that it adds its CPU seconds
    to the returned table total and counts its calls (one per semiflow
    step); the rest of a grid or a semiflow is the jet's."""
    totals = {"table_s": 0.0, "steps": 0}
    rows = series_eval.component_rows

    def timed(*args):
        start = time.process_time()
        try:
            return rows(*args)
        finally:
            totals["table_s"] += time.process_time() - start
            totals["steps"] += 1
    series_eval.component_rows = timed
    return totals


def measure(what: str, case: str, n: int) -> dict:
    """CPU seconds per point (riccati_cf with the steps of its fine run,
    eval_local, eval_globalized, eval_generalized, and the warm semiflow
    with its table and jet shares and steps), per warm grid (grid, with the
    table and jet shares) or per warm baseline build (baseline), measured
    inside the fresh interpreter, and its peak RSS in MB; model building is
    untimed."""
    from affine_cf import series_eval
    from affine_cf.gensym import BASELINE_REGISTRY, eval_generalized
    from affine_cf.oracle import riccati_cf
    from affine_cf.series_eval import eval_globalized, eval_local

    if what == "baseline":
        build, case = BASELINE_REGISTRY[case], BASELINES[case]
        model = _model(case)
    elif what == "eval_generalized":
        model, baseline = _generalized(case)
        case = GENERALIZED[case]
    else:
        if what in ("eval_globalized", "semiflow"):
            case, horizon = GLOBALIZED[case]
        elif what in ("eval_local", "grid"):
            case, order = (LOCAL if what == "eval_local" else GRID)[case]
        elif what == "riccati_cf":
            case, horizon = RICCATI[case]
        model = _model(case)
    x, us, t = CASES[case]
    split = {}
    if what == "grid":
        grid = [[u] + [0.0] * (len(x) - 1)
                for u in [-2.5 + 5.0 * i / (GRID_POINTS - 1)
                          for i in range(GRID_POINTS)]]
        for u in grid:
            eval_local(model, x, u, t, order)
        split = _split_timers(series_eval)
        start = time.process_time()
        for _ in range(n):
            for u in grid:
                series_eval.eval_local(model, x, u, t, order)
    elif what == "semiflow":
        eval_globalized(model, x, us[0], horizon, 16)
        split = _split_timers(series_eval)
        start = time.process_time()
        for i in range(n):
            series_eval.eval_globalized(model, x, us[i % len(us)], horizon, 16)
    elif what == "baseline":
        build(model)
        start = time.process_time()
        for _ in range(n):
            build(model)
    elif what == "riccati_cf":
        t = t if horizon is None else horizon
        start = time.process_time()
        steps = sum(riccati_cf(model, x, us[i % len(us)], t).steps
                    for i in range(n))
        split = {"steps": steps}
    elif what == "eval_local":
        start = time.process_time()
        for i in range(n):
            eval_local(model, x, us[i % len(us)], t, order)
    elif what == "eval_generalized":
        start = time.process_time()
        for i in range(n):
            eval_generalized(model, baseline, x, us[i % len(us)], t, 16)
    else:
        start = time.process_time()
        for i in range(n):
            eval_globalized(model, x, us[i % len(us)], horizon, 16)
    cpu_s = (time.process_time() - start) / n
    if "table_s" in split:
        split["jet_s"] = cpu_s * n - split["table_s"]
        if what == "grid":
            del split["steps"]
    # ru_maxrss is in kB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"cpu_s": cpu_s, "rss_mb": rss_mb,
            **{key: total / n for key, total in split.items()}}


def fresh(what: str, case: str, n: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, __file__, "--one", what, case, str(n)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=2,
                    help="riccati_cf, eval_local, eval_globalized and "
                         "eval_generalized points per process")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--one", nargs=3, metavar=("WHAT", "CASE", "N"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        what, case, n = args.one
        print(json.dumps(measure(what, case, int(n))))
        return

    jobs = [("riccati_cf", case, args.points) for case in RICCATI]
    jobs += [("eval_local", case, args.points) for case in LOCAL]
    jobs += [("grid", case, GRID_REPEATS) for case in GRID]
    jobs += [("eval_globalized", case, args.points) for case in GLOBALIZED]
    jobs += [("semiflow", case, args.points) for case in GLOBALIZED]
    jobs += [("eval_generalized", case, args.points) for case in GENERALIZED]
    jobs += [("baseline", case, BASELINE_REPEATS) for case in BASELINES]
    print(f"{'what':<16} {'case':<12} {'n':>3} {'ms each (median)':>17} "
          f"{'rss MB':>7}  all runs (ms)  [grid, semiflow: median table / "
          f"jet ms; semiflow, riccati_cf: steps per point]")
    for what, case, n in jobs:
        runs = [fresh(what, case, n) for _ in range(args.repeats)]
        times = [r["cpu_s"] * 1e3 for r in runs]
        rss = statistics.median(r["rss_mb"] for r in runs)
        split = "".join(
            f"  {key[:-2]} {statistics.median(r[key] for r in runs) * 1e3:.2f}"
            for key in ("table_s", "jet_s") if key in runs[0])
        if "steps" in runs[0]:
            split += f"  steps {statistics.median(r['steps'] for r in runs):.1f}"
        print(f"{what:<16} {case:<12} {n:>3} {statistics.median(times):>17.2f} "
              f"{rss:>7.1f}  " + " ".join(f"{t:.2f}" for t in times) + split)


if __name__ == "__main__":
    main()
