"""Fresh-process timings of the Riccati oracle, of ``sup_bound`` and of
long-horizon ``eval_globalized``.

Run:  python3 benchmarks/bench_oracle.py [--points 2] [--calls 20]
                                         [--repeats 3]

Each measurement runs in a new interpreter, as in a fresh
``affine-cf compare`` process.  ``riccati_cf`` is timed per point at the
default integrator (2000 steps, plus the 4000-step run of the step-halving
estimate) on CIR, Heston and ``models/bm_jumps.json``; ``sup_bound`` per
call on the default boxes ``series_eval`` builds for a CIR point (d = 1)
and a Heston point (d = 2); ``eval_globalized`` per point at K = 16 on CIR
at t = 1 and 5 and on Heston at t = 5.  The median CPU time over the
repeats is printed.  Timings are reported, never asserted; the host's speed
can swing by 20% between runs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# (case, x, u, t) per model; the riccati points cycle through the u values.
CASES = {
    "cir": ([0.04], [[1.0], [2.0], [-1.5]], 0.5),
    "heston": ([0.0, 0.04], [[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], 1.0),
    "bm_jumps": ([0.1], [[1.5], [0.5], [3.0]], 0.8),
}
# eval_globalized case -> (model case, t); x and u as in CASES.
GLOBALIZED = {"cir-t1": ("cir", 1.0), "cir-t5": ("cir", 5.0),
              "heston-t5": ("heston", 5.0)}


def _model(case: str):
    from affine_cf import oracle
    from affine_cf.symbols import load_model

    if case == "cir":
        return oracle.cir_model(oracle.CIRParams(b0=0.04, b1=-0.5, s=0.2))
    if case == "heston":
        return oracle.heston_model(oracle.HestonParams(
            b00=0.0, b10=0.0, b11=0.0, b20=0.04, b21=1.5, s=0.3, rho=-0.7))
    return load_model(os.path.join(ROOT, "models", f"{case}.json"))


def measure(what: str, case: str, n: int) -> dict:
    """CPU seconds per point (riccati_cf, eval_globalized) or per call
    (sup_bound), measured inside the fresh interpreter; model building is
    untimed."""
    from affine_cf.oracle import riccati_cf
    from affine_cf.series_eval import _default_boxes, eval_globalized
    from affine_cf.symbols import sup_bound

    if what == "eval_globalized":
        case, horizon = GLOBALIZED[case]
    model = _model(case)
    x, us, t = CASES[case]
    if what == "riccati_cf":
        start = time.process_time()
        for i in range(n):
            riccati_cf(model, x, us[i % len(us)], t)
    elif what == "eval_globalized":
        start = time.process_time()
        for i in range(n):
            eval_globalized(model, x, us[i % len(us)], horizon, 16)
    else:
        omega, ubox = _default_boxes(model, x, us[0])
        start = time.process_time()
        for _ in range(n):
            sup_bound(model, omega, ubox)
    return {"cpu_s": (time.process_time() - start) / n}


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
                    help="riccati_cf and eval_globalized points per process")
    ap.add_argument("--calls", type=int, default=20,
                    help="sup_bound calls per process")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--one", nargs=3, metavar=("WHAT", "CASE", "N"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        what, case, n = args.one
        print(json.dumps(measure(what, case, int(n))))
        return

    jobs = [("riccati_cf", case, args.points) for case in CASES]
    jobs += [("sup_bound", "cir", args.calls), ("sup_bound", "heston", args.calls)]
    jobs += [("eval_globalized", case, args.points) for case in GLOBALIZED]
    print(f"{'what':<15} {'case':<9} {'n':>3} {'ms each (median)':>17}  all runs")
    for what, case, n in jobs:
        times = [fresh(what, case, n)["cpu_s"] * 1e3
                 for _ in range(args.repeats)]
        print(f"{what:<15} {case:<9} {n:>3} {statistics.median(times):>17.2f}  "
              + " ".join(f"{t:.2f}" for t in times))


if __name__ == "__main__":
    main()
