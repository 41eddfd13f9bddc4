"""Seeded request streams, closed-form checks and per-workload actions.

Request i of a workload depends only on (workload, seed, i), so a run
issues a prefix of one fixed stream and the same seed gives the same
inputs.  Every numeric result is checked against a closed form from
``affine_cf.oracle`` (never against the series machinery itself).
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

IN_PROCESS = ("grid-local", "global-horizon")

# Absolute tolerance on |value - closed form| per workload, set from what
# the single-threaded path reaches on each workload's input region (see
# README.md, "Tolerances").  exact-cold checks are exact.
TOLERANCE = {
    "grid-local": 1e-10,
    "global-horizon": 1e-6,
    "exact-cold": 0.0,
    "cli-compare": 1e-12,
}

# Model parameters: the repository's example models cir.json / heston.json.
CIR = dict(b0=0.04, b1=-0.5, s=0.2)
HESTON = dict(b00=0.0, b10=0.0, b11=0.0, b20=0.04, b21=1.5, s=0.3, rho=-0.7)

HASHED_PREFIX = 1000  # requests covered by the recorded request hash
# Requests a run measures at least, so medians of the seconds-long kinds
# rest on more than a handful of samples.
MIN_REQUESTS = 6

# Each workload issues its request kinds in this fixed cycle, and a run
# measures whole cycles, so every run and every seed sees the same mix.
# One kind holds the middle of each mix, so the median never sits on the
# gap between two kinds' costs.
#   grid-local: two CIR grids per Heston grid.
#   global-horizon: one short horizon (composed tau series for a new beta)
#     per seven long ones (stepped path), so the median sits inside the
#     long regime and the tail is the short one.  A cycle costs 18-30 s,
#     more than a run's 16 s, so every run measures exactly one and builds
#     one tau series.
#   exact-cold: the paper's exact claims; the triangle and the nilpotency
#     check share a request.
#   cli-compare: CIR and Heston, each around the zero baseline; their
#     costs are close, so the median sits on no gap.  The two CLI cases the
#     program answers wrongly are not requests: see DEFECT_KINDS.
KINDS = {
    "grid-local": ("cir", "cir", "heston"),
    "global-horizon": ("short",) + ("long",) * 7,
    "exact-cold": ("series-d1", "series-d2", "triangle-nilpotency"),
    "cli-compare": ("cir-zero", "heston-zero"),
}
WORKLOADS = tuple(KINDS)

# Known defects of the CLI, run once per traced cli-compare run at the
# default --jobs and reported as per-layer metrics (cli.defect_*), never as
# requests: a cold local grid races on the exact-series cache, and the
# vasicek baseline returns values far outside its own tail estimate.
DEFECT_KINDS = ("cir-local", "cir-vasicek")


GRID_POINTS = 16  # frequencies per Fourier-pricing grid in grid-local


def u_grid(rng, dimension: int) -> list:
    """Seeded frequency grid, symmetric spacing from a seeded bound, with
    the frequency on the first coordinate only."""
    u_max = rng.uniform(1.0, 3.0)
    step = 2.0 * u_max / (GRID_POINTS - 1)
    return [[-u_max + j * step] + [0.0] * (dimension - 1)
            for j in range(GRID_POINTS)]


def request(workload: str, seed: int, i: int) -> dict:
    """Request i of the workload's stream for this seed: the kind comes
    from the cycle, the numeric inputs from the seed."""
    kinds = KINDS[workload]
    return draw(kinds[i % len(kinds)], random.Random(f"{workload}:{seed}:{i}"))


def draw(kind: str, rng: random.Random) -> dict:
    """The numeric inputs of one request of this kind."""
    u = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
    if kind == "cir":
        return {"kind": kind, "k": 16, "t": rng.uniform(0.05, 0.5),
                "x": [rng.uniform(0.0, 0.2)], "us": u_grid(rng, 1)}
    if kind == "heston":
        return {"kind": kind, "k": 8, "t": rng.uniform(0.02, 0.1),
                "x": [rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.1)],
                "us": u_grid(rng, 2)}
    if kind in ("short", "long"):
        t = rng.uniform(0.05, 0.2) if kind == "short" else rng.uniform(1.0, 5.0)
        return {"kind": "cir", "k": 16, "t": t, "x": [rng.uniform(0.0, 0.2)],
                "us": [[u]]}
    if kind.startswith("series"):
        d, k = (1, 16) if kind == "series-d1" else (2, 8)
        return {"kind": "series", "d": d, "k": k}
    if kind == "triangle-nilpotency":
        return {"kind": kind, "rows": 16, "k": 10,
                "heston": {"b00": 0.0, "b10": 0.0, "b11": 0.0,
                           "b20": rng.uniform(0.02, 0.08),
                           "b21": rng.uniform(0.5, 3.0),
                           "s": rng.uniform(0.1, 0.6),
                           "rho": rng.uniform(-0.9, 0.0)}}
    lo, hi = rng.uniform(-3.0, -0.5), rng.uniform(0.5, 3.0)
    if kind == "cir-local":
        return {"kind": kind, "model": "cir", "mode": "local", "k": 16,
                "t": f"{rng.uniform(0.1, 0.2)!r}:{rng.uniform(0.4, 0.5)!r}:2",
                "u": f"{lo!r}:{hi!r}:2", "x": repr(rng.uniform(0.0, 0.2))}
    if kind == "cir-zero":
        return {"kind": kind, "model": "cir", "mode": "generalized",
                "baseline": "zero", "k": 8,
                "t": f"{rng.uniform(0.05, 0.1)!r}:{rng.uniform(0.1, 0.15)!r}:2",
                "u": f"{lo!r}:{hi!r}:2", "x": repr(rng.uniform(0.0, 0.2))}
    if kind == "heston-zero":
        return {"kind": kind, "model": "heston", "mode": "generalized",
                "baseline": "zero", "k": 8, "t": repr(rng.uniform(0.02, 0.05)),
                "u": f"{lo!r}:{hi!r}:2;0",
                "x": f"{rng.uniform(-0.5, 0.5)!r};{rng.uniform(0.01, 0.1)!r}"}
    return {"kind": kind, "model": "cir", "mode": "generalized",
            "baseline": "vasicek", "k": 8, "t": repr(rng.uniform(0.1, 0.5)),
            "u": f"{lo!r}:{hi!r}:2", "x": repr(rng.uniform(0.0, 0.2))}


def defect_requests(seed: int) -> list:
    """The known-defect CLI cases for this seed (see DEFECT_KINDS)."""
    return [draw(kind, random.Random(f"cli-compare-defect:{seed}:{kind}"))
            for kind in DEFECT_KINDS]


def request_hash(workload: str, seed: int, n: int = HASHED_PREFIX) -> str:
    stream = [request(workload, seed, i) for i in range(n)]
    return hashlib.sha256(json.dumps(stream, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Closed forms and checks
# ---------------------------------------------------------------------------


def closed_form(model: str, x, u, t: float) -> complex:
    from affine_cf.oracle import CIRParams, HestonParams, cir_cf, heston_cf

    if model == "cir":
        return cir_cf(CIRParams(**CIR), x[0], u[0], t)
    return heston_cf(HestonParams(**HESTON), x[0], x[1], u[0], t)


def check_value(model: str, x, u, t: float, value: complex, tail: float,
                tol: float) -> dict:
    """Compare one result with its closed form: ok, |err| and the tail."""
    err = abs(complex(value) - closed_form(model, x, u, t))
    return {"ok": bool(err <= tol), "err": err, "tail": float(tail)}


def check_exact(req: dict, out: dict) -> dict:
    """The exact claims: the two recursions agree at every order, triangle
    rows sum to n!, and the correction terms of a model expanded around
    itself are empty."""
    if req["kind"] == "series":
        ok = out["cross_check_ok"] == [True] * req["k"]
    else:
        ok = (out["row_sums"] == [math.factorial(n)
                                  for n in range(1, req["rows"] + 1)]
              and out["terms"] == [1] + [0] * req["k"])
    return {"ok": ok, "err": 0.0, "tail": 0.0}


def check_cli_rows(req: dict, payload: dict, tol: float) -> list:
    checks = []
    for row in payload["rows"]:
        x = [row[f"x{i}"] for i in (1, 2) if f"x{i}" in row]
        u = [row[f"u{i}"] for i in (1, 2) if f"u{i}" in row]
        value = complex(row["re"], row["im"])
        if row["reason"] or math.isnan(value.real):
            checks.append({"ok": False, "err": math.inf, "tail": row["tail"]})
            continue
        checks.append(check_value(req["model"], x, u, row["t"], value,
                                  row["tail"], tol))
    return checks


# ---------------------------------------------------------------------------
# Actions (run inside the worker, or as argv for a fresh process)
# ---------------------------------------------------------------------------


def models():
    from affine_cf.oracle import CIRParams, HestonParams, cir_model, heston_model

    return {"cir": cir_model(CIRParams(**CIR)),
            "heston": heston_model(HestonParams(**HESTON))}


def model_path(name: str) -> Path:
    return OUT / "models" / f"{name}.json"


def write_models() -> None:
    from affine_cf.symbols import save_model

    (OUT / "models").mkdir(parents=True, exist_ok=True)
    for name, model in models().items():
        save_model(model, model_path(name))


def run_in_process(workload: str, mods: dict, req: dict) -> list:
    """One request through the library: a CFResult per frequency."""
    from affine_cf import series_eval

    fn = series_eval.eval_local if workload == "grid-local" \
        else series_eval.eval_globalized
    return [fn(mods[req["kind"]], req["x"], u, req["t"], req["k"])
            for u in req["us"]]


def check_results(req: dict, results: list, tol: float) -> list:
    return [check_value(req["kind"], req["x"], u, req["t"], res.value,
                        res.tail_estimate, tol)
            for u, res in zip(req["us"], results)]


def in_process_probes(workload: str) -> list:
    """Fixed first requests that end set-up with a checked result."""
    if workload == "grid-local":
        return [{"kind": "cir", "k": 16, "t": 0.25, "x": [0.04], "us": [[1.0]]},
                {"kind": "heston", "k": 8, "t": 0.05, "x": [0.0, 0.04],
                 "us": [[1.0, 0.0]]}]
    return [{"kind": "cir", "k": 16, "t": 2.0, "x": [0.04], "us": [[1.0]]}]


def cli_args(req: dict, out_path: Path) -> list:
    args = ["compare", "--model", str(model_path(req["model"])),
            "--mode", req["mode"], "--k", str(req["k"]), f"--t={req['t']}",
            f"--u={req['u']}", f"--x={req['x']}", "--format", "json",
            "--out", str(out_path)]
    if "baseline" in req:
        args += ["--baseline", req["baseline"]]
    return args


def cli_argv(args: list, spans_path: Path = None) -> list:
    if spans_path is None:
        return [sys.executable, "-m", "affine_cf.cli", *args]
    return [sys.executable, str(HERE / "request.py"), "cli",
            "--spans", str(spans_path), "--", *args]


def exact_argv(req: dict, spans_path: Path = None) -> list:
    argv = [sys.executable, str(HERE / "request.py"), "exact", json.dumps(req)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    return argv


# Set-up probe of cli-compare: a user's first result, one CIR point.
CLI_PROBE = {"x": [0.04], "u": [1.0], "t": 0.25}


def probe_argv(workload: str, out_path: Path) -> list:
    if workload == "exact-cold":
        return [sys.executable, str(HERE / "request.py"), "probe"]
    p = CLI_PROBE
    return cli_argv(["eval", "--model", str(model_path("cir")),
                     f"--t={p['t']!r}", f"--u={p['u'][0]!r}", f"--x={p['x'][0]!r}",
                     "--format", "json", "--out", str(out_path)])


def check_probe(workload: str, stdout: str, out_path: Path) -> bool:
    if workload == "exact-cold":
        return json.loads(stdout.strip().splitlines()[-1]) == {"triangle_ok": True}
    row = json.loads(out_path.read_text())["rows"][0]
    p = CLI_PROBE
    return check_value("cir", p["x"], p["u"], p["t"],
                       complex(row["re"], row["im"]), row["tail"],
                       TOLERANCE["cli-compare"])["ok"]
