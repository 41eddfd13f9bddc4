"""Smoke runs of the benchmark scripts: each once, at its smallest size, in
a fresh interpreter, checked for exit code 0 and parseable output.  The
timings themselves are never asserted."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def run_script(name: str, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(BENCHMARKS / name), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("what,case", [
    ("riccati_cf", "cir"),
    ("riccati_cf", "bm_jumps"),
    ("riccati_cf", "cir-t5"),
    ("eval_local", "cir-K16"),
    ("grid", "cir-K16"),
    ("grid", "bm_jumps-K16"),
    ("eval_globalized", "cir-t1"),
    ("semiflow", "cir-t1"),
    ("eval_generalized", "cir-vasicek"),
    ("baseline", "zero"),
    ("baseline", "vasicek"),
    ("baseline", "heston"),
])
def test_bench_oracle_one_point(what, case):
    result = json.loads(run_script("bench_oracle.py", "--one", what, case, "1"))
    keys = {"cpu_s", "rss_mb"} | (
        {"table_s", "jet_s"} if what in ("grid", "semiflow") else set()) | (
        {"steps"} if what in ("semiflow", "riccati_cf") else set())
    assert set(result) == keys
    assert all(isinstance(v, float) for v in result.values())


def test_bench_convergence():
    lines = run_script("bench_convergence.py").splitlines()
    rows = [line.split() for line in lines[2:]]
    # tau, t, K, |error| and tail: all numbers, none negative
    assert rows and all(len(row) == 5 for row in rows)
    assert all(float(v) >= 0.0 for row in rows for v in row)


def test_bench_exact():
    out = run_script("bench_exact.py", "--series", "1:4", "--triangle", "4",
                     "--repeats", "1")
    layer_part, start_part = out.split("\nstart-up")
    rows = [line for line in layer_part.splitlines()
            if line and not line.startswith("layer")]
    starts = [line.split() for line in start_part.splitlines()[1:] if line]
    layers = {row.split()[0] for row in rows}
    assert {"d_series", "coefficient_recursion", "cross_check",
            "counting_triangle", "correction_series"} <= layers
    # the last column holds the run times, one per repeat
    assert all(float(row.split()[-1]) >= 0.0 for row in rows)
    assert all(float(row[-1]) >= 0.0 for row in starts)
    # no start-up loads numpy, the numeric CLI's included: with one repeat
    # the numpy column is the fourth from the right
    assert len(starts) == 5 and all(row[-4] == "no" for row in starts)
