"""affine-cf benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload grid-local --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separately traced run.  Every
result is checked (see workloads.py); failed requests are counted, never
dropped.  The full record, with machine facts and the request hash, goes to
``.perfbench_out/result-<workload>-<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import tracer as T
import workloads as W
from worker import cpu_seconds

SETUPS = 3         # fresh-interpreter set-ups per run; setup_s is their median
TIME_LIMIT = 170.0  # a run ends well inside the 180 s it is allowed
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail latency


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(W.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def read_ready(proc, t0: float, deadline: float) -> tuple:
    """(wall seconds from ``t0``, worker CPU seconds) at its READY line."""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError("worker did not finish set-up in time")
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited during set-up: {proc.stderr.read()[-500:]}")
        if line.startswith("READY "):
            return time.perf_counter() - t0, float(line.split()[1])


def start_worker(args, extra, deadline):
    argv = [sys.executable, str(W.HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=W.ROOT)
    try:
        return proc, read_ready(proc, t0, deadline)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise


def setup_samples(args, deadline) -> tuple:
    """(wall, CPU) set-up seconds of fresh interpreters, first result
    checked, and the probes that failed their check.

    Library workloads time a worker to its READY line (the measuring worker
    reports its own probe checks); fresh-process workloads time the process
    a user starts (the CLI, or an exact request program) to its exit and
    then check its output."""
    samples, failures = [], []
    if args.workload in W.IN_PROCESS:
        for _ in range(SETUPS - 1):  # the measuring worker gives the last one
            proc, seconds = start_worker(args, ["--setup-only"], deadline)
            proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
            samples.append(seconds)
        return samples, failures
    out_path = W.OUT / f"probe-{os.getpid()}.json"
    for _ in range(SETUPS):
        t0, c0 = time.perf_counter(), cpu_seconds(children=True)
        proc = subprocess.run(W.probe_argv(args.workload, out_path),
                              capture_output=True, text=True, env=child_env(),
                              cwd=W.ROOT,
                              timeout=max(deadline - time.perf_counter(), 1))
        samples.append((time.perf_counter() - t0,
                        cpu_seconds(children=True) - c0))
        if proc.returncode != 0 or not W.check_probe(args.workload, proc.stdout,
                                                     out_path):
            failures.append(f"exit {proc.returncode}: {proc.stderr[-300:]}")
    out_path.unlink(missing_ok=True)
    return samples, failures


def tail_latency(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    once that percentile is p90 or above; with fewer samples, where it would
    fall towards the median, the maximum (no sample beyond).  Returns the
    value, its percentile and the samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    idx = n - TAIL_BEYOND - 1 if n >= 10 * TAIL_BEYOND else n - 1
    return lat[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def calibration(pairs):
    """Share of numeric results with |err| <= tail estimate, and the worst
    |err| / tail.  Results without a finite error and tail are left out."""
    pairs = [(e, t) for e, t in pairs if math.isfinite(e) and math.isfinite(t)]
    if not pairs:
        return 1.0, 0.0
    covered = sum(1 for e, t in pairs if e <= t) / len(pairs)
    worst = max(e / max(t, sys.float_info.min) if e > 0 else 0.0 for e, t in pairs)
    return covered, worst


def end_to_end(res, setups):
    """Times are CPU seconds of the process(es) serving the request; the
    wall-clock equivalents go to the result file beside them."""
    lat = res["cpu"]
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    wall_tail = tail_latency(res["wall"])[0]
    detail = {"tail_percentile": pct, "tail_samples_beyond": beyond,
              "requests": len(lat), "setup_samples_wall_cpu_s": setups,
              "wall": {"setup_s": statistics.median(w for w, _ in setups),
                       "throughput_rps": len(lat) / res["window_s"],
                       "latency_p50_ms": statistics.median(res["wall"]) * 1e3,
                       "latency_tail_ms": wall_tail * 1e3}}
    return metrics, detail


def per_layer(res):
    tr = res["trace"]
    by = tr["by_name"]
    n = len(res["cpu"])

    def get(name, key="total_s"):
        return by.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    def extra(name, i=0):
        e = by.get(name, {}).get("extra")
        return e[i] if e else 0

    symalg_calls = sum(e["calls"] for k, e in by.items() if k.startswith("symalg."))
    covered, worst = calibration(res["calibration"])
    cli = res["cli"]
    defects = res["defects"] or {"failed": 0, "worst_err": 0.0}
    return {
        "symalg.build_s": (T.layer_self_s(tr, "symalg"), "s"),
        "symalg.calls": (symalg_calls, "count"),
        "symalg.terms_built": (extra("symalg.apply_symbol_operator"), "count"),
        "symbols.table_s": (get("symbols.table"), "s"),
        "symbols.table_calls": (get("symbols.table", "calls"), "count"),
        "symbols.sup_bound_s": (get("symbols.sup_bound"), "s"),
        "kernels.compile_s": (get("kernels.compile"), "s"),
        "kernels.eval_s": (get("kernels.eval"), "s"),
        "kernels.calls": (get("kernels.eval", "calls"), "count"),
        "kernels.terms_evaluated": (extra("kernels.eval", 0), "count"),
        "kernels.bytes_computed": (extra("kernels.eval", 1), "B"),
        "series_eval.self_s": (T.layer_self_s(tr, "series_eval"), "s"),
        "series_eval.composed_ms_p50": (T.median_or_zero(tr["composed_ms"]), "ms"),
        "series_eval.stepped_ms_p50": (T.median_or_zero(tr["stepped_ms"]), "ms"),
        "series_eval.tau_builds_per_req": (get("series_eval.tau_build", "calls") / n, "count"),
        "series_eval.tail_covered_frac": (covered, "ratio"),
        "series_eval.worst_err_over_tail": (worst, "ratio"),
        "gensym.correction_s": (get("gensym.correction"), "s"),
        "gensym.correction_calls_per_req": (get("gensym.correction", "calls") / n, "count"),
        "gensym.atom_eval_s": (get("gensym.atom_eval"), "s"),
        "oracle.riccati_s": (get("oracle.riccati"), "s"),
        "oracle.riccati_calls": (get("oracle.riccati", "calls"), "count"),
        "cli.series_s": (cli["series_s"], "s"),
        "cli.oracle_s": (cli["oracle_s"], "s"),
        "cli.overhead_s": (cli["wall_s"] - cli["series_s"] - cli["oracle_s"]
                           if cli["wall_s"] else 0.0, "s"),
        "cli.jobs": (tr["threads"] if cli["wall_s"] else 0, "count"),
        "cli.defect_rows_failed": (defects["failed"], "count"),
        "cli.defect_worst_err": (defects["worst_err"], "abs"),
        "trace.spans": (tr["spans"], "count"),
        "trace.requests": (n, "count"),
        "trace.latency_p50_ms": (statistics.median(res["cpu"]) * 1e3, "ms"),
        "trace.overhead_ms_per_req": (res["span_cost_s"] * tr["spans"] / n * 1e3, "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (W.SRC / "affine_cf" / "__init__.py").is_file():
        print(f"perfbench: no affine_cf sources under {W.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    deadline = time.perf_counter() + TIME_LIMIT
    W.OUT.mkdir(exist_ok=True)
    W.write_models()

    try:
        setups, setup_failures = ([], []) if args.trace \
            else setup_samples(args, deadline)
        # Fresh requests must end before the run's time limit.
        proc, ready_s = start_worker(
            args, ["--deadline", str(max(deadline - time.perf_counter() - 10, 5))],
            deadline)
        if args.workload in W.IN_PROCESS:
            setups.append(ready_s)
        try:
            out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker exceeded the run's time limit")
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {err[-800:]}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    if not res["cpu"]:
        print("perfbench: no request completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(res)
        detail = {"span_cost_s": res["span_cost_s"], "defects": res["defects"],
                  "missing_targets": res["missing_targets"],
                  "spans_by_name": res["trace"]["by_name"]}
    else:
        metrics, detail = end_to_end(res, setups)
    failed = res["ok"].count(False)
    setup_failures += res["setup_failures"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tolerance": W.TOLERANCE[args.workload],
        "facts": res["facts"], "request_sha256": res["request_sha256"],
        "attempted": len(res["ok"]), "failed": failed,
        "failures": res["failures"], "setup_failures": setup_failures,
        **detail,
        "cpu_s": res["cpu"], "wall_s": res["wall"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = W.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("metrics", "failures", "setup_failures",
                                   "cpu_s", "wall_s")}))
    print(json.dumps({"correct": failed == 0 and not setup_failures,
                      "attempted": len(res["ok"]),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
