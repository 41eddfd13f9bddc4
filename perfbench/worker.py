"""One fresh interpreter of a benchmark run.

Set-up ends with a checked first result and a ``READY`` line on stdout;
the parent times set-up from process start to that line.  Unless
``--setup-only`` is given, the worker then issues the workload's requests
in a closed loop (one client, the next request only after the previous one
returned) until ``--seconds`` have passed, checks every result and prints
one JSON line with the raw samples.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import tracer as T
import workloads as W


def machine_facts() -> dict:
    import numpy

    from affine_cf import kernels

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "USING_NUMBA": kernels.USING_NUMBA,
            "AFFINE_CF_NO_NUMBA": os.environ.get("AFFINE_CF_NO_NUMBA", "")}


def cpu_seconds(children: bool) -> float:
    """CPU time of this thread, or of the finished child processes."""
    if not children:
        return time.thread_time()
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def mark(children: bool) -> tuple:
    return time.perf_counter(), cpu_seconds(children)


def since(start: tuple, children: bool) -> tuple:
    """(wall, cpu) seconds since ``start``."""
    return time.perf_counter() - start[0], cpu_seconds(children) - start[1]


class Samples:
    """What the measured window produced, one entry per request."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.ok = []
        self.calibration = []  # (|err|, tail) per numeric result
        self.failures = []
        self.cli = {"series_s": 0.0, "oracle_s": 0.0, "wall_s": 0.0}
        self.summaries = []  # span summaries of fresh request processes

    def record(self, i, req, took, checks, reason=""):
        good = bool(checks) and all(c["ok"] for c in checks) and not reason
        self.wall.append(took[0])
        self.cpu.append(took[1])
        self.ok.append(good)
        self.calibration += [(c["err"], c["tail"]) for c in checks]
        if not good and len(self.failures) < 20:
            worst = max((c["err"] for c in checks), default=None)
            self.failures.append({"index": i, "request": req,
                                  "reason": reason or f"max |err| {worst!r}"})


def set_up(workload: str):
    """In-process workloads: models, then the probes that build the exact
    series and give the first checked result.  Returns the models and the
    probes that failed; a wrong program is reported, not a crash."""
    if workload not in W.IN_PROCESS:
        return None, []
    mods = W.models()
    failed = []
    for probe in W.in_process_probes(workload):
        try:
            checks = W.check_results(probe, W.run_in_process(workload, mods, probe),
                                     W.TOLERANCE[workload])
        except Exception as exc:  # counted like a failed request
            checks = [{"ok": False, "err": f"{type(exc).__name__}: {exc}"}]
        if not all(c["ok"] for c in checks):
            failed.append({"probe": probe, "checks": checks})
    return mods, failed


def fresh_request(workload, req, i, samples, tol, trace, timeout):
    """Run one request as its own interpreter and check what it printed."""
    base = W.OUT / f"req-{os.getpid()}"
    out_path = base.with_suffix(".cli.json")
    spans_path = base.with_suffix(".spans.json") if trace else None
    if workload == "exact-cold":
        argv = W.exact_argv(req, spans_path)
    else:
        argv = W.cli_argv(W.cli_args(req, out_path), spans_path)
    t0 = mark(children=True)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout, cwd=W.ROOT)
    except subprocess.TimeoutExpired:
        samples.record(i, req, since(t0, True), [], "timeout")
        return False
    took = since(t0, True)
    if proc.returncode != 0:
        samples.record(i, req, took, [],
                       f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return True
    if workload == "exact-cold":
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.record(i, req, took, [W.check_exact(req, out)])
    else:
        payload = json.loads(out_path.read_text())
        out_path.unlink()
        s = payload["summary"]
        samples.cli["series_s"] += s["series_seconds"]
        samples.cli["oracle_s"] += s["oracle_seconds"]
        samples.cli["wall_s"] += took[0]
        samples.record(i, req, took, W.check_cli_rows(req, payload, tol))
    if trace:
        samples.summaries.append(T.summarize(json.loads(spans_path.read_text())))
        spans_path.unlink()
    return True


def probe_defects(seed, timeout) -> dict:
    """Run the CLI's known-defect cases (``W.DEFECT_KINDS``) once each,
    untraced and at the default --jobs, and measure how far off they are.
    They are not requests: a fixed defect shows here as 0 failed rows."""
    out_path = W.OUT / f"defect-{os.getpid()}.cli.json"
    found = {"rows": 0, "failed": 0, "worst_err": 0.0}
    for req in W.defect_requests(seed):
        proc = subprocess.run(W.cli_argv(W.cli_args(req, out_path)),
                              capture_output=True, text=True, timeout=timeout,
                              cwd=W.ROOT)
        if proc.returncode != 0:  # the case itself broke: one failed row
            found["rows"] += 1
            found["failed"] += 1
            continue
        checks = W.check_cli_rows(req, json.loads(out_path.read_text()),
                                  W.TOLERANCE["cli-compare"])
        out_path.unlink()
        found["rows"] += len(checks)
        found["failed"] += sum(not c["ok"] for c in checks)
        found["worst_err"] = max([found["worst_err"]] + [
            c["err"] for c in checks if c["err"] < float("inf")])
    return found


def measure(workload, seed, seconds, trace, deadline, mods, tracer):
    tol = W.TOLERANCE[workload]
    samples = Samples()
    W.OUT.mkdir(exist_ok=True)
    cycle = len(W.KINDS[workload])
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds or i % cycle
           or i < W.MIN_REQUESTS):
        req = W.request(workload, seed, i)
        if mods is None:
            timeout = max(deadline - (time.perf_counter() - start), 1.0)
            if not fresh_request(workload, req, i, samples, tol, trace,
                                 timeout):
                break
        else:
            if tracer:
                tracer.request = i
            t0 = mark(children=False)
            try:
                res = W.run_in_process(workload, mods, req)
            except Exception as exc:  # a failed request is counted, not fatal
                samples.record(i, req, since(t0, False), [],
                               f"{type(exc).__name__}: {exc}")
            else:
                took = since(t0, False)
                samples.record(i, req, took, W.check_results(req, res, tol))
        i += 1
    return samples, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--deadline", type=float, default=150.0,
                    help="seconds after which a fresh request is killed")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # A traced run also covers set-up, where the exact series are built.
    tracer = T.Tracer() if args.trace and args.workload in W.IN_PROCESS else None
    if tracer:
        tracer.request = -1
        tracer.install()
    try:
        mods, setup_failures = set_up(args.workload)
        # CPU time of this interpreter since it started.
        print(f"READY {time.process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        samples, window = measure(args.workload, args.seed, args.seconds,
                                  args.trace, args.deadline, mods, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    defects = probe_defects(args.seed, max(args.deadline - window, 1.0)) \
        if args.trace and args.workload == "cli-compare" else None
    summaries = samples.summaries
    if tracer:
        summaries = [T.summarize(tracer.spans)]
        (W.OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.spans))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "wall": samples.wall, "cpu": samples.cpu, "ok": samples.ok,
        "window_s": window,
        "calibration": samples.calibration, "failures": samples.failures,
        "cli": samples.cli, "setup_failures": setup_failures,
        "defects": defects,
        # The process a user runs: this one for library workloads, else the
        # largest fresh request process.
        "peak_rss_mb": (own if mods is not None else kids) / 1024.0,
        "facts": machine_facts(),
        "request_sha256": W.request_hash(args.workload, args.seed),
        "trace": T.merge(summaries) if args.trace else None,
        "missing_targets": T.missing_targets() if args.trace else [],
        "span_cost_s": T.span_overhead_s() if args.trace else 0.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
