"""The benchmark's own checks: inputs, tracing, correctness checks, counts.

    python3 -m pytest perfbench/tests -q
"""
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = [W.request(workload, 7, i) for i in range(50)]
    again = [W.request(workload, 7, i) for i in range(50)]
    other = [W.request(workload, 8, i) for i in range(50)]
    assert first == again
    assert W.request_hash(workload, 7) == W.request_hash(workload, 7)
    assert W.request_hash(workload, 7) != W.request_hash(workload, 8)
    if workload != "exact-cold":  # exact-cold draws only its Heston model
        assert first != other
    # The kind cycle does not depend on the seed.
    assert [r["kind"] for r in first] == [r["kind"] for r in other]


def test_defect_cases_are_seeded_and_not_requests():
    cases = W.defect_requests(7)
    assert cases == W.defect_requests(7) != W.defect_requests(8)
    assert [c["kind"] for c in cases] == list(W.DEFECT_KINDS)
    kinds = {r["kind"] for r in (W.request("cli-compare", 7, i) for i in range(50))}
    assert not kinds & set(W.DEFECT_KINDS)


def _attributes():
    out = {}
    for module_name, attr, _ in T.TARGETS:
        owner, leaf = T._owner(module_name, attr)
        out[(module_name, attr)] = (owner.__dict__[leaf] if isinstance(owner, type)
                                    else getattr(owner, leaf))
    return out


def test_tracer_restores_every_wrapped_function():
    before = _attributes()
    assert T.missing_targets() == []
    tracer = T.Tracer()
    tracer.install()
    try:
        during = _attributes()
        assert all(during[k] is not before[k] for k in before)
    finally:
        tracer.uninstall()
    assert all(v is before[k] for k, v in _attributes().items())


def test_spans_are_thread_safe_and_nest_per_thread():
    tracer = T.Tracer()
    inner = tracer._wrap(lambda: None, "kernels.inner")
    outer = tracer._wrap(lambda: [inner() for _ in range(200)], "series_eval.x")
    barrier = threading.Barrier(4)

    def client():
        barrier.wait(timeout=30)  # all alive at once, so thread ids differ
        for _ in range(20):
            outer()
        barrier.wait(timeout=30)

    threads = [threading.Thread(target=client) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    assert len(spans) == 4 * 20 * 201
    for s in spans:
        if s[0] == "kernels.inner":
            parent = spans[s[3]]
            assert parent[0] == "series_eval.x" and parent[4] == s[4]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
    summary = T.summarize(spans)
    assert summary["by_name"]["kernels.inner"]["calls"] == 16000
    assert summary["threads"] == 4


def test_check_rejects_perturbed_value():
    tol = W.TOLERANCE["grid-local"]
    x, u, t = [0.1], [1.5], 0.3
    exact = W.closed_form("cir", x, u, t)
    assert W.check_value("cir", x, u, t, exact, 0.0, tol)["ok"]
    assert not W.check_value("cir", x, u, t, exact + 10 * tol, 0.0, tol)["ok"]
    hx, hu = [0.1, 0.04], [2.0, 0.0]
    exact = W.closed_form("heston", hx, hu, 0.05)
    assert not W.check_value("heston", hx, hu, 0.05, exact * (1 + 1e-9), 0.0,
                             W.TOLERANCE["cli-compare"])["ok"]


def test_exact_and_cli_checks_reject_wrong_output():
    series = {"kind": "series", "d": 1, "k": 3}
    assert W.check_exact(series, {"cross_check_ok": [True] * 3})["ok"]
    assert not W.check_exact(series, {"cross_check_ok": [True, False, True]})["ok"]
    claims = {"kind": "triangle-nilpotency", "rows": 3, "k": 2}
    good = {"row_sums": [1, 2, 6], "terms": [1, 0, 0]}
    assert W.check_exact(claims, good)["ok"]
    assert not W.check_exact(claims, {**good, "row_sums": [1, 2, 7]})["ok"]
    assert not W.check_exact(claims, {**good, "terms": [1, 0, 3]})["ok"]
    req = {"model": "cir"}
    value = W.closed_form("cir", [0.1], [1.0], 0.2)
    row = {"t": 0.2, "x1": 0.1, "u1": 1.0, "re": value.real, "im": value.imag,
           "tail": 0.0, "reason": ""}
    assert W.check_cli_rows(req, {"rows": [row]}, 1e-12)[0]["ok"]
    bad = dict(row, re=value.real + 1e-9)
    assert not W.check_cli_rows(req, {"rows": [bad]}, 1e-12)[0]["ok"]
    failed = dict(row, reason="ValueError: boom")
    assert not W.check_cli_rows(req, {"rows": [failed]}, 1e-12)[0]["ok"]


def test_failed_requests_are_counted_against_attempted(monkeypatch):
    def fake_run(workload, mods, req):
        i = fake_run.calls
        fake_run.calls += 1
        if i == 1:
            raise ZeroDivisionError("request blew up")
        out = []
        for u in req["us"]:
            value = W.closed_form(req["kind"], req["x"], u, req["t"])
            out.append(SimpleNamespace(value=value + (1e-3 if i == 4 else 0.0),
                                       tail_estimate=1e-20))
        return out

    fake_run.calls = 0
    monkeypatch.setattr(W, "run_in_process", fake_run)
    samples, _ = worker.measure("grid-local", 3, 0.0, 0, 10.0, {}, None)
    assert len(samples.ok) == W.MIN_REQUESTS
    assert samples.ok.count(False) == 2
    assert [f["index"] for f in samples.failures] == [1, 4]
    assert len(samples.cpu) == len(samples.wall) == len(samples.ok)


def test_tail_latency_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # Between 11 and 99 samples the rule would sit near the median.
    assert run.tail_latency([float(i) for i in range(12)]) == (11.0, 100.0, 0)
