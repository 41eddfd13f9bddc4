"""In-memory spans around the calls into each affine_cf layer.

The tracer wraps module attributes at the name the *caller* resolves (for
example ``affine_cf.series_eval.evaluate_compiled``, which series_eval
imported from kernels), so nothing under ``src/`` is edited.  Spans are kept
in a list guarded by a lock, parent links come from a per-thread stack, and
everything is written out only when the benchmark ends.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# (module, attribute, span name).  The layer is the span name's prefix.
# A target missing from the program (renamed or deleted by a later change)
# is skipped and reported, never fatal.
TARGETS = (
    ("affine_cf.series_eval", "eval_local", "series_eval.eval_local"),
    ("affine_cf.series_eval", "eval_globalized", "series_eval.eval_globalized"),
    ("affine_cf.cli", "eval_local", "series_eval.eval_local"),
    ("affine_cf.cli", "eval_globalized", "series_eval.eval_globalized"),
    ("affine_cf.series_eval", "_tau_series", "series_eval.tau_build"),
    ("affine_cf.series_eval", "d_series", "symalg.d_series"),
    ("affine_cf.series_eval", "apply_symbol_operator", "symalg.apply_symbol_operator"),
    ("affine_cf.symalg", "apply_symbol_operator", "symalg.apply_symbol_operator"),
    ("affine_cf.symalg", "d_series", "symalg.d_series"),
    ("affine_cf.symalg", "coefficient_recursion", "symalg.coefficient_recursion"),
    ("affine_cf.symalg", "cross_check", "symalg.cross_check"),
    ("affine_cf.symalg", "counting_triangle", "symalg.counting_triangle"),
    ("affine_cf.series_eval", "compile_series", "kernels.compile"),
    ("affine_cf.series_eval", "evaluate_compiled", "kernels.eval"),
    ("affine_cf.series_eval", "eval_symbol_table", "symbols.table"),
    ("affine_cf.gensym", "eval_symbol_table_xi", "symbols.table"),
    ("affine_cf.series_eval", "sup_bound", "symbols.sup_bound"),
    ("affine_cf.cli", "eval_generalized", "gensym.eval_generalized"),
    ("affine_cf.gensym", "correction_series", "gensym.correction"),
    ("affine_cf.symalg", "SymPoly.eval", "gensym.atom_eval"),
    ("affine_cf.cli", "riccati_cf", "oracle.riccati"),
)


def _terms_out(args, kwargs, result):
    return len(result.terms)


def _kernel_work(args, kwargs, result):
    """(terms evaluated, bytes computed) from the CompiledSeries arrays."""
    cs = args[0]
    points = 1 if result.ndim == 1 else result.shape[0]
    arrays = (cs.coeffs, cs.term_off, cs.atom_idx, cs.atom_pow, cs.factor_off)
    # Each point reads the term arrays and its atom values and writes its
    # outputs; labelled "computed" because cache behaviour is not measured.
    per_point = sum(a.nbytes for a in arrays) + 16 * (cs.n_atoms + cs.n_polys)
    return (cs.coeffs.size * points, per_point * points)


COUNTERS = {
    "symalg.apply_symbol_operator": _terms_out,
    "kernels.eval": _kernel_work,
}


def _owner(module_name: str, attr: str):
    """(object holding the attribute, attribute name), or (None, name)."""
    *path, leaf = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None, leaf
    for part in path:
        owner = getattr(owner, part, None)
    return (owner, leaf) if hasattr(owner, leaf) else (None, leaf)


def missing_targets() -> list:
    """Targets the program no longer has; their spans read as zero."""
    return [f"{m}.{a}" for m, a, _ in TARGETS if _owner(m, a)[0] is None]


class Tracer:
    """Thread-safe span recorder with reversible attribute wrapping.

    A span is [name, start, end, parent index, thread id, request id, extra].
    """

    def __init__(self):
        self.spans = []
        self.request = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), tracer.request, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            owner, leaf = _owner(module_name, attr)
            if owner is None:
                continue
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def span_overhead_s(samples: int = 20000) -> float:
    """Cost of one span: a wrapped no-op call minus the bare call."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "trace.noop")
    best = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        best.append(time.perf_counter() - t0)
    return max(best[1] - best[0], 0.0) / samples


def _add(by_name: dict, name: str, calls, self_s, total_s, extra) -> None:
    acc = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "extra": None})
    acc["calls"] += calls
    acc["self_s"] += self_s
    acc["total_s"] += total_s
    if extra is not None:
        extra = tuple(extra) if isinstance(extra, (tuple, list)) else (extra,)
        prev = acc["extra"] or (0,) * len(extra)
        acc["extra"] = tuple(a + b for a, b in zip(prev, extra))


def summarize(spans) -> dict:
    """Per span name: calls, self and total seconds, summed counters; plus
    the globalized requests' times split by path."""
    self_time = [s[2] - s[1] for s in spans]
    composed = set()
    for s in spans:
        parent = s[3]
        if parent >= 0:
            self_time[parent] -= s[2] - s[1]
            if s[0] == "kernels.eval" and spans[parent][0] == "series_eval.eval_globalized":
                composed.add(parent)
    by_name: dict = {}
    for s, st in zip(spans, self_time):
        _add(by_name, s[0], 1, st, s[2] - s[1], s[6])
    glob = [(i, (s[2] - s[1]) * 1e3) for i, s in enumerate(spans)
            if s[0] == "series_eval.eval_globalized"]
    return {
        "by_name": by_name,
        "composed_ms": [ms for i, ms in glob if i in composed],
        "stepped_ms": [ms for i, ms in glob if i not in composed],
        # Threads that ran request work (the CLI's oracle runs on its main
        # thread after the pool is done).
        "threads": len({s[4] for s in spans
                        if s[3] < 0 and not s[0].startswith("oracle.")}),
        "spans": len(spans),
    }


def merge(summaries) -> dict:
    """Combine summaries of several processes (one per cold request)."""
    out = {"by_name": {}, "composed_ms": [], "stepped_ms": [],
           "threads": 0, "spans": 0}
    for sm in summaries:
        for name, e in sm["by_name"].items():
            _add(out["by_name"], name, e["calls"], e["self_s"], e["total_s"],
                 e["extra"])
        out["composed_ms"] += sm["composed_ms"]
        out["stepped_ms"] += sm["stepped_ms"]
        out["threads"] = max(out["threads"], sm["threads"])
        out["spans"] += sm["spans"]
    return out


def layer_self_s(summary: dict, layer: str) -> float:
    return sum((e["self_s"] for n, e in summary["by_name"].items()
                if n.split(".", 1)[0] == layer), 0.0)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
