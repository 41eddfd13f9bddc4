"""Fresh-interpreter programs of the benchmark.

    request.py exact '<request json>' [--spans PATH]
        One cold exact-cold request: d_series, coefficient_recursion and
        cross_check at every order; or counting_triangle together with the
        correction_series of a Heston model around itself.  Prints the
        facts the checks need as JSON.
    request.py probe
        Set-up probe of exact-cold: import plus a small checked triangle.
    request.py cli --spans PATH -- <affine-cf arguments>
        ``affine-cf`` with spans recorded around its layers.

With ``--spans`` the layers are traced and the spans are written to PATH
when the program ends.  Library functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import sys


def exact(req: dict) -> dict:
    from affine_cf import gensym, oracle, symalg

    if req["kind"] == "series":
        d, k = req["d"], req["k"]
        series = symalg.d_series(d, k)
        rows = symalg.coefficient_recursion(d, k)
        return {"cross_check_ok": [symalg.cross_check(series, rows, order, d).ok
                                   for order in range(1, k + 1)]}
    params = oracle.HestonParams(**req["heston"])
    terms = gensym.correction_series(oracle.heston_model(params),
                                     gensym.heston_baseline(params), req["k"])
    return {"row_sums": symalg.counting_triangle(req["rows"]).row_sums,
            "terms": [len(p.terms) for p in terms]}


def main(argv) -> int:
    spans_path = None
    if "--spans" in argv:
        at = argv.index("--spans")
        spans_path = argv[at + 1]
        del argv[at:at + 2]
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "exact":
            print(json.dumps(exact(json.loads(argv[1]))))
            code = 0
        elif argv[0] == "probe":
            from affine_cf import symalg
            sums = symalg.counting_triangle(4).row_sums
            ok = all(r == math.factorial(n) for n, r in enumerate(sums, 1))
            print(json.dumps({"triangle_ok": ok}))
            code = 0
        elif argv[0] == "cli":
            from affine_cf import cli
            code = cli.main(argv[argv.index("--") + 1:])
        else:
            print(f"unknown program {argv[0]!r}", file=sys.stderr)
            code = 2
    finally:
        if tracer:
            tracer.uninstall()
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
