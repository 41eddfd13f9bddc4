"""The paper's "convergent globally in time" claim as measured curves.

Run:  python3 benchmarks/bench_convergence.py

The local series read at t(tau) = beta gd^-1(pi tau/2), the tangent-log
transform, is the tau series e_k = sum_j [tau^k] t(tau)^j d_j, d_j from
the flow jet (``series_eval._flow_jet`` through ``_exp_jet``); gd^-1(z) = sum_n S_n z^(2n+1) / (2n+1)! with S_n
the secant numbers.  On CIR at x = 0.178, u = 2.92 and a fixed beta it
prints the error against ``cir_cf`` and the series' tail estimate over K at
three tau.  It asserts nothing: the library steps the semiflow instead.
"""
from __future__ import annotations

import math

import numpy as np

from affine_cf.oracle import CIRParams, cir_cf, cir_model
from affine_cf.series_eval import (TimeTransform, _exp_jet, _flow_jet,
                                   _tail_estimate)

CIR = CIRParams(b0=0.04, b1=-0.5, s=0.2)
X, U, BETA = 0.178, 2.92, 0.25
ORDERS, TAUS = (16, 24, 32, 48), (0.3, 0.59, 0.9)


def transform_coefficients(order: int) -> np.ndarray:
    """[tau^m] t(tau) for m = 0 .. order."""
    # zigzag numbers 2 A_(n+1) = sum_k C(n, k) A_k A_(n-k); S_n = A_(2n)
    zigzag = [1, 1]
    for n in range(1, order):
        zigzag.append(sum(math.comb(n, k) * zigzag[k] * zigzag[n - k]
                          for k in range(n + 1)) // 2)
    out = np.zeros(order + 1)
    for m in range(1, order + 1, 2):
        out[m] = BETA * zigzag[m - 1] / math.factorial(m) * (math.pi / 2) ** m
    return out


def composed(order: int, tau: float):
    """(value, tail estimate) of the composed tau series at order K."""
    d = _exp_jet(_flow_jet(cir_model(CIR), [1j * U], order), np.array([X]))
    shift = transform_coefficients(order)
    e, power = np.zeros(order + 1, dtype=complex), shift
    for dj in d:
        e += dj * power
        power = np.convolve(power, shift)[:order + 1]
    contributions = [e[k] * tau ** k for k in range(1, order + 1)]
    value = np.exp(1j * U * X) * (1.0 + sum(reversed(contributions)))
    return value, _tail_estimate(contributions, value)


def main() -> None:
    print(f"CIR x = {X}, u = {U}, beta = {BETA}")
    print(f"{'tau':>5} {'t':>7} {'K':>3} {'|error|':>10} {'tail':>10}")
    for tau in TAUS:
        t = TimeTransform(BETA).forward(tau)
        ref = cir_cf(CIR, X, U, t)
        for order in ORDERS:
            value, tail = composed(order, tau)
            print(f"{tau:>5} {t:>7.4f} {order:>3} {abs(value - ref):>10.2e} "
                  f"{tail:>10.2e}")


if __name__ == "__main__":
    main()
