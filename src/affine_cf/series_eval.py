"""Numeric evaluation of the characteristic-function power series.

Every mode takes its numbers from one numeric engine, the flow jet
(:func:`_flow_jet`): from a model and a complex xi it gives the Taylor
coefficients of phi(h, xi) and delta(h) = psi(h, xi) - xi.  The symbol is
affine in x, so the jet reads only the x = 0 derivative rows
d^eps sigma_c(xi), c = 0..d, of :func:`symbols.component_rows`.  Each jet
coefficient is a polynomial in the symbol's derivatives with rational
weights, as every d_k is.  Since f = exp(phi + psi . x) for an affine
process, the paper's coefficients are d_k(x, xi) = L^k 1 / k! =
[h^k] exp(phi(h) + delta(h) . x), read from the jet through the
power-series exponential (:func:`_exp_jet`).  Local mode evaluates
exp(iux) (1 + sum_k d_k(x, iu) t^k).  Globalized mode follows the affine
semiflow psi(s + h, iu) = psi(h, psi(s, iu)) from s = 0 at every horizon:
each step takes the jet at the current xi and carries only phi and xi, so
the result exp(phi + xi . x) is uniform in x.  The tangent-log time
transform t(tau) = beta ln tan(pi/4 + pi tau/4) is kept as a map of its
own.  The generalized mode of :mod:`gensym` takes the same exponential of
the difference of two jets at iu, the target's and its baseline's.  The
exact atom algebra of :mod:`symalg` is not used here.
"""
from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .oracle import BLOWUP_LIMIT, MomentExplosionError
from .symbols import AffineModel, _checked_point, component_rows

LOCAL = "Local"
GLOBALIZED = "Globalized"


# ---------------------------------------------------------------------------
# Time transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeTransform:
    """t(tau) = beta ln tan(pi/4 + pi tau / 4), a bijection [0,1) -> [0,inf)."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be > 0")

    def forward(self, tau: float) -> float:
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {tau}")
        # ln tan(pi/4 + pi tau/4) = asinh(tan(pi tau/2)), exact at tau = 0
        return self.beta * math.asinh(math.tan(math.pi * tau / 2))

    def inverse(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return (4.0 / math.pi) * (math.atan(math.exp(t / self.beta)) - math.pi / 4)


def time_forward(tt: TimeTransform, tau: float) -> float:
    return tt.forward(tau)


def time_inverse(tt: TimeTransform, t: float) -> float:
    return tt.inverse(t)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CFResult:
    """One characteristic-function evaluation with per-order diagnostics."""

    value: complex
    order_contributions: list
    truncation_order: int
    tail_estimate: float
    mode: str
    warnings: list = field(default_factory=list)


# Relative rounding error of a summed value, a few ulps: no tail estimate
# is below it.
ROUNDING_FLOOR = 4 * sys.float_info.epsilon


def _tail_estimate(contributions, value, exponent=0.0) -> float:
    """|last term| inflated by 1/(1-r), r the last observed term ratio
    clipped to [0, 0.9]; at least ROUNDING_FLOOR * |value| (1 + |exponent|
    + sum |terms|), the rounding of the summed terms and of a prefactor
    exp(exponent)."""
    floor = ROUNDING_FLOOR * abs(value) * (
        1.0 + abs(exponent) + sum(map(abs, contributions)))
    if not contributions:
        return floor
    last = abs(contributions[-1])
    r = 0.0
    if len(contributions) >= 2 and abs(contributions[-2]) > 0:
        r = min(max(last / abs(contributions[-2]), 0.0), 0.9)
    return max(last / (1.0 - r), floor)


# ---------------------------------------------------------------------------
# Local evaluation
# ---------------------------------------------------------------------------


def _series_result(exponent, coefficients, t: float, mode: str) -> CFResult:
    """exp(exponent) (1 + sum_k c_k t^k) with c_1 .. c_K = coefficients,
    summed from the highest order down (small terms first).  The tail
    counts the prefactor's rounding, eps |exponent| |value|."""
    truncation = len(coefficients)
    contributions = [coefficients[k - 1] * t ** k
                     for k in range(1, truncation + 1)]
    series = 0.0 + 0.0j
    for c in reversed(contributions):
        series += c
    value = cmath.exp(exponent) * (1.0 + series)
    return CFResult(value, contributions, truncation,
                    _tail_estimate(contributions, value, exponent), mode)


def eval_local(model: AffineModel, x, u, t: float, truncation: int = 16) -> CFResult:
    """exp(iux) (1 + sum_{k=1..K} d_k(x, iu) t^k), d_k read from the flow
    jet at iu as [h^k] exp(phi(h) + delta(h) . x) (:func:`_exp_jet`)."""
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    x, u = _checked_point(x, u, t, model.dimension)
    dk = _exp_jet(_flow_jet(model, [1j * v for v in u], truncation), x)
    return _series_result(1j * sum(map(mul, u, x)), dk, t, LOCAL)


# ---------------------------------------------------------------------------
# Flow jet (every mode)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _jet_plan(pattern: tuple, truncation: int):
    """Integer data of the flow jet for a live-eps pattern in graded order
    (eps = 0 first, every eps - e_j of a live eps live too): per eps the
    position of its parent eps - e_j, j its first nonzero axis, the axis j,
    the degree |eps| and 1 / eps!; the number of eps of degree <= 1; and
    per order k < K the number of eps of degree <= k, a prefix of the
    pattern, and the number of those of degree >= 2."""
    index = {eps: p for p, eps in enumerate(pattern)}
    axes = tuple(next((j for j, e in enumerate(eps) if e), 0)
                 for eps in pattern)
    parents = tuple(index[eps[:j] + (eps[j] - 1,) + eps[j + 1:]]
                    if any(eps) else 0 for eps, j in zip(pattern, axes))
    degrees = tuple(sum(eps) for eps in pattern)
    inv_factorial = tuple(1.0 / math.prod(map(math.factorial, eps))
                          for eps in pattern)
    linear = bisect_right(degrees, 1)
    ends = tuple(bisect_right(degrees, k) for k in range(truncation))
    products = tuple(max(n - linear, 0) for n in ends)
    return parents, axes, degrees, inv_factorial, linear, ends, products


def _flow_jet(model: AffineModel, xi, truncation: int) -> list:
    """Taylor coefficients in h of phi(h, xi) and delta(h) = psi(h, xi) - xi
    to order K, from the model's x = 0 derivative rows at the complex
    vector xi (:func:`symbols.component_rows`).

    phi' = sigma(psi) and psi_l' = sigma_l(psi) expanded at xi give
    (k+1) [h^(k+1)](phi, delta_l) = sum_eps T[eps] / eps! [h^k] delta^eps,
    T row 0 for phi and row l for delta_l, zero beyond the row's end.
    delta starts at order 1, so [h^k] delta^eps vanishes for |eps| > k:
    order k reads the prefix of the graded pattern up to degree k, and for
    |eps| >= 2 [h^k] delta^eps is the truncated product of the parent power
    delta^(eps - e_j) and delta_j.  A first-degree power is its own jet,
    delta^(e_j) = delta_j, so it is the row itself: the products it would
    take against the unit series add only exact zeros, and every entry is
    bit for bit the full products' (up to the sign of an exact zero).
    Returns (1 + d) lists of K + 1 complex entries, row 0 phi and row
    1 + l delta_l, entry k the coefficient of h^k (entry 0 zero)."""
    pattern, components = component_rows(model, xi, max(truncation - 1, 0))
    parents, axes, degrees, inv_factorial, linear, ends, products = \
        _jet_plan(pattern, truncation)
    rows = [[v * w for v, w in zip(row, inv_factorial)] for row in components]
    jet = [[0j] * (truncation + 1) for _ in rows]
    # powers[p][k] = [h^k] delta^eps for the eps at position p: the unit
    # series at eps = 0 and the row delta_j itself at eps = e_j, so only the
    # powers of degree >= 2 are products
    powers = [[1.0 + 0j] + [0j] * (truncation - 1)]
    powers += [jet[1 + j] for j in axes[1:linear]]
    powers += [[0j] * truncation for _ in pattern[linear:]]
    links = [(powers[p], powers[parents[p]], jet[1 + axes[p]], degrees[p] - 2)
             for p in range(linear, len(pattern))]
    pairs = list(zip(jet, rows))
    for k, (n, m) in enumerate(zip(ends, products)):
        # sum_{i=1..k-|eps|+1} delta_j[i] parent[k - i]
        for power, parent, axis, stop in links[:m]:
            power[k] = sum(map(mul, axis[1:k - stop],
                               parent[k - 1:stop:-1]))
        column = [power[k] for power in powers[:n]]
        for coefficients, row in pairs:
            coefficients[k + 1] = sum(map(mul, row, column)) / (k + 1)
    return jet


def _exponent(jet, x) -> list:
    """a_0 .. a_K, a_j = phi_j + sum_l x_l delta_l,j, of a (1 + d)-row jet:
    the Taylor coefficients of the exponent phi(h) + delta(h) . x."""
    exponent = jet[0]
    for xl, row in zip(x, jet[1:]):
        exponent = [a + xl * v for a, v in zip(exponent, row)]
    return exponent


def _exp_jet(jet, x) -> list:
    """b_1 .. b_K of exp(sum_j a_j h^j), a_j the :func:`_exponent` of a
    (1 + d)-row jet (or a difference of jets): b_0 = 1 and
    k b_k = sum_{j=1..k} j a_j b_(k-j)."""
    exponent = _exponent(jet, x)
    # j a_j for j = 1..K
    weighted = [j * a for j, a in enumerate(exponent)][1:]
    b = [1.0 + 0.0j]
    for k in range(1, len(exponent)):
        b.append(sum(map(mul, weighted[:k], b[::-1])) / k)
    return b[1:]


# ---------------------------------------------------------------------------
# Globalized evaluation
# ---------------------------------------------------------------------------


def eval_globalized(model: AffineModel, x, u, t: float,
                    truncation: int = 16) -> CFResult:
    """Globalized-in-time evaluation along the affine semiflow.

    f = exp(phi + xi . x) is stepped in t from (phi, xi) = (0, iu) at s = 0,
    raising MomentExplosionError when xi blows up; t = 0 returns exp(iu . x)
    with no contributions.  The order contributions are the last step's
    terms of the exponent times the value, and the tail estimate is the sum
    of the per-step tails plus the rounding of the xi updates.
    """
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    x, u = _checked_point(x, u, t, model.dimension)
    if t == 0:
        value = cmath.exp(1j * sum(map(mul, u, x)))
        return CFResult(value, [], truncation, ROUNDING_FLOOR * abs(value),
                        GLOBALIZED)

    # Semiflow: at xi = psi(s, iu) the flow jet of the rows at xi gives
    # phi(h, xi) and psi(h, xi) - xi, so only phi and xi are carried from
    # step to step.
    # The step puts the last term at the rounding floor, but is at least a
    # twentieth of the jet's root-test radius |jet_K|^(-1/K): below K = 12
    # the last term sits at 20^-K instead, so low orders take few steps.
    reach = max(ROUNDING_FLOOR ** (1.0 / truncation), 0.05)
    xi, phi, s, rel_tail, steps = [1j * v for v in u], 0.0 + 0.0j, 0.0, 0.0, 0
    while s < t:
        if not all(abs(z) <= BLOWUP_LIMIT for z in xi):
            raise MomentExplosionError(s)
        jet = _flow_jet(model, xi, truncation)
        last = max(abs(row[-1]) for row in jet)
        h = t - s if last == 0.0 else \
            min(t - s, reach * last ** (-1.0 / truncation))
        hk = [h ** k for k in range(truncation + 1)]
        increment = [sum(map(mul, row, hk)) for row in jet]
        terms = list(map(mul, _exponent(jet, x)[1:], hk[1:]))
        phi += increment[0]
        xi = [z + dz for z, dz in zip(xi, increment[1:])]
        # rounding is relative to the exponent phi + xi . x
        rel_tail += _tail_estimate(terms,
                                   1.0 + abs(phi + sum(map(mul, xi, x))))
        s = t if h == t - s else s + h
        steps += 1
    # each xi update rounds twice at the scale of xi (the summed series and
    # the addition), and the flow carries those ulps to the end as it
    # carries xi itself: two ulps of the final xi, times |x|, per step
    ulp = [math.ulp(abs(z.real)) + math.ulp(abs(z.imag)) for z in xi]
    rel_tail += 2 * steps * sum(map(mul, ulp, map(abs, x)))
    value = cmath.exp(phi + sum(map(mul, xi, x)))
    return CFResult(value, [value * term for term in terms], truncation,
                    rel_tail * abs(value), GLOBALIZED)
