"""Numeric evaluation of the characteristic-function power series.

Every mode takes its numbers from one numeric engine, the flow jet
(:func:`_flow_jet`): from the symbol table at x = 0 and a complex xi it
gives the Taylor coefficients of phi(h, xi) and delta(h) = psi(h, xi) - xi.
Each jet coefficient is a polynomial in the symbol's derivatives with
rational weights, as every d_k is.  Since f = exp(phi + psi . x) for an
affine process, the paper's coefficients are d_k(x, xi) = L^k 1 / k! =
[h^k] exp(phi(h) + delta(h) . x), read from the jet through the
power-series exponential (:func:`_exp_jet`).  Local mode evaluates
exp(iux) (1 + sum_k d_k(x, iu) t^k).  Globalized mode follows the affine
semiflow psi(s + h, iu) = psi(h, psi(s, iu)) from s = 0 at every horizon:
each step takes the jet of the table at the current xi and carries only phi
and xi, so the result exp(phi + xi . x) is uniform in x.  The tangent-log
time transform t(tau) = beta ln tan(pi/4 + pi tau/4) is kept as a map of
its own.  The generalized mode of :mod:`gensym` takes the same exponential
of the difference of two jets at iu, the target's and its baseline's.  The
exact atom algebra of :mod:`symalg` is not used here.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

import numpy as np

from .oracle import BLOWUP_LIMIT, MomentExplosionError
from .symbols import (AffineModel, _checked_point, eval_symbol_table,
                      eval_symbol_table_xi)

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
ROUNDING_FLOOR = 4 * np.finfo(float).eps


def _tail_estimate(contributions, value) -> float:
    """|last term| inflated by 1/(1-r), r the last observed term ratio
    clipped to [0, 0.9]; at least ROUNDING_FLOOR * |value| (1 + sum |terms|),
    the rounding of the summed terms."""
    floor = ROUNDING_FLOOR * abs(value) * (1.0 + sum(map(abs, contributions)))
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


def _d_values(model: AffineModel, x, u, truncation: int) -> np.ndarray:
    """d_1 .. d_K at (x, iu) from the flow jet of the x = 0 symbol table."""
    d = model.dimension
    table = eval_symbol_table(model, [0.0] * d, u, max(truncation - 1, 0))
    return _jet_d_values(table.base, table.slope, x, truncation)


def _series_result(prefactor, coefficients, t: float, mode: str) -> CFResult:
    """prefactor (1 + sum_k c_k t^k) with c_1 .. c_K = coefficients, summed
    from the highest order down (small terms first)."""
    truncation = len(coefficients)
    contributions = [coefficients[k - 1] * t ** k
                     for k in range(1, truncation + 1)]
    series = 0.0 + 0.0j
    for c in reversed(contributions):
        series += c
    value = prefactor * (1.0 + series)
    return CFResult(value, contributions, truncation,
                    _tail_estimate(contributions, value), mode)


def eval_local(model: AffineModel, x, u, t: float, truncation: int = 16) -> CFResult:
    """exp(iux) (1 + sum_{k=1..K} d_k(x, iu) t^k)."""
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    x, u = _checked_point(x, u, t)
    dk = _d_values(model, x, u, truncation)
    return _series_result(np.exp(1j * float(u @ x)), dk, t, LOCAL)


# ---------------------------------------------------------------------------
# Flow jet (every mode)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _jet_plan(pattern: tuple, truncation: int):
    """Integer data of the flow jet for a live-eps pattern in graded order
    (eps = 0 first, every eps - e_j of a live eps live too): per eps the
    position of its parent eps - e_j, j its first nonzero axis, the axis j,
    the degree |eps| and 1 / eps!; and per order k < K the number of eps of
    degree <= k, a prefix of the pattern."""
    index = {eps: p for p, eps in enumerate(pattern)}
    axes = tuple(next((j for j, e in enumerate(eps) if e), 0)
                 for eps in pattern)
    parents = tuple(index[eps[:j] + (eps[j] - 1,) + eps[j + 1:]]
                    if any(eps) else 0 for eps, j in zip(pattern, axes))
    degrees = tuple(sum(eps) for eps in pattern)
    inv_factorial = tuple(1.0 / math.prod(map(math.factorial, eps))
                          for eps in pattern)
    ends = tuple(bisect_right(degrees, k) for k in range(truncation))
    return parents, axes, degrees, inv_factorial, ends


def _flow_jet(base0, slopes, truncation: int) -> np.ndarray:
    """Taylor coefficients in h of phi(h, xi) and delta(h) = psi(h, xi) - xi
    to order K, from the x = 0 tables base0 and slopes at xi.

    phi' = sigma(psi) and psi_l' = sigma_l(psi) expanded at xi give
    (k+1) [h^(k+1)](phi, delta_l) = sum_eps T[eps] / eps! [h^k] delta^eps,
    T the base table for phi and slope l for delta_l.  delta starts at order
    1, so [h^k] delta^eps vanishes for |eps| > k: order k reads the prefix
    of the graded pattern up to degree k, and [h^k] delta^eps is the
    truncated product of the parent power delta^(eps - e_j) and delta_j.
    Returns a (1 + d) x (K + 1) array, row 0 phi and row 1 + l delta_l,
    column k the coefficient of h^k (column 0 zero)."""
    pattern = tuple(base0)
    parents, axes, degrees, inv_factorial, ends = \
        _jet_plan(pattern, truncation)
    rows = [[v * w for v, w in zip(base0.values(), inv_factorial)]]
    rows += [[slope.get(eps, 0j) * w
              for eps, w in zip(pattern, inv_factorial)] for slope in slopes]
    jet = [[0j] * (truncation + 1) for _ in rows]
    # powers[p][k] = [h^k] delta^eps for the eps at position p
    powers = [[0j] * truncation for _ in pattern]
    powers[0][0] = 1.0 + 0j
    links = [(powers[p], powers[parent], jet[1 + j], degree)
             for p, parent, j, degree in zip(range(1, len(pattern)),
                                             parents[1:], axes[1:],
                                             degrees[1:])]
    for k, n in enumerate(ends):
        # sum_{i=1..k-|eps|+1} delta_j[i] parent[k - i]
        for power, parent, axis, degree in links[:n - 1]:
            power[k] = sum(map(mul, axis[1:k - degree + 2],
                               parent[degree - 1:k][::-1]))
        column = [power[k] for power in powers[:n]]
        for coefficients, row in zip(jet, rows):
            coefficients[k + 1] = sum(map(mul, row[:n], column)) / (k + 1)
    return np.array(jet)


def _jet_d_values(base0, slopes, x, truncation: int) -> np.ndarray:
    """d_1 .. d_K at x from the x = 0 tables base0 and slopes at xi.

    The symbol is affine in x, so 1 + sum_k d_k(x, xi) h^k =
    exp(phi(h) + delta(h) . x) with phi and delta the flow jet of the
    tables: d_k = L^k 1 / k!, read by :func:`_exp_jet`."""
    return _exp_jet(_flow_jet(base0, slopes, truncation), x)


def _exp_jet(jet, x) -> np.ndarray:
    """b_1 .. b_K of exp(sum_j a_j h^j), a_j = phi_j + delta_j . x read from
    a (1 + d) x (K + 1) jet (or a difference of jets): b_0 = 1 and
    k b_k = sum_{j=1..k} j a_j b_(k-j)."""
    truncation = jet.shape[1] - 1
    exponent = np.concatenate(([1.0], x)) @ jet
    # j a_j for j = 1..K
    weighted = [j * a for j, a in enumerate(exponent.tolist())][1:]
    b = [1.0 + 0.0j]
    for k in range(1, truncation + 1):
        b.append(sum(map(mul, weighted[:k], b[::-1])) / k)
    return np.array(b[1:])


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
    x, u = _checked_point(x, u, t)
    d = model.dimension
    if t == 0:
        value = complex(np.exp(1j * float(u @ x)))
        return CFResult(value, [], truncation, ROUNDING_FLOOR * abs(value),
                        GLOBALIZED)

    # Semiflow: at xi = psi(s, iu) the flow jet of the table at xi gives
    # phi(h, xi) and psi(h, xi) - xi, so only phi and xi are carried from
    # step to step.
    weights = np.concatenate(([1.0], x))
    xi, phi, s, rel_tail, steps = 1j * u, 0.0 + 0.0j, 0.0, 0.0, 0
    while s < t:
        if not np.all(np.abs(xi) <= BLOWUP_LIMIT):
            raise MomentExplosionError(s)
        table = eval_symbol_table_xi(model, [0.0] * d, xi,
                                     max(truncation - 1, 0))
        jet = _flow_jet(table.base, table.slope, truncation)
        # The step puts the last term at the rounding floor, but is at least
        # a twentieth of the jet's root-test radius |jet_K|^(-1/K): below
        # K = 12 the last term sits at 20^-K instead, so low orders take few
        # steps.
        last = np.max(np.abs(jet[:, -1]))
        reach = max(ROUNDING_FLOOR ** (1.0 / truncation), 0.05)
        h = t - s if last == 0.0 else \
            min(t - s, reach * last ** (-1.0 / truncation))
        hk = h ** np.arange(truncation + 1)
        increment = jet @ hk
        terms = weights @ jet[:, 1:] * hk[1:]
        phi += increment[0]
        xi = xi + increment[1:]
        # rounding is relative to the exponent phi + xi . x
        rel_tail += _tail_estimate(list(terms), 1.0 + abs(phi + xi @ x))
        s = t if h == t - s else s + h
        steps += 1
    # each xi update rounds twice at the scale of xi (the summed series and
    # the addition), and the flow carries those ulps to the end as it
    # carries xi itself: two ulps of the final xi, times |x|, per step
    ulp = np.spacing(np.abs(xi.real)) + np.spacing(np.abs(xi.imag))
    rel_tail += 2 * steps * float(ulp @ np.abs(x))
    value = complex(np.exp(phi + xi @ x))
    return CFResult(value, list(value * terms), truncation,
                    rel_tail * abs(value), GLOBALIZED)
