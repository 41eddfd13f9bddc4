"""Numeric evaluation of the characteristic-function power series.

Every mode takes its coefficients from one numeric engine: the symbol
operator L acting on polynomials in x held as dense complex coefficient
arrays, built from the symbol table at x = 0, so that d_k = L^k 1 / k! is
read at x after K applications.  Local mode evaluates exp(iux) (1 + sum_k d_k(x, iu) t^k).
Globalized mode maps t to tau through the tangent-log time transform t(tau);
the transformed solution is the local one read at t(tau), so its coefficients
are the composition e_k = sum_j C[k, j] d_j with C[k, j] = [tau^k] t(tau)^j,
a lower-triangular matrix of numbers built from the Taylor jet of
t'(tau) = 2 rho(tau), rho(tau) = (pi beta / 4) / cos(pi tau / 2).  Long
horizons follow the affine semiflow psi(s + h, iu) = psi(h, psi(s, iu)):
each step reads the local series at x = 0 at the current complex xi and
carries only phi and xi.  The generalized modes of :mod:`gensym` use the same
operator on their own tables.  The exact atom algebra of :mod:`symalg` is
not used here.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .oracle import BLOWUP_LIMIT, MomentExplosionError
from .symbols import (
    AffineModel,
    BOUNDED,
    classify_boundedness,
    eval_symbol_table,
    eval_symbol_table_xi,
    sup_bound,
)

LOCAL = "Local"
GLOBALIZED = "Globalized"


# ---------------------------------------------------------------------------
# Jets (truncated Taylor arithmetic)
# ---------------------------------------------------------------------------


@dataclass
class Jet:
    """Truncated Taylor coefficients c_0 .. c_K of a scalar function."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.coefficients + other.coefficients)

    def __mul__(self, other: "Jet") -> "Jet":
        k = self.coefficients.size
        out = np.convolve(self.coefficients, other.coefficients)[:k]
        return Jet(out)

    def scaled(self, s: float) -> "Jet":
        return Jet(self.coefficients * s)

    def reciprocal(self) -> "Jet":
        c = self.coefficients
        if c[0] == 0.0:
            raise ZeroDivisionError("jet reciprocal at a zero of the function")
        out = np.zeros_like(c)
        out[0] = 1.0 / c[0]
        for n in range(1, c.size):
            out[n] = -np.dot(c[1 : n + 1], out[n - 1 :: -1]) / c[0]
        return Jet(out)

    def power(self, m: int) -> "Jet":
        out = Jet(np.array([1.0] + [0.0] * self.order))
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out


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

    def rho_jet(self, tau0: float, order: int) -> Jet:
        """Taylor jet of rho(tau) = (pi beta / 4) / cos(pi tau / 2) at tau0."""
        if not 0.0 <= tau0 < 1.0:
            raise ValueError(f"tau0 must lie in [0, 1), got {tau0}")
        a = math.pi * tau0 / 2.0
        w = math.pi / 2.0
        cos_jet = np.array(
            [w ** m / math.factorial(m) * math.cos(a + m * math.pi / 2.0)
             for m in range(order + 1)]
        )
        return Jet(cos_jet).reciprocal().scaled(math.pi * self.beta / 4.0)

    def composition_matrix(self, tau0: float, order: int) -> np.ndarray:
        """C[k, j] = [s^k] T(s)^j for k, j <= order, T(s) = t(tau0 + s) - t(tau0).

        T' = 2 rho, so T_k = 2 r_{k-1} / k from the rho jet; column j is the
        j-th power of T.  T_0 = 0 makes C lower triangular."""
        r = self.rho_jet(tau0, order).coefficients
        shift = Jet(np.concatenate(([0.0], 2.0 * r[:-1] / np.arange(1, order + 1))))
        out = np.zeros((order + 1, order + 1))
        column = Jet(np.eye(order + 1)[0])
        for j in range(order + 1):
            out[:, j] = column.coefficients
            column = column * shift
        return out


def time_forward(tt: TimeTransform, tau: float) -> float:
    return tt.forward(tau)


def time_inverse(tt: TimeTransform, t: float) -> float:
    return tt.inverse(t)


def rho_jet(tt: TimeTransform, tau0: float, order: int) -> Jet:
    return tt.rho_jet(tau0, order)


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


# Relative rounding error of a summed value: no tail estimate is below it.
ROUNDING_FLOOR = 1e-16


def _tail_estimate(contributions, value) -> float:
    """|last term| inflated by 1/(1-r), r the last observed term ratio
    clipped to [0, 0.9]; at least ROUNDING_FLOOR * |value|."""
    floor = ROUNDING_FLOOR * abs(value)
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
    """d_1 .. d_K at (x, iu) as L^k 1 / k!, L the numeric x-polynomial
    operator of the x = 0 symbol table."""
    d = model.dimension
    table = eval_symbol_table(model, [0.0] * d, u, max(truncation - 1, 0))
    return _operator_d_values(table.base, table.slope, x, truncation)


def _series_result(prefactor, coefficients, t: float, mode: str,
                   warnings=None) -> CFResult:
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
                    _tail_estimate(contributions, value), mode,
                    [] if warnings is None else warnings)


def eval_local(model: AffineModel, x, u, t: float, truncation: int = 16) -> CFResult:
    """exp(iux) (1 + sum_{k=1..K} d_k(x, iu) t^k)."""
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    dk = _d_values(model, x, u, truncation)
    return _series_result(np.exp(1j * float(u @ x)), dk, t, LOCAL)


# ---------------------------------------------------------------------------
# Globalized evaluation
# ---------------------------------------------------------------------------


@dataclass
class BetaChoice:
    beta: float
    tau_at_horizon: float
    sup_estimate: float


def choose_beta(model: AffineModel, omega_box, u_box, horizon: float) -> BetaChoice:
    """Heuristic transform scale: beta = min(1, 1/(2 sup|sigma|)), relaxed
    upward when the horizon would land at tau(T) > 0.9."""
    sb = sup_bound(model, omega_box, u_box)
    beta = 1.0 if sb == 0.0 else min(1.0, 1.0 / (2.0 * sb))
    tt = TimeTransform(beta)
    tau_T = tt.inverse(horizon)
    if tau_T > 0.9:
        # smallest beta with tau(T) = 0.9
        beta = horizon / math.log(math.tan(math.pi / 4 + math.pi * 0.225))
        tau_T = TimeTransform(beta).inverse(horizon)
    return BetaChoice(beta, tau_T, sb)


def _default_boxes(model: AffineModel, x, u):
    omega = []
    for i in range(model.dimension):
        if model.state_domain and model.state_domain[i][0] is not None \
                and model.state_domain[i][1] is not None:
            omega.append(tuple(model.state_domain[i]))
        else:
            omega.append((min(x[i], 0.0) - 1.0, max(x[i], 0.0) + 1.0))
    ubox = [(-abs(v) - 1.0, abs(v) + 1.0) for v in u]
    return omega, ubox


# -- numeric x-polynomial operator (every mode) and stepping ----------------


# Largest tau of the composed expansion; beyond it globalized mode follows
# the semiflow.  At K = 16 the composed expansion is off by up to 2e-6 on CIR
# short horizons that land at tau near 0.65.
MAX_STEP = 0.3


@lru_cache(maxsize=None)
def _binomial_weight(eps: tuple, size: int) -> np.ndarray:
    """prod_i C(m_i + eps_i, eps_i) for m_i < size - eps_i, kept at extent 1
    along the axes where eps_i = 0 so that it broadcasts."""
    weight = np.ones((1,) * len(eps))
    for i, e in enumerate(eps):
        if e:
            axis = [math.comb(m + e, e) for m in range(size - e)]
            weight = weight * np.reshape(axis, [-1 if k == i else 1
                                                for k in range(len(eps))])
    return weight


def _poly_step_operator(base0, slopes, size: int):
    """L acting on x-polynomials held as dense complex arrays, q of shape
    (n,) * d with n <= size and q[m] the coefficient of x^m:
    L[q] = sum_eps (base0_eps + sum_l x_l slope_{l,eps}) (1/eps!) d^eps_x q,
    of shape (n + 1,) * d to hold the degree the slope terms add.

    (1/eps!) d^eps_x q is the slice q[eps:] times prod_i C(m_i + eps_i,
    eps_i), and x_l shifts it by one along axis l.  Only the eps at which
    the x = 0 table has a nonzero base or slope entry are visited, in the
    table's key order."""
    d = len(slopes)
    live = []
    for eps, b in base0.items():
        s = [slopes[l].get(eps, 0.0) for l in range(d)]
        if b == 0.0 and not any(s):
            continue
        shifts = [(l, sl) for l, sl in enumerate(s) if sl != 0.0]
        live.append((eps, b, shifts, _binomial_weight(eps, size)))

    def apply(q):
        n = q.shape[0]
        out = np.zeros((n + 1,) * d, dtype=complex)
        for eps, b, shifts, weight in live:
            if max(eps) >= n:  # d^eps_x q = 0
                continue
            dst = tuple(slice(0, n - e) for e in eps)
            dq = q[tuple(slice(e, None) for e in eps)] * weight[dst]
            if b != 0.0:
                out[dst] += b * dq
            for l, sl in shifts:
                out[dst[:l] + (slice(1, n - eps[l] + 1),) + dst[l + 1:]] += sl * dq
        return out

    return apply


def _operator_powers(L, q, order: int):
    """Yield L^j q / j! for j = 0 .. order: one application of L per power,
    holding only the current power."""
    yield q
    for j in range(1, order + 1):
        q = L(q) / j
        yield q


def _unit_powers(base0, slopes, truncation: int):
    """Yield L^k 1 / k! for k = 0 .. K, L the x-polynomial operator of the
    x = 0 tables base0 and slopes; 1 is held with room for the linear
    coefficients."""
    d = len(slopes)
    one = np.zeros((2,) * d, dtype=complex)
    one[(0,) * d] = 1.0
    L = _poly_step_operator(base0, slopes, truncation + 1)
    return _operator_powers(L, one, truncation)


def _eval_xpoly(q, x) -> complex:
    """The dense x-polynomial q at x, contracted one axis at a time from
    the last."""
    for xl in reversed(x):
        q = q @ xl ** np.arange(q.shape[-1])
    return complex(q)


def _operator_d_values(base0, slopes, x, truncation: int) -> np.ndarray:
    """d_1 .. d_K at x as L^k 1 / k!, L the x-polynomial operator of the
    x = 0 tables base0 and slopes."""
    powers = _unit_powers(base0, slopes, truncation)
    return np.array([_eval_xpoly(p, x) for p in powers])[1:]


def eval_globalized(model: AffineModel, x, u, t: float, truncation: int = 16,
                    beta: float = None) -> CFResult:
    """Globalized-in-time evaluation through the tangent-log transform.

    The transformed solution is the local series read at t(tau): with d_k
    the local coefficients at (x, iu), the tau-series coefficients are
    e = C d, C the composition matrix of t(tau) at tau0 = 0.  When
    tau(t) > MAX_STEP it follows the semiflow in t instead: f = exp(phi +
    xi . x), stepped from (0, iu), raising MomentExplosionError when xi
    blows up.  There the order contributions are the last step's terms of
    the exponent times the value, and the tail estimate is the sum of the
    per-step tails.
    """
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    d = model.dimension
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    warnings = []
    if beta is None:
        choice = choose_beta(model, *_default_boxes(model, x, u), max(t, 1e-9))
        beta = choice.beta
        if choice.sup_estimate * beta > 0.5 + 1e-12:
            warnings.append(
                "convergence risk: horizon forces beta above the contraction "
                f"heuristic (sup bound {choice.sup_estimate:.3g}, beta {beta:.3g})"
            )
    # a bounded state domain classifies as BOUNDED
    if classify_boundedness(model).classification != BOUNDED:
        warnings.append(
            "symbol is unbounded on an unbounded state domain; globalized "
            "series is evaluated on heuristic boxes"
        )
    tt = TimeTransform(beta)
    tau = tt.inverse(t)

    if tau <= MAX_STEP:
        dk = _d_values(model, x, u, truncation)
        ek = tt.composition_matrix(0.0, truncation)[1:, 1:] @ dk
        return _series_result(np.exp(1j * float(u @ x)), ek, tau, GLOBALIZED,
                              warnings)

    # Semiflow: at xi = psi(s, iu) the local series read at x = 0 gives
    # c0(h) = exp(phi(h, xi)) from its constant coefficients and
    # c1(h) / c0(h) = psi(h, xi) - xi from its linear ones, so only phi and
    # xi are carried from step to step.
    keys = [(0,) * d] + [tuple(int(i == l) for i in range(d)) for l in range(d)]
    xi, phi, s, rel_tail = 1j * u, 0.0 + 0.0j, 0.0, 0.0
    while s < t:
        if not np.all(np.abs(xi) <= BLOWUP_LIMIT):
            raise MomentExplosionError(s)
        table = eval_symbol_table_xi(model, [0.0] * d, xi,
                                     max(truncation - 1, 0))
        powers = _unit_powers(table.base, table.slope, truncation)
        c = np.array([[p[e] for e in keys] for p in powers])
        # The step puts the last term at the rounding floor, but is at least
        # a twentieth of the root-test radius |c_K|^(-1/K): below K = 13 the
        # last term sits at 20^-K instead, so low orders take few steps.
        last = np.max(np.abs(c[-1]))
        reach = max(ROUNDING_FLOOR ** (1.0 / truncation), 0.05)
        h = t - s if last == 0.0 else \
            min(t - s, reach * last ** (-1.0 / truncation))
        hk = h ** np.arange(truncation + 1)
        a = hk @ c
        terms = c[1:] @ np.concatenate(([1.0], x)) * hk[1:] / a[0]
        phi += cmath.log(a[0])
        xi = xi + a[1:] / a[0]
        # rounding is relative to the exponent phi + xi . x
        rel_tail += _tail_estimate(list(terms), 1.0 + abs(phi + xi @ x))
        s = t if h == t - s else s + h
    value = complex(np.exp(phi + xi @ x))
    return CFResult(value, list(value * terms), truncation,
                    rel_tail * abs(value), GLOBALIZED, warnings)
