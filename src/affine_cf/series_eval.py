"""Numeric evaluation of the characteristic-function power series.

Every mode takes its coefficients from one numeric engine: the symbol
operator L acting on polynomials in x held as dense complex coefficient
arrays, built from the symbol table at x = 0, so that d_k = L^k 1 / k! is
read at x after K applications.  Local mode evaluates exp(iux) (1 + sum_k d_k(x, iu) t^k).
Globalized mode follows the affine semiflow psi(s + h, iu) = psi(h, psi(s, iu))
from s = 0 at every horizon: each step reads the local series at x = 0 at
the current complex xi and carries only phi and xi, so the result
exp(phi + xi . x) is uniform in x.  The tangent-log time transform
t(tau) = beta ln tan(pi/4 + pi tau/4) is kept as a map of its own.  The
generalized modes of :mod:`gensym` use the same operator on their own
tables.  The exact atom algebra of :mod:`symalg` is not used here.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .oracle import BLOWUP_LIMIT, MomentExplosionError
from .symbols import AffineModel, eval_symbol_table, eval_symbol_table_xi

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
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    dk = _d_values(model, x, u, truncation)
    return _series_result(np.exp(1j * float(u @ x)), dk, t, LOCAL)


# ---------------------------------------------------------------------------
# Numeric x-polynomial operator (every mode)
# ---------------------------------------------------------------------------


# Complex elements one gathered tile of the operator holds at most: a single
# tile at d <= 2 and the orders in use; beyond, tiles over the leading axes
# keep the temporaries a small part of the (K + 2)^d arrays.
_GATHER_BUDGET = 1 << 16


@lru_cache(maxsize=64)
def _gather_plan(pattern: tuple):
    """Integer data of a live-eps pattern: its eps as one index array per
    axis, 1 / eps! and the largest eps_i (the padding a gather needs)."""
    index = tuple(np.array(axis, dtype=np.intp) for axis in zip(*pattern))
    inv_factorial = np.array([1.0 / math.prod(map(math.factorial, eps))
                              for eps in pattern])
    return index, inv_factorial, max(map(max, pattern))


@lru_cache(maxsize=256)
def _tiles(k: int, d: int, per_point: int, pad: int) -> tuple:
    """The tiles one application to a (k,) * d array runs over, each holding
    at most _GATHER_BUDGET / per_point input positions (at least one): one
    tile when that fits, else single indices on the leading h - 1 axes and
    runs of the h-th, h the fewest axes that bring a tile within budget.

    Per tile: the box of input positions m, the part of q it reads (the box
    extended by pad) and where that lands in the zeroed slab, the slab, window
    and row shapes, and per axis l the box shifted by e_l with its m_l."""
    h = 0
    while h < d and per_point * k ** (d - h) > _GATHER_BUDGET:
        h += 1
    # a tile's extent per axis: one index on the leading h - 1 axes, runs of
    # step on axis h - 1, the whole axis beyond
    step = max(1, _GATHER_BUDGET // (per_point * k ** (d - h)))
    runs = ([1] * (h - 1) + [step] if h else []) + [k] * (d - h)
    boxes = itertools.product(*([slice(lo, min(lo + r, k))
                                 for lo in range(0, k, r)] for r in runs))
    tiles = []
    for box in boxes:
        shape = tuple(b.stop - b.start for b in box)
        src = tuple(slice(b.start, min(b.stop + pad, k)) for b in box)
        shifts = []
        for l in range(d):
            dst = slice(box[l].start + 1, box[l].stop + 1)
            shifts.append((box[:l] + (dst,) + box[l + 1:],
                           (slice(None),) * l + (dst,)))
        tiles.append((box, src, tuple(slice(0, b.stop - b.start) for b in src),
                      tuple(e + pad for e in shape), (pad + 1,) * d + shape,
                      (1 + d,) + shape, shifts))
    return tuple(tiles)


def _poly_step_operator(base0, slopes, size: int):
    """L acting on x-polynomials held as dense complex arrays in the
    Taylor-normalized basis: q of shape (k,) * d with k <= size, q[m] the
    coefficient of x^m / m!:
    L[q] = sum_eps (base0_eps + sum_l x_l slope_{l,eps}) (1/eps!) d^eps_x q,
    of shape (k + 1,) * d to hold the degree the slope terms add.

    In this basis d^eps_x is the shift q[m] -> q[m + eps], and x_l maps q[m]
    to (m_l + 1) q at m + e_l.  One application gathers q[m + eps] for every
    eps of base0 (the table's live entries) from a zero-padded copy,
    contracts them in one matmul with the (1 + d) x E matrix of the table
    entries over eps! (row 0 the base, row l the slopes in direction l),
    adds row 0 and adds row l shifted by one along axis l, times m_l.  The
    gather runs over the tiles of :func:`_tiles`: one at d <= 2."""
    d = len(slopes)
    pattern = tuple(base0)
    index, inv_factorial, pad = _gather_plan(pattern)
    coef = np.array([list(base0.values())]
                    + [[s.get(eps, 0.0) for eps in pattern] for s in slopes],
                    dtype=complex) * inv_factorial
    # m_l along axis l, complex so that the products need no cast
    ramps = [np.arange(size + 1.0, dtype=complex).reshape(
        [-1 if i == l else 1 for i in range(d)]) for l in range(d)]

    def apply(q):
        k = q.shape[0]
        out = np.zeros((k + 1,) * d, dtype=complex)
        for box, src, fill, slab_shape, window_shape, rows_shape, shifts \
                in _tiles(k, d, len(pattern), pad):
            slab = np.zeros(slab_shape, dtype=complex)
            slab[fill] = q[src]
            # window[a][m] = slab[a + m], a <= pad
            window = np.ndarray(window_shape, dtype=complex, buffer=slab,
                                strides=slab.strides * 2)
            rows = coef @ window[index].reshape(len(pattern), -1)
            rows = rows.reshape(rows_shape)
            out[box] += rows[0]
            for l, (dst, weight) in enumerate(shifts):
                out[dst] += ramps[l][weight] * rows[1 + l]
        return out

    return apply


def _operator_powers(L, q, order: int):
    """Yield L^j q / j! for j = 0 .. order: one application of L per power,
    holding only the current power."""
    yield q
    for j in range(1, order + 1):
        q = L(q)
        q /= j
        yield q


def _unit_powers(base0, slopes, truncation: int):
    """Yield L^k 1 / k! for k = 0 .. K in the Taylor-normalized basis, L
    the x-polynomial operator of the x = 0 tables base0 and slopes; 1 is
    held with room for the linear coefficients."""
    d = len(slopes)
    one = np.zeros((2,) * d, dtype=complex)
    one[(0,) * d] = 1.0
    L = _poly_step_operator(base0, slopes, truncation + 1)
    return _operator_powers(L, one, truncation)


def _operator_d_values(base0, slopes, x, truncation: int) -> np.ndarray:
    """d_1 .. d_K at x as L^k 1 / k!, L the x-polynomial operator of the
    x = 0 tables base0 and slopes: one dot per power against the monomials
    x^m / m!, built once."""
    n = truncation + 2
    monomials = np.ones(())
    for xl in x:
        axis = np.cumprod(np.concatenate(([1.0], xl / np.arange(1.0, n))))
        monomials = np.multiply.outer(monomials, axis)
    powers = _unit_powers(base0, slopes, truncation)
    return np.array([np.vdot(monomials[(slice(0, p.shape[0]),) * p.ndim], p)
                     for p in powers])[1:]


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
    if t < 0:
        raise ValueError("t must be >= 0")
    d = model.dimension
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if t == 0:
        value = complex(np.exp(1j * float(u @ x)))
        return CFResult(value, [], truncation, ROUNDING_FLOOR * abs(value),
                        GLOBALIZED)

    # Semiflow: at xi = psi(s, iu) the local series read at x = 0 gives
    # c0(h) = exp(phi(h, xi)) from its constant coefficients and
    # c1(h) / c0(h) = psi(h, xi) - xi from its linear ones, so only phi and
    # xi are carried from step to step.
    keys = [(0,) * d] + [tuple(int(i == l) for i in range(d)) for l in range(d)]
    xi, phi, s, rel_tail, steps = 1j * u, 0.0 + 0.0j, 0.0, 0.0, 0
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
        steps += 1
    # each xi update rounds twice at the scale of xi (the summed series and
    # the addition), and the flow carries those ulps to the end as it
    # carries xi itself: two ulps of the final xi, times |x|, per step
    ulp = np.spacing(np.abs(xi.real)) + np.spacing(np.abs(xi.imag))
    rel_tail += 2 * steps * float(ulp @ np.abs(x))
    value = complex(np.exp(phi + xi @ x))
    return CFResult(value, list(value * terms), truncation,
                    rel_tail * abs(value), GLOBALIZED)
