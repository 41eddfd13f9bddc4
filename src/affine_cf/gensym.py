"""Generalized-symbol expansions around solvable baselines.

Given a baseline affine model A0 whose characteristic function is known in
closed form f0 = exp(phi0(t,u) + psi0(t,u).x), the CF of a target model A
is represented as f0 (1 + sum_k w_k t^k).  A baseline is its model plus
one callable exponent(t, u) -> (phi0, psi0), whose residual is checked
when the baseline is built: one flow-jet step of the model from psi0(t)
must land on the callable's own value at t + h (:class:`BaselineSolution`).
The Vasicek and Heston baselines read their closed forms from
:mod:`oracle`, the one home of each, and pass the same check as any other
callable.  For affine processes the correction is f / f0 =
exp((phi - phi0) + (delta - delta0).x), the difference of the two models'
flow jets at xi = iu: :func:`eval_generalized` takes one
:func:`series_eval._flow_jet` per model, each read from that model's x = 0
derivative rows, and the power-series exponential of their difference.
:func:`correction_series` builds the difference recursion, whose eps = 0
atom is Delta sigma = sigma - sigma0, exactly on the integer engine of
:mod:`symalg`, for the nilpotency claim.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from operator import mul, sub

from .multiindex import _checked_order
from .oracle import (heston_exponent, heston_model, heston_params,
                     vasicek_exponent, vasicek_model, vasicek_params)
from .series_eval import (CFResult, _exp_jet, _flow_jet, _semiflow_step,
                          _series_result)
from .symbols import AffineModel, _checked_point, _vector

GENERALIZED = "Generalized"


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

# The residual check reads the exponent at these (t, u_1), u on the first
# axis, and steps it by at most _CHECK_STEP on an order-_CHECK_ORDER flow
# jet.  A residual above _CHECK_TOL relative to 1 + |phi0| + sum |psi0| is
# refused: a closed form read to rounding shows about 1e-15, and a phi0 off
# by 1e-9 t^2 about 3e-11.
_CHECK_POINTS = tuple(product((0.0, 0.5), (1.0, 3.0)))
_CHECK_STEP = 0.05
_CHECK_ORDER = 16
_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class BaselineSolution:
    """A solvable baseline: its generator model and the exponent of its
    closed-form CF f0 = exp(phi0(t, u) + psi0(t, u).x).

    ``exponent(t, u)``, u a sequence of d floats, returns (phi0, psi0),
    phi0 complex and psi0 a sequence of d complex numbers (a tuple for the
    built-in baselines), with phi0(0, u) = 0 and psi0(0, u) = iu.  Building
    one runs the residual check of the closed form against the model, a
    ValueError if it fails: at each (t, u) of ``_CHECK_POINTS``,
    phi0(0, u) = 0 and one step of the model's flow jet from psi0(t, u), of
    length h <= 0.05, must give (phi0, psi0)(t + h, u).
    """

    name: str
    model: AffineModel
    exponent: object

    def __post_init__(self):
        d = self.model.dimension
        worst = 0.0
        for t, u1 in _CHECK_POINTS:
            u = (u1,) + (0.0,) * (d - 1)
            phi, psi = self.exponent(t, u)
            if len(psi) != d:
                raise ValueError(f"baseline '{self.name}' returns "
                                 f"{len(psi)} psi0 components, not {d}")
            if t == 0.0:
                worst = max(worst, abs(phi) / (1.0 + sum(map(abs, psi))))
            # the step puts the jet's last term near the rounding floor
            h, _, increment = _semiflow_step(
                _flow_jet(self.model, list(psi), _CHECK_ORDER), _CHECK_STEP)
            phi_h, psi_h = self.exponent(t + h, u)
            end = (phi_h, *psi_h)
            residual = sum(abs(a + da - b)
                           for a, da, b in zip((phi, *psi), increment, end))
            worst = max(worst, residual / (1.0 + sum(map(abs, end))))
        if not worst <= _CHECK_TOL:
            raise ValueError(
                f"baseline '{self.name}' fails its residual check: a "
                f"flow-jet step misses its closed form by {worst:.3e} "
                f"> {_CHECK_TOL:.0e}")


def _baseline_exponent(baseline: BaselineSolution, x, u, t: float) -> complex:
    """phi0(t, u) + psi0(t, u) . x"""
    x = _vector("x", x, baseline.model.dimension)
    phi, psi = baseline.exponent(t, u)
    return complex(phi) + complex(sum(map(mul, psi, x)))


def eval_baseline_cf(baseline: BaselineSolution, x, u, t: float) -> complex:
    return cmath.exp(_baseline_exponent(baseline, x, u, t))


def zero_baseline(dimension: int) -> BaselineSolution:
    """The zero generator: phi0 = 0, psi0 = iu frozen; the correction series
    then reduces exactly to the plain local series."""

    def exponent(t, u):
        return 0.0 + 0.0j, tuple(1j * v for v in _vector("u", u))

    return BaselineSolution(
        "zero", AffineModel.from_arrays(dimension=dimension), exponent)


def vasicek_baseline(params) -> BaselineSolution:
    """Ornstein-Uhlenbeck baseline from oracle.VasicekParams: the exponent of
    :func:`oracle.vasicek_exponent` at u[0]."""

    def exponent(t, u):
        phi, psi = vasicek_exponent(params, _vector("u", u)[0], t)
        return phi, (psi,)

    return BaselineSolution("vasicek", vasicek_model(params), exponent)


def heston_baseline(params) -> BaselineSolution:
    """Heston baseline from oracle.HestonParams: the exponent of
    :func:`oracle.heston_exponent` at u[0], psi0 = (iu, psi01) on the state
    ordering (x, v).  At the log singularity it raises ZeroDivisionError."""

    def exponent(t, u):
        return heston_exponent(params, _vector("u", u)[0], t)

    return BaselineSolution("heston", heston_model(params), exponent)


# name -> the baseline of that name for a model, its parameters read from
# the model's blocks (:func:`oracle.vasicek_params`, :func:`heston_params`)
BASELINE_REGISTRY = {
    "zero": lambda model: zero_baseline(model.dimension),
    "vasicek": lambda model: vasicek_baseline(vasicek_params(model)),
    "heston": lambda model: heston_baseline(heston_params(model)),
}


# ---------------------------------------------------------------------------
# Correction series (difference recursion)
# ---------------------------------------------------------------------------


def _check_compatible(target: AffineModel, baseline: BaselineSolution) -> None:
    if target.dimension != baseline.model.dimension:
        raise ValueError("target and baseline dimensions differ")


def correction_series(target: AffineModel, baseline: BaselineSolution,
                      max_order: int) -> list:
    """Terms d_0 .. d_K of the difference recursion

        (k+1) d_{k+1} = Delta sigma . d_k
                        + sum_{1<=|eps|<=k} (d^eps sigma) (1/eps!) d^eps_x d_k

    in exact rational arithmetic: :func:`symalg.difference_series`, whose
    eps = 0 atoms are the dbase/dslope kinds (Delta sigma = sigma - sigma0
    and its slopes) and whose other atoms are the target's base/slope.  A
    difference atom whose compiled symbol component (``AffineModel._compiled``)
    is the same in target and baseline is identically zero and is dropped,
    which makes the nilpotency statement (target = baseline implies d_k = 0
    for k >= 1) structural rather than numeric.
    """
    from .symalg import DBASE, DSLOPE, AtomKey, difference_series

    _check_compatible(target, baseline)
    d = target.dimension
    zero = (0,) * d
    comp_zero = [target._compiled[c] == baseline.model._compiled[c]
                 for c in range(d + 1)]
    vanishing = [AtomKey(DSLOPE, l, zero)
                 for l in range(1, d + 1) if comp_zero[l]]
    if all(comp_zero):
        vanishing.append(AtomKey(DBASE, 0, zero))
    return difference_series(d, max_order, vanishing)


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def eval_generalized(target: AffineModel, baseline: BaselineSolution, x, u,
                     t: float, truncation: int = 10) -> CFResult:
    """exp(phi0(t, u) + psi0(t, u) . x) (1 + sum_k w_k t^k).

    For affine processes f / f0 = exp((phi - phi0) + (delta - delta0) . x),
    with (phi, delta) the flow jet at xi = iu of the target's x = 0
    derivative rows and (phi0, delta0) that of the baseline model's
    (:func:`series_eval._flow_jet`): the w_k are the power-series
    exponential of the difference of the two jets
    (:func:`series_eval._exp_jet`), and the closed form is read only at t,
    for the prefactor.  A baseline that misses psi0(0, u) = iu (reading
    only part of u) is refused, as are a truncation order that is no int
    >= 1, t < 0, a non-finite t, x or u and an x or u of another length
    than the model's dimension.
    """
    truncation = _checked_order(truncation)
    x, u = _checked_point(x, u, t, target.dimension)
    _check_compatible(target, baseline)
    iu = [1j * v for v in u]
    psi0 = baseline.exponent(0.0, u)[1]
    miss = max(abs(p - q) for p, q in zip(psi0, iu)) \
        if len(psi0) == len(iu) else math.inf
    if not miss <= 1e-12 * (1.0 + math.hypot(*u)):
        raise ValueError(f"baseline '{baseline.name}' misses psi0(0, u) = iu "
                         f"by {miss:.3e}")
    jet, jet0 = [_flow_jet(m, iu, truncation)
                 for m in (target, baseline.model)]
    difference = [list(map(sub, row, row0)) for row, row0 in zip(jet, jet0)]
    return _series_result(_baseline_exponent(baseline, x, u, t),
                          _exp_jet(difference, x), t, GENERALIZED)
