"""Generalized-symbol expansions around solvable baselines.

Given a baseline affine model A0 whose characteristic function is known in
closed form f0 = exp(phi0(t,u) + psi0(t,u).x), the CF of a target model A
is represented as f0 (1 + sum_k w_k t^k).  A baseline is its model plus
one exponent(t, u) -> (phi0, psi0): the Vasicek and Heston baselines read
theirs from :mod:`oracle`, the one home of each closed form, and an
expression baseline is built only once its residual check passes.  For
affine processes the correction is f / f0 = exp((phi - phi0) +
(delta - delta0).x), the difference of the two models' flow jets at
xi = iu: :func:`eval_generalized` takes one :func:`series_eval._flow_jet`
per model, each read from that model's x = 0 derivative rows, and the
power-series exponential of their difference.
:func:`correction_series` builds the difference recursion, whose eps = 0
atom is Delta sigma = sigma - sigma0, exactly on the integer engine of
:mod:`symalg`, for the nilpotency claim.
"""
from __future__ import annotations

import ast
import cmath
import math
import re
from dataclasses import dataclass
from operator import mul, sub

from .series_eval import CFResult, _exp_jet, _flow_jet, _series_result
from .symalg import DBASE, DSLOPE, AtomKey, difference_series
from .symbols import AffineModel, _checked_point, _vector, eval_symbol_xi

GENERALIZED = "Generalized"


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass
class BaselineSolution:
    """A solvable baseline: its generator model and the exponent of its
    closed-form CF f0 = exp(phi0(t, u) + psi0(t, u).x).

    ``exponent(t, u)`` returns (phi0, psi0), phi0 complex and psi0 a
    sequence of d complex numbers (a tuple for the built-in baselines), with
    phi0(0, u) = 0 and psi0(0, u) = iu.
    """

    name: str
    model: AffineModel
    exponent: object

    def residual_check(self, points, tol: float = 1e-6) -> float:
        """Finite-difference verification that exp(phi0 + psi0.x) solves the
        baseline Cauchy problem, d/dt (phi0 + psi0.x) = sigma(x, psi0), at
        each (t, x, u) of ``points``; returns the worst relative residual."""
        h = 1e-6  # central-difference step in t
        worst = 0.0
        for t, x, u in points:
            x = _vector("x", x, self.model.dimension)
            phi, psi = self.exponent(t, u)
            val = cmath.exp(complex(phi) + complex(sum(map(mul, psi, x))))
            t0 = max(t - h, 0.0)
            dt = t + h - t0
            phi_hi, psi_hi = self.exponent(t + h, u)
            phi_lo, psi_lo = self.exponent(t0, u)
            lhs = (complex(phi_hi - phi_lo) / dt
                   + sum((hi - lo) / dt * xl
                         for hi, lo, xl in zip(psi_hi, psi_lo, x))) * val
            rhs = eval_symbol_xi(self.model, x, psi) * val
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(val)))
        if worst > tol:
            raise ValueError(
                f"baseline '{self.name}' fails its residual check: "
                f"worst residual {worst:.3e} > {tol:.1e}"
            )
        return worst


def eval_baseline_cf(baseline: BaselineSolution, x, u, t: float) -> complex:
    x = _vector("x", x, baseline.model.dimension)
    phi, psi = baseline.exponent(t, u)
    return cmath.exp(complex(phi) + complex(sum(map(mul, psi, x))))


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
    from .oracle import vasicek_exponent, vasicek_model

    def exponent(t, u):
        phi, psi = vasicek_exponent(params, _vector("u", u)[0], t)
        return phi, (psi,)

    return BaselineSolution("vasicek", vasicek_model(params), exponent)


def heston_baseline(params) -> BaselineSolution:
    """Heston baseline from oracle.HestonParams: the exponent of
    :func:`oracle.heston_exponent` at u[0], psi0 = (iu, psi01) on the state
    ordering (x, v).  At the log singularity it raises ZeroDivisionError."""
    from .oracle import heston_exponent, heston_model

    def exponent(t, u):
        return heston_exponent(params, _vector("u", u)[0], t)

    return BaselineSolution("heston", heston_model(params), exponent)


# -- expression-defined baselines -------------------------------------------

_ALLOWED_CALLS = {
    "exp": cmath.exp, "log": cmath.log, "sqrt": cmath.sqrt,
    "sin": cmath.sin, "cos": cmath.cos, "tan": cmath.tan,
    "sinh": cmath.sinh, "cosh": cmath.cosh, "tanh": cmath.tanh,
    "atan": cmath.atan, "abs": abs,
}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd,
)
# u1, u2, ...: one name per frequency component
_COMPONENT = re.compile(r"u([1-9][0-9]*)")


def compile_expression(src: str):
    """Compile an arithmetic expression in t, the frequency components
    u1 .. ud (u is u1) and the imaginary unit i into a callable; only
    arithmetic nodes and a fixed function whitelist are admitted."""
    tree = ast.parse(src, mode="eval")
    top = 1  # the highest frequency component the expression reads
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"expression {src!r}: node {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or \
                    node.func.id not in _ALLOWED_CALLS:
                raise ValueError(f"expression {src!r}: call not allowed")
        if isinstance(node, ast.Name):
            component = _COMPONENT.fullmatch(node.id)
            if component:
                top = max(top, int(component[1]))
            elif node.id not in ("t", "u", "i", "pi", "e") and \
                    node.id not in _ALLOWED_CALLS:
                raise ValueError(
                    f"expression {src!r}: unknown name {node.id!r}")
    code = compile(tree, "<baseline-expression>", "eval")

    def fn(t, u):
        u = _vector("u", u)
        if top > len(u):
            raise ValueError(f"expression {src!r}: u{top} beyond the "
                             f"{len(u)} frequency components")
        components = {f"u{j}": v for j, v in enumerate(u, start=1)}
        return complex(eval(code, {"__builtins__": {}}, {
            "t": t, "u": components["u1"], "i": 1j, "pi": math.pi,
            "e": math.e, **components, **_ALLOWED_CALLS,
        }))

    return fn


def expression_baseline(model: AffineModel, phi0_src: str,
                        psi0_srcs) -> BaselineSolution:
    """Baseline from user expression strings for phi0 and each psi0
    component, refused with a ValueError unless its residual check passes
    at t in {0.1, 0.5}, u = (1, ..., 1) and x = 0 and each unit vector."""
    phi0 = compile_expression(phi0_src)
    comps = [compile_expression(s) for s in psi0_srcs]

    def exponent(t, u):
        return phi0(t, u), tuple(c(t, u) for c in comps)

    baseline = BaselineSolution("expression", model, exponent)
    d = model.dimension
    units = [tuple(float(i == j) for i in range(d)) for j in range(d)]
    baseline.residual_check([(t, x, (1.0,) * d) for t in (0.1, 0.5)
                             for x in ((0.0,) * d, *units)])
    return baseline


BASELINE_REGISTRY = {
    "zero": zero_baseline,
    "vasicek": vasicek_baseline,
    "heston": heston_baseline,
}


# ---------------------------------------------------------------------------
# Correction series (difference recursion)
# ---------------------------------------------------------------------------


def _check_compatible(target: AffineModel, baseline: BaselineSolution) -> None:
    if target.dimension != baseline.model.dimension:
        raise ValueError("target and baseline dimensions differ")
    if target.truncation != baseline.model.truncation:
        raise ValueError("target and baseline truncation conventions differ")


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
    only part of u) is refused, as are truncation < 1, t < 0, a
    non-finite t, x or u and an x or u of another length than the model's
    dimension.
    """
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
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
    return _series_result(eval_baseline_cf(baseline, x, u, t),
                          _exp_jet(difference, x), t, GENERALIZED)
