"""Generalized-symbol expansions around solvable baselines.

Given a baseline affine model A0 whose characteristic function is known in
closed form f0 = exp(phi0(t,u) + psi0(t,u).x), the CF of a target model A
is represented as f0 (1 + sum_k w_k t^k).  For affine processes the
correction is f / f0 = exp((phi - phi0) + (delta - delta0).x), the
difference of the two models' flow jets at xi = iu: :func:`eval_generalized`
reads both from :mod:`series_eval` and takes the power-series exponential
of their difference.  :func:`correction_series` builds the difference
recursion, whose eps = 0 atom is Delta sigma = sigma - sigma0, exactly on
the integer engine of :mod:`symalg`, for the nilpotency claim.
"""
from __future__ import annotations

import ast
import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .series_eval import CFResult, _exp_jet, _flow_jet, _series_result
from .symalg import DBASE, DSLOPE, AtomKey, difference_series
from .symbols import AffineModel, _checked_point, eval_symbol_table_xi

GENERALIZED = "Generalized"


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass
class BaselineSolution:
    """A solvable baseline: closed-form exponent plus its generator model.

    phi0(t, u) -> complex and psi0(t, u) -> complex d-vector must satisfy
    phi0(0,u) = 0, psi0(0,u) = iu.
    """

    name: str
    model: AffineModel
    phi0: object
    psi0: object

    def psi_vec(self, t: float, u) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.psi0(t, u), dtype=complex))

    def residual_check(self, points, tol: float = 1e-6) -> float:
        """Finite-difference verification that exp(phi0 + psi0.x) solves the
        baseline Cauchy problem; returns the worst relative residual."""
        h = 1e-6  # central-difference step in t
        worst = 0.0
        zero = tuple(0 for _ in range(self.model.dimension))
        for t, x, u in points:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            psi = self.psi_vec(t, u)
            val = cmath.exp(complex(self.phi0(t, u)) + complex(psi @ x))
            t0 = max(t - h, 0.0)
            dt = t + h - t0
            dphi = (self.phi0(t + h, u) - self.phi0(t0, u)) / dt
            dpsi = (self.psi_vec(t + h, u) - self.psi_vec(t0, u)) / dt
            lhs = (complex(dphi) + dpsi @ x) * val
            table = eval_symbol_table_xi(self.model, x, psi, 0)
            rhs = table.base[zero] * val
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(val)))
        if worst > tol:
            raise ValueError(
                f"baseline '{self.name}' fails its residual check: "
                f"worst residual {worst:.3e} > {tol:.1e}"
            )
        return worst


def eval_baseline_cf(baseline: BaselineSolution, x, u, t: float) -> complex:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = baseline.psi_vec(t, u)
    return cmath.exp(complex(baseline.phi0(t, u)) + complex(psi @ x))


def zero_baseline(dimension: int) -> BaselineSolution:
    """The zero generator: phi0 = 0, psi0 = iu frozen; the correction series
    then reduces exactly to the plain local series."""
    model = AffineModel.from_arrays(dimension=dimension)

    def phi0(t, u):
        return 0.0 + 0.0j

    def psi0(t, u):
        return 1j * np.atleast_1d(np.asarray(u, dtype=float))

    return BaselineSolution("zero", model, phi0, psi0)


def vasicek_baseline(params) -> BaselineSolution:
    """Ornstein-Uhlenbeck baseline from oracle.VasicekParams."""
    from .oracle import vasicek_model

    a0, b0, b1 = params.a0, params.b0, params.b1

    def helpers(t):
        if abs(b1) < 1e-12:
            return t * (1.0 + 0.5 * b1 * t), t * (1.0 + b1 * t)
        return ((math.exp(b1 * t) - 1.0) / b1,
                (math.exp(2.0 * b1 * t) - 1.0) / (2.0 * b1))

    def phi0(t, u):
        uu = float(np.atleast_1d(u)[0])
        dr, va = helpers(t)
        return 1j * uu * b0 * dr - uu * uu * a0 * va

    def psi0(t, u):
        uu = float(np.atleast_1d(u)[0])
        return np.array([1j * uu * math.exp(b1 * t)], dtype=complex)

    return BaselineSolution("vasicek", vasicek_model(params), phi0, psi0)


def heston_baseline(params) -> BaselineSolution:
    """Heston baseline from oracle.HestonParams; psi0 = (iu, psi01) on the
    state ordering (x, v)."""
    from .oracle import heston_cf, heston_model

    def phi_psi(t, u):
        uu = float(np.atleast_1d(u)[0])
        if uu == 0.0:
            return 0.0 + 0.0j, np.zeros(2, dtype=complex)
        iu = 1j * uu
        s, rho = params.s, params.rho
        beta = params.b21 - rho * s * iu
        d = cmath.sqrt(beta * beta - s * s * (2.0 * params.b11 * iu - uu * uu))
        G = (beta - d) / (beta + d)
        emdt = cmath.exp(-d * t)
        denom = 1.0 - G * emdt
        psi01 = (beta - d) / (s * s) * (1.0 - emdt) / denom
        phi = params.b00 * iu * t + (params.b20 / (s * s)) * (
            (beta - d) * t - 2.0 * cmath.log(denom / (1.0 - G))
        )
        return phi, np.array([iu, psi01], dtype=complex)

    def phi0(t, u):
        return phi_psi(t, u)[0]

    def psi0(t, u):
        return phi_psi(t, u)[1]

    return BaselineSolution("heston", heston_model(params), phi0, psi0)


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
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if top > u.size:
            raise ValueError(f"expression {src!r}: u{top} beyond the "
                             f"{u.size} frequency components")
        components = {f"u{j}": float(v) for j, v in enumerate(u, start=1)}
        return complex(eval(code, {"__builtins__": {}}, {
            "t": t, "u": components["u1"], "i": 1j, "pi": math.pi,
            "e": math.e, **components, **_ALLOWED_CALLS,
        }))

    return fn


def expression_baseline(model: AffineModel, phi0_src: str,
                        psi0_srcs) -> BaselineSolution:
    """Baseline from user expression strings for phi0 and each psi0 component;
    validated by the residual check before first use."""
    phi0 = compile_expression(phi0_src)
    comps = [compile_expression(s) for s in psi0_srcs]

    def psi0(t, u):
        return np.array([c(t, u) for c in comps], dtype=complex)

    return BaselineSolution("expression", model, phi0, psi0)


BASELINE_REGISTRY = {
    "zero": zero_baseline,
    "vasicek": vasicek_baseline,
    "heston": heston_baseline,
}


# ---------------------------------------------------------------------------
# Correction series (difference recursion)
# ---------------------------------------------------------------------------


def _blocks_equal(target: AffineModel, baseline: AffineModel, comp: int) -> bool:
    if comp == 0:
        blocks = ((target.a0, baseline.a0), (target.b0, baseline.b0))
    else:
        blocks = ((target.a_slope[comp - 1], baseline.a_slope[comp - 1]),
                  (np.asarray(target.b_slope, float)[:, comp - 1],
                   np.asarray(baseline.b_slope, float)[:, comp - 1]))
    same = all(np.array_equal(np.asarray(a, float), np.asarray(b, float))
               for a, b in blocks)
    return same and target.jumps[comp] == baseline.jumps[comp]


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
    difference atom whose coefficient blocks coincide between target and
    baseline is identically zero and is dropped, which makes the nilpotency
    statement (target = baseline implies d_k = 0 for k >= 1) structural
    rather than numeric.
    """
    _check_compatible(target, baseline)
    d = target.dimension
    zero = (0,) * d
    comp_zero = [_blocks_equal(target, baseline.model, c) for c in range(d + 1)]
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
    with (phi, delta) the flow jet at xi = iu of the target's x = 0 table
    and (phi0, delta0) that of the baseline model's
    (:func:`series_eval._flow_jet`): the w_k are the power-series
    exponential of the difference of the two jets
    (:func:`series_eval._exp_jet`), and the closed form is read only at t,
    for the prefactor.  A baseline that misses psi0(0, u) = iu (reading
    only part of u) is refused, as are truncation < 1, t < 0 and a
    non-finite t, x or u.
    """
    if truncation < 1:
        raise ValueError("truncation order must be >= 1")
    x, u = _checked_point(x, u, t)
    _check_compatible(target, baseline)
    iu = 1j * u
    miss = float(np.max(np.abs(baseline.psi_vec(0.0, u) - iu)))
    if not miss <= 1e-12 * (1.0 + float(np.linalg.norm(iu))):
        raise ValueError(f"baseline '{baseline.name}' misses psi0(0, u) = iu "
                         f"by {miss:.3e}")
    tables = [eval_symbol_table_xi(m, np.zeros(target.dimension), iu,
                                   truncation - 1)
              for m in (target, baseline.model)]
    jet, jet0 = [_flow_jet(tab.base, tab.slope, truncation) for tab in tables]
    return _series_result(eval_baseline_cf(baseline, x, u, t),
                          _exp_jet(jet - jet0, x), t, GENERALIZED)
