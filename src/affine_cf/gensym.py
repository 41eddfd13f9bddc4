"""Generalized-symbol expansions around solvable baselines.

Given a baseline affine model A0 whose characteristic function is known in
closed form exp(phi0(t,u) + psi0(t,u).x), the CF of a target model A is
represented as exp(phi0 + psi0.x) (1 + sum_k d_k t^k), with the symbols
evaluated along the baseline trajectory xi = psi0(t,u).  Two recursions
give the d_k: the difference form (primary), driven by
Delta sigma = sigma - sigma0, and the brute-force form carrying the explicit
time derivative of the baseline exponent (cross-validation).  Evaluation
runs both through the numeric symbol operator of :mod:`series_eval`, which
changes only the eps = 0 entries of the target's symbol table.
:func:`correction_series` and :func:`brute_force_series` build the same
recursions in the exact atom algebra, for the nilpotency claim and as
references.
"""
from __future__ import annotations

import ast
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multiindex import enumerate_indices
from .series_eval import CFResult, _operator_d_values, _series_result
from .symalg import (
    BASE,
    BASE0,
    DBASE,
    DSLOPE,
    SLOPE0,
    TDRIFT,
    AtomKey,
    SymPoly,
)
from .symbols import AffineModel, NoJumps, eval_symbol_table_xi

GENERALIZED = "Generalized"


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass
class BaselineSolution:
    """A solvable baseline: closed-form exponent plus its generator model.

    phi0(t, u) -> complex and psi0(t, u) -> complex d-vector must satisfy
    phi0(0,u) = 0, psi0(0,u) = iu.  Optional closed-form time derivatives
    dphi0/dpsi0 feed the brute-force recursion; central differences
    (step 1e-6) are used otherwise.
    """

    name: str
    model: AffineModel
    phi0: object
    psi0: object
    dphi0: object = None
    dpsi0: object = None

    def psi_vec(self, t: float, u) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.psi0(t, u), dtype=complex))

    def time_derivs(self, t: float, u, h: float = 1e-6):
        if self.dphi0 is not None and self.dpsi0 is not None:
            return (complex(self.dphi0(t, u)),
                    np.atleast_1d(np.asarray(self.dpsi0(t, u), dtype=complex)))
        t0 = max(t - h, 0.0)
        dphi = (self.phi0(t + h, u) - self.phi0(t0, u)) / (t + h - t0)
        dpsi = (self.psi_vec(t + h, u) - self.psi_vec(t0, u)) / (t + h - t0)
        return complex(dphi), dpsi

    def residual_check(self, points, tol: float = 1e-6) -> float:
        """Finite-difference verification that exp(phi0 + psi0.x) solves the
        baseline Cauchy problem; returns the worst relative residual."""
        worst = 0.0
        zero = tuple(0 for _ in range(self.model.dimension))
        for t, x, u in points:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            psi = self.psi_vec(t, u)
            val = cmath.exp(complex(self.phi0(t, u)) + complex(psi @ x))
            dphi, dpsi = self.time_derivs(t, u)
            lhs = (dphi + dpsi @ x) * val
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

    return BaselineSolution("zero", model, phi0, psi0,
                            dphi0=lambda t, u: 0.0,
                            dpsi0=lambda t, u: np.zeros(dimension, complex))


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

    def dphi0(t, u):
        uu = float(np.atleast_1d(u)[0])
        e1 = math.exp(b1 * t)
        return 1j * uu * b0 * e1 - uu * uu * a0 * e1 * e1

    def dpsi0(t, u):
        uu = float(np.atleast_1d(u)[0])
        return np.array([1j * uu * b1 * math.exp(b1 * t)], dtype=complex)

    return BaselineSolution("vasicek", vasicek_model(params),
                            phi0, psi0, dphi0, dpsi0)


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


def compile_expression(src: str):
    """Compile an arithmetic expression in variables t, u (and the imaginary
    unit i) into a callable; only arithmetic nodes and a fixed function
    whitelist are admitted."""
    tree = ast.parse(src, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"expression {src!r}: node {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or \
                    node.func.id not in _ALLOWED_CALLS:
                raise ValueError(f"expression {src!r}: call not allowed")
        if isinstance(node, ast.Name) and node.id not in (
                "t", "u", "i", "pi", "e") and node.id not in _ALLOWED_CALLS:
            raise ValueError(f"expression {src!r}: unknown name {node.id!r}")
    code = compile(tree, "<baseline-expression>", "eval")

    def fn(t, u):
        uu = float(np.atleast_1d(u)[0])
        return complex(eval(code, {"__builtins__": {}}, {
            "t": t, "u": uu, "i": 1j, "pi": math.pi, "e": math.e,
            **_ALLOWED_CALLS,
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
        pair = ((target.a0, baseline.a0), (target.b0, baseline.b0),
                (target.jumps[0], baseline.jumps[0]))
    else:
        pair = ((target.a_slope[comp - 1], baseline.a_slope[comp - 1]),
                (tuple(np.asarray(target.b_slope, float)[:, comp - 1]),
                 tuple(np.asarray(baseline.b_slope, float)[:, comp - 1])),
                (target.jumps[comp], baseline.jumps[comp]))
    (ta, ba), (tb, bb), (tj, bj) = pair
    if not np.array_equal(np.asarray(ta, float), np.asarray(ba, float)):
        return False
    if not np.array_equal(np.asarray(tb, float), np.asarray(bb, float)):
        return False
    if isinstance(tj, NoJumps) and isinstance(bj, NoJumps):
        return True
    return tj == bj


def _check_compatible(target: AffineModel, baseline: BaselineSolution) -> None:
    if target.dimension != baseline.model.dimension:
        raise ValueError("target and baseline dimensions differ")
    if target.truncation != baseline.model.truncation:
        raise ValueError("target and baseline truncation conventions differ")


def _dx_eps(poly: SymPoly, eps) -> SymPoly:
    out = poly
    for direction, times in enumerate(eps, start=1):
        for _ in range(times):
            out = out.dx(direction)
            if not out.terms:
                return out
    return out


def _eps_factorial(eps) -> int:
    f = 1
    for e in eps:
        f *= math.factorial(e)
    return f


def correction_series(target: AffineModel, baseline: BaselineSolution,
                      max_order: int) -> list:
    """Terms d_0 .. d_K of the difference recursion

        (k+1) d_{k+1} = Delta sigma . d_k
                        + sum_{1<=|eps|<=k} (d^eps Delta sigma
                                             + d^eps sigma0) (1/eps!) d^eps_x d_k

    in exact rational arithmetic over the atom kinds dbase/dslope (difference
    symbol) and base0/slope0 (baseline symbol).  Atoms whose coefficient
    blocks coincide between target and baseline are identically zero and are
    dropped, which makes the nilpotency statement (target = baseline implies
    d_k = 0 for k >= 1) structural rather than numeric.
    """
    _check_compatible(target, baseline)
    d = target.dimension
    zero_model = AffineModel.from_arrays(dimension=d,
                                         truncation=baseline.model.truncation)
    comp_zero = [_blocks_equal(target, baseline.model, c) for c in range(d + 1)]
    base_zero = [_blocks_equal(baseline.model, zero_model, c)
                 for c in range(d + 1)]
    delta_all_zero = all(comp_zero)
    base_all_zero = all(base_zero)

    def keep(atom: AtomKey) -> bool:
        if atom.kind == DBASE:
            return not delta_all_zero
        if atom.kind == DSLOPE:
            return not comp_zero[atom.l]
        if atom.kind == BASE0:
            return not base_all_zero
        if atom.kind == SLOPE0:
            return not base_zero[atom.l]
        return True

    def filtered(poly: SymPoly) -> SymPoly:
        out = SymPoly()
        for mono, c in poly.terms.items():
            if all(keep(a) for a, _ in mono):
                out.add_term(mono, c)
        return out

    zero_eps = tuple(0 for _ in range(d))
    series = [SymPoly.constant(Fraction(1))]
    for k in range(max_order):
        cur = series[k]
        nxt = cur.mul_atom(AtomKey(DBASE, 0, zero_eps))
        deg = max((sum(e for _, e in mono) for mono in cur.terms), default=0)
        for order in range(1, min(k, deg) + 1):
            for eps in enumerate_indices(d, order).indices:
                dcur = _dx_eps(cur, eps)
                if not dcur.terms:
                    continue
                w = Fraction(1, _eps_factorial(eps))
                nxt.add_into(dcur.mul_atom(AtomKey(DBASE, 0, eps)), w)
                nxt.add_into(dcur.mul_atom(AtomKey(BASE0, 0, eps)), w)
        series.append(filtered(nxt).scaled(Fraction(1, k + 1)))
    return series


def brute_force_series(target: AffineModel, max_order: int) -> list:
    """Terms of the brute-force recursion

        (k+1) d_{k+1} = (-d_t phi0 - x . d_t psi0) d_k
                        + sum_{0<=|eps|<=k} d^eps sigma (1/eps!) d^eps_x d_k

    over the atom kinds tdrift (the time-derivative pseudo-atom, affine in x)
    and base/slope (target symbol along the baseline trajectory)."""
    d = target.dimension
    zero_eps = tuple(0 for _ in range(d))
    series = [SymPoly.constant(Fraction(1))]
    for k in range(max_order):
        cur = series[k]
        nxt = cur.mul_atom(AtomKey(TDRIFT, 0, zero_eps))
        deg = max((sum(e for _, e in mono) for mono in cur.terms), default=0)
        for order in range(0, min(k, deg) + 1):
            for eps in enumerate_indices(d, order).indices:
                dcur = _dx_eps(cur, eps)
                if not dcur.terms:
                    continue
                w = Fraction(1, _eps_factorial(eps))
                nxt.add_into(dcur.mul_atom(AtomKey(BASE, 0, eps)), w)
        series.append(nxt.scaled(Fraction(1, k + 1)))
    return series


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def _expand_along_baseline(target: AffineModel, baseline: BaselineSolution,
                           x, u, t: float, truncation: int, shift,
                           shift_slopes) -> CFResult:
    """exp(phi0 + psi0 x) (1 + sum_k d_k t^k) with d_k = L^k 1 / k!, L the
    operator of the target's symbol table at x = 0 along xi = psi0(t, u)
    with shift + x . shift_slopes taken off its eps = 0 entry."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = eval_symbol_table_xi(target, np.zeros(target.dimension),
                                 baseline.psi_vec(t, u), max(truncation - 1, 0))
    zero = tuple(0 for _ in range(target.dimension))
    table.base[zero] -= shift
    for slope, s in zip(table.slope, shift_slopes):
        slope[zero] -= s
    dk = _operator_d_values(table.base, table.slope, x, truncation)
    return _series_result(eval_baseline_cf(baseline, x, u, t), dk, t,
                          GENERALIZED)


def eval_generalized(target: AffineModel, baseline: BaselineSolution, x, u,
                     t: float, truncation: int = 10) -> CFResult:
    """exp(phi0 + psi0 x) (1 + sum_k d_k(x, psi0(t,u)) t^k).

    The difference recursion: the eps = 0 entry of the operator is
    Delta sigma = sigma - sigma0, and every other entry is the target's,
    since d^eps Delta sigma + d^eps sigma0 = d^eps sigma."""
    _check_compatible(target, baseline)
    d = target.dimension
    zero = tuple(0 for _ in range(d))
    table0 = eval_symbol_table_xi(baseline.model, np.zeros(d),
                                  baseline.psi_vec(t, u), 0)
    return _expand_along_baseline(target, baseline, x, u, t, truncation,
                                  table0.base[zero],
                                  [slope[zero] for slope in table0.slope])


def eval_brute_force(target: AffineModel, baseline: BaselineSolution, x, u,
                     t: float, truncation: int = 10) -> CFResult:
    """Brute-force variant carrying the explicit baseline time derivative;
    used to cross-validate eval_generalized.  The eps = 0 entry of the
    operator is sigma - d_t phi0 - x . d_t psi0."""
    dphi, dpsi = baseline.time_derivs(t, u)
    return _expand_along_baseline(target, baseline, x, u, t, truncation,
                                  dphi, dpsi)
