"""Independent reference implementations for validating series evaluations.

The Riccati integrator and the closed forms below never touch the series
machinery: they share only the symbol-component decomposition of the model,
the check of the evaluation point and the constants both sides use (the
rounding floor, the blow-up limit and MomentExplosionError, all in
:mod:`symbols`), so a disagreement isolates the series computation itself.
The series engine (:mod:`series_eval`) does not import this module.  The
integrator is classical RK4 on the generalized Riccati system phi' =
sigma_0(psi), psi' = sigma_l(psi) (Duffie, Filipovic and Schachermayer
2003), run by one Python function built per call from the model's compiled
components: phi and psi_1..psi_d are scalar locals and each stage is
straight-line code.  Its error is controlled by step halving (Hairer,
Norsett and Wanner 1993, II.4): a short first rung of FIRST_RUNG / 2
FIRST_RUNG steps is returned when its two runs agree to the rounding floor,
and any other point runs the cap of CAP_STEPS / 2 CAP_STEPS steps.  Like the
series modes, both oracles refuse a negative t and a non-finite t, x or u
with a ValueError.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

from .symbols import (BLOWUP_LIMIT, ROUNDING_FLOOR, AffineModel,
                      MomentExplosionError, _checked_point, _jump_symbol,
                      eval_symbol)

# Coarse step count of the Riccati step halving's first rung, run before the
# cap: 125 / 250 steps reach the floor at short horizons (t <= 0.15, |u| <= 3
# on CIR and Heston).
FIRST_RUNG = 125

# Coarse step count of the cap, whose fine run takes 2 CAP_STEPS steps.
CAP_STEPS = 2000


@dataclass
class RiccatiResult:
    value: complex
    phi: complex
    psi: tuple  # psi_1 .. psi_d, complex
    step_error: float  # step-halving estimate on the final CF value
    steps: int  # step count of the fine run returned (0 at t = 0)


def _rk4_program(model: AffineModel) -> tuple:
    """(source, namespace) of ``rk4(psi0, t, steps) -> (phi, [psi_1, ...])``:
    classical RK4 on phi' = sigma_0(psi), psi_l' = sigma_l(psi) from
    (0, psi0), unrolled for this model's compiled symbol components.

    psi_1..psi_d are the scalar locals p0..p{d-1}, and each stage evaluates
    the d + 1 components as straight-line expressions in the order in which
    ``symbols.component_rows`` computes their order-0 entries, so the
    arithmetic is the same operation for operation.  Each coefficient is a
    name bound in ``namespace``, as is the ``symbols._jump_symbol`` helper
    of each component with jumps; the source holds generated identifiers
    and the method's own constants only."""
    d = model.dimension
    namespace = {"BLOWUP_LIMIT": BLOWUP_LIMIT,
                 "MomentExplosionError": MomentExplosionError}
    # component c at the stage's state {v}0..{v}(d-1)
    sigma = []
    for c, (quad, lin, jump_part) in enumerate(model._compiled):
        terms = ["0j"]
        for n, (i, j, w) in enumerate(quad):
            namespace[f"a{c}_{n}"] = w
            terms.append(f"a{c}_{n} * {{v}}{i} * {{v}}{j}")
        for n, (i, b) in enumerate(lin):
            namespace[f"b{c}_{n}"] = b
            terms.append(f"b{c}_{n} * {{v}}{i}")
        expr = " + ".join(terms)
        if jump_part is not None:
            namespace[f"jump{c}"] = _jump_symbol(jump_part, d)
            state = "".join(f"{{v}}{i}, " for i in range(d))
            expr = f"jump{c}({expr}, ({state}))"
        sigma.append(expr)
    psi = ", ".join(f"p{i}" for i in range(d))
    # max(|psi_1|, ..., |psi_d|), in the order max(map(abs, psi)) reads it
    sizes = ", ".join(f"abs(p{i})" for i in range(d))
    size = f"max({sizes})" if d > 1 else sizes
    lines = [
        "def rk4(psi0, t, steps):",
        "    h = t / steps",
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        f"    {psi}, = psi0",
        "    phi = 0.0 + 0.0j",
        "    for n in range(steps):",
        f"        if {size} > BLOWUP_LIMIT:",
        "            raise MomentExplosionError(n * h)",
    ]
    # stage s reads the state p + (half, half, h)[s - 2] * k(s-1)
    for s, (v, scale) in enumerate((("p", None), ("q", "half"),
                                    ("q", "half"), ("q", "h")), start=1):
        if scale:
            lines += [f"        q{i} = p{i} + {scale} * k{s - 1}_{i + 1}"
                      for i in range(d)]
        lines += [f"        k{s}_{c} = {expr.format(v=v)}"
                  for c, expr in enumerate(sigma)]
    increment = "sixth * (k1_{0} + 2 * k2_{0} + 2 * k3_{0} + k4_{0})"
    lines.append(f"        phi += {increment.format(0)}")
    lines += [f"        p{i} = p{i} + {increment.format(i + 1)}"
              for i in range(d)]
    lines.append(f"    return phi, [{psi}]")
    return "\n".join(lines) + "\n", namespace


def riccati_cf(model: AffineModel, x, u, t: float) -> RiccatiResult:
    """CF via RK4 integration of the generalized Riccati system.

    Step halving: the first rung's 2 FIRST_RUNG-step run is returned if it
    differs from its FIRST_RUNG-step run by at most ROUNDING_FLOOR |v|
    (1 + |phi + psi.x|).  Every other point runs the cap, 2 CAP_STEPS and
    CAP_STEPS steps, and returns the first of them.

    Raises ValueError for a negative t, a non-finite t, x or u and an x or
    u whose length is not the model's dimension, and MomentExplosionError
    when |psi| passes BLOWUP_LIMIT at the start of a step of the cap's
    runs; a blow-up on the first rung sends the point to the cap."""
    x, u = _checked_point(x, u, t, model.dimension)
    if t == 0.0:
        return RiccatiResult(cmath.exp(1j * sum(map(mul, u, x))), 0.0 + 0.0j,
                             tuple(1j * v for v in u), 0.0, 0)
    source, namespace = _rk4_program(model)
    exec(compile(source, "<riccati-rk4>", "exec"), namespace)
    rk4 = namespace["rk4"]
    psi0 = [1j * v for v in u]

    def run(steps):
        phi, psi = rk4(psi0, t, steps)
        exponent = phi + sum(map(mul, psi, x))
        return cmath.exp(exponent), exponent, phi, tuple(psi), steps

    def result(fine, coarse):
        # Richardson: RK4 halving reduces the error ~16x, so the difference
        # is ~15/16 of the coarse error; report it as a conservative bound.
        value, _, phi, psi, steps = fine
        return RiccatiResult(value, phi, psi, abs(value - coarse[0]), steps)

    try:
        coarse, fine = run(FIRST_RUNG), run(2 * FIRST_RUNG)
    except MomentExplosionError:
        pass
    else:
        value, exponent = fine[:2]
        if abs(value - coarse[0]) <= ROUNDING_FLOOR * abs(value) * (
                1.0 + abs(exponent)):
            return result(fine, coarse)
    # the fine run goes first, so that a blow-up raises with its t_blowup
    fine = run(2 * CAP_STEPS)
    return result(fine, run(CAP_STEPS))


def slopes_vanish(model: AffineModel) -> bool:
    """Whether every slope block is zero and no slope component jumps: then
    psi stays at iu and the CF is the Levy-Khintchine form."""
    return not any(v for m in model.a_slope for row in m for v in row) and \
        not any(v for row in model.b_slope for v in row) and \
        all(j.total_mass == 0.0 for j in model.jumps[1:])


def levy_khintchine_cf(model: AffineModel, x, u, t: float) -> complex:
    """exp(iux + t sigma(iu)) for models whose slopes vanish."""
    if not slopes_vanish(model):
        raise ValueError("Levy-Khintchine form requires zero slope "
                         "coefficients and no slope jumps")
    x, u = _checked_point(x, u, t, model.dimension)
    return cmath.exp(1j * sum(map(mul, u, x)) + t * eval_symbol(model, x, u))


# ---------------------------------------------------------------------------
# Vasicek / OU closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VasicekParams:
    """dX = (b0 + b1 X) dt + sqrt(2 a0) dW, i.e. the generator
    a0 d^2/dx^2 + (b0 + b1 x) d/dx with constant diffusion coefficient a0."""

    a0: float
    b0: float
    b1: float


def vasicek_exponent(params: VasicekParams, u: float, t: float) -> tuple:
    """(phi, psi) of the closed-form CF exp(phi + psi x): psi = iu e^{b1 t},
    phi = iu b0 (e^{b1 t} - 1)/b1 - u^2 a0 (e^{2 b1 t} - 1)/(2 b1), with the
    b1 -> 0 limit."""
    b1 = params.b1
    if abs(b1) < 1e-12:
        drift_factor = t * (1.0 + 0.5 * b1 * t)
        var_factor = t * (1.0 + b1 * t)
    else:
        drift_factor = (math.exp(b1 * t) - 1.0) / b1
        var_factor = (math.exp(2.0 * b1 * t) - 1.0) / (2.0 * b1)
    return (1j * u * params.b0 * drift_factor - u * u * params.a0 * var_factor,
            1j * u * math.exp(b1 * t))


def vasicek_cf(params: VasicekParams, x: float, u: float, t: float) -> complex:
    """Closed-form CF exp(phi + psi x) of :func:`vasicek_exponent`."""
    phi, psi = vasicek_exponent(params, u, t)
    return cmath.exp(phi + psi * x)


def vasicek_model(params: VasicekParams) -> AffineModel:
    """Equivalent AffineModel: the generator convention here is
    (1/2) a(x) d^2/dx^2, so the model diffusion entry is 2 a0."""
    return AffineModel.from_arrays(
        a0=[[2.0 * params.a0]],
        b0=[params.b0],
        b_slope=[[params.b1]],
        dimension=1,
    )


def vasicek_params(model: AffineModel) -> VasicekParams:
    """The Vasicek core of a 1-d model, read from the blocks
    :func:`vasicek_model` writes: a0 from the constant diffusion, b0 and b1
    from the drift."""
    if model.dimension != 1:
        raise ValueError("vasicek baseline requires a 1-d model")
    return VasicekParams(a0=0.5 * model.a0[0][0], b0=model.b0[0],
                         b1=model.b_slope[0][0])


# ---------------------------------------------------------------------------
# CIR closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CIRParams:
    """dX = (b0 + b1 X) dt + s sqrt(X) dW (mean reversion requires b1 < 0)."""

    b0: float
    b1: float
    s: float


def cir_cf(params: CIRParams, x: float, u: float, t: float) -> complex:
    """CF from the linear-ODE solution of the CIR Riccati equation.

    With psi' = (s^2/2) psi^2 + b1 psi, psi(0) = iu, the substitution
    w = 1/psi gives psi(t) = b1 iu e^{b1 t} / (b1 + (s^2/2) iu (1 - e^{b1 t}))
    and phi(t) = b0 integral psi = -(2 b0 / s^2) log(1 - (s^2/2) iu
    (1 - e^{b1 t}) / b1 ... assembled below in a branch-safe form.
    """
    b1, s = params.b1, params.s
    iu = 1j * u
    if u == 0.0:
        return 1.0 + 0.0j
    if abs(b1) < 1e-12:
        denom = 1.0 - 0.5 * s * s * iu * t
        psi = iu / denom
        phi = -(2.0 * params.b0 / (s * s)) * cmath.log(denom)
    else:
        ebt = math.exp(b1 * t)
        denom = 1.0 + (s * s / (2.0 * b1)) * iu * (1.0 - ebt)
        psi = iu * ebt / denom
        phi = -(2.0 * params.b0 / (s * s)) * cmath.log(denom)
    return cmath.exp(phi + psi * x)


def cir_model(params: CIRParams) -> AffineModel:
    """Equivalent AffineModel: a(x) = s^2 x (so the generator is
    (1/2) s^2 x d^2/dx^2), b(x) = b0 + b1 x."""
    return AffineModel.from_arrays(
        a0=[[0.0]],
        a_slope=[[[params.s ** 2]]],
        b0=[params.b0],
        b_slope=[[params.b1]],
        dimension=1,
        state_domain=((0.0, None),),
    )


# ---------------------------------------------------------------------------
# Heston closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HestonParams:
    """Heston model in block-coefficient parameter names:

    dX = (b10 + b11 v) dt + sqrt(v) dW1
    dv = (b20 - b21 v) dt + s sqrt(v) dW2,   corr(dW1, dW2) = rho.

    b00 appears only in the CF's phi as the b00*iu*t drift term; tests pin
    b00 = b10 (the two names denote the same rate in the source material's
    conventions, exposed separately because the text is ambiguous).
    """

    b00: float
    b10: float
    b11: float
    b20: float
    b21: float
    s: float
    rho: float


def heston_exponent(params: HestonParams, u: float, t: float) -> tuple:
    """(phi, (iu, psi01)) of the closed-form CF exp(phi + iu x + psi01 v),
    in the branch-stabilized ('little trap') form.

    Mathematically identical to the textbook form with
    g = (b21 - rho s iu + d)/(b21 - rho s iu - d); the stabilized variant
    uses G = 1/g and exp(-dt), keeping |G exp(-dt)| bounded so the complex
    log never crosses a branch cut along t.  Raises ZeroDivisionError at the
    log singularity G exp(-dt) -> 1.
    """
    iu = 1j * u
    if u == 0.0:
        return 0.0 + 0.0j, (iu, 0.0 + 0.0j)
    s, rho = params.s, params.rho
    beta = params.b21 - rho * s * iu
    d = cmath.sqrt(beta * beta - s * s * (2.0 * params.b11 * iu - u * u))
    G = (beta - d) / (beta + d)  # 1/g
    emdt = cmath.exp(-d * t)
    denom = 1.0 - G * emdt
    if abs(denom) < 1e-14:
        raise ZeroDivisionError(
            f"Heston log singularity at (t={t}, u={u}): g exp(dt) -> 1"
        )
    psi01 = (beta - d) / (s * s) * (1.0 - emdt) / denom
    phi = params.b00 * iu * t + (params.b20 / (s * s)) * (
        (beta - d) * t - 2.0 * cmath.log(denom / (1.0 - G))
    )
    return phi, (iu, psi01)


def heston_cf(params: HestonParams, x: float, v: float, u: float,
              t: float) -> complex:
    """Closed-form CF exp(phi + psi01 v + iu x) of :func:`heston_exponent`."""
    phi, (iu, psi01) = heston_exponent(params, u, t)
    return cmath.exp(phi + psi01 * v + iu * x)


def heston_model(params: HestonParams) -> AffineModel:
    """Equivalent 2-d AffineModel with state (x, v): diffusion matrix
    [[v, rho s v], [rho s v, s^2 v]], drift (b10 + b11 v, b20 - b21 v)."""
    s, rho = params.s, params.rho
    return AffineModel.from_arrays(
        a0=[[0.0, 0.0], [0.0, 0.0]],
        a_slope=[
            [[0.0, 0.0], [0.0, 0.0]],  # no x-dependence
            [[1.0, rho * s], [rho * s, s * s]],  # v-slope
        ],
        b0=[params.b10, params.b20],
        b_slope=[[0.0, params.b11], [0.0, -params.b21]],
        dimension=2,
        state_domain=((None, None), (0.0, None)),
    )


def heston_params(model: AffineModel) -> HestonParams:
    """The Heston core of a 2-d model, read from the blocks
    :func:`heston_model` writes: s and rho from the v-slope diffusion
    [[1, rho s], [rho s, s^2]], the rest from the drift (b00 = b10).  A
    block with |rho| > 1 is no diffusion matrix and is refused."""
    if model.dimension != 2:
        raise ValueError("heston baseline requires a 2-d model")
    (a_xx, a_xv), (_, a_vv) = model.a_slope[1]
    if not a_vv > 0.0 or a_xx != 1.0:
        raise ValueError("model is not Heston-shaped (need a_slope[2] = "
                         "[[1, rho s],[rho s, s^2]])")
    s = math.sqrt(a_vv)
    if abs(a_xv) > s:
        raise ValueError(f"model is not Heston-shaped: |rho| = "
                         f"{abs(a_xv) / s:.3g} > 1 (need |a_slope[2][0][1]| "
                         f"<= s = sqrt(a_slope[2][1][1]))")
    return HestonParams(b00=model.b0[0], b10=model.b0[0],
                        b11=model.b_slope[0][1], b20=model.b0[1],
                        b21=-model.b_slope[1][1], s=s, rho=a_xv / s)
