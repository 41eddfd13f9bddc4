"""Independent reference implementations for validating series evaluations.

The Riccati integrator and the closed forms below never touch the series
machinery: they share only the symbol-component decomposition of the model,
so a disagreement isolates the series computation itself.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .symbols import AffineModel, eval_symbol, symbol_components

BLOWUP_LIMIT = 1e8


class MomentExplosionError(RuntimeError):
    """Riccati trajectory left the numerically representable region."""

    def __init__(self, t_blowup: float):
        super().__init__(f"Riccati trajectory blow-up near t = {t_blowup:.6g}")
        self.t_blowup = t_blowup


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 configuration."""

    steps: int = 2000

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")


@dataclass
class RiccatiResult:
    value: complex
    phi: complex
    psi: np.ndarray
    step_error: float  # step-halving estimate on the final CF value


def _integrate(rhs, psi0: list, t: float, steps: int):
    """Classical RK4 on the scalars phi and psi_1..psi_d; returns (phi, psi).

    ``rhs(psi)`` is [F, R_1, ..., R_d]: phi' = F(psi) = sigma(0, psi) and
    psi_l' = R_l(psi) = sigma_l(psi)."""
    h = t / steps
    phi, psi = 0.0 + 0.0j, list(psi0)
    for n in range(steps):
        if max(map(abs, psi), default=0.0) > BLOWUP_LIMIT:
            raise MomentExplosionError(n * h)
        k1 = rhs(psi)
        k2 = rhs([p + 0.5 * h * k for p, k in zip(psi, k1[1:])])
        k3 = rhs([p + 0.5 * h * k for p, k in zip(psi, k2[1:])])
        k4 = rhs([p + h * k for p, k in zip(psi, k3[1:])])
        inc = [(h / 6.0) * (a + 2 * b + 2 * c + e)
               for a, b, c, e in zip(k1, k2, k3, k4)]
        phi += inc[0]
        psi = [p + q for p, q in zip(psi, inc[1:])]
    return phi, np.array(psi)


def riccati_cf(model: AffineModel, x, u, t: float,
               config: IntegratorConfig = IntegratorConfig()) -> RiccatiResult:
    """CF via RK4 integration of the generalized Riccati system."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if t == 0.0:
        return RiccatiResult(np.exp(1j * (u @ x)), 0.0 + 0.0j, 1j * u, 0.0)
    rhs = symbol_components(model)
    psi0 = [1j * float(v) for v in u]
    phi_fine, psi_fine = _integrate(rhs, psi0, t, 2 * config.steps)
    phi_coarse, psi_coarse = _integrate(rhs, psi0, t, config.steps)
    val_fine = np.exp(phi_fine + psi_fine @ x)
    val_coarse = np.exp(phi_coarse + psi_coarse @ x)
    # Richardson: RK4 halving reduces the error ~16x, so the difference is
    # ~15/16 of the coarse error; report it directly as a conservative bound.
    return RiccatiResult(val_fine, phi_fine, psi_fine,
                         abs(val_fine - val_coarse))


def levy_khintchine_cf(model: AffineModel, x, u, t: float) -> complex:
    """exp(iux + t sigma(iu)) for models with vanishing slope blocks."""
    if any(np.any(np.asarray(m, float) != 0.0) for m in model.a_slope) or \
            np.any(np.asarray(model.b_slope, float) != 0.0):
        raise ValueError("Levy-Khintchine form requires zero slope coefficients")
    for jump in model.jumps[1:]:
        if getattr(jump, "total_mass", 0.0) > 0.0:
            raise ValueError("Levy-Khintchine form requires no slope jumps")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.exp(1j * (u @ x) + t * eval_symbol(model, x, u))


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


def vasicek_cf(params: VasicekParams, x: float, u: float, t: float) -> complex:
    """Closed-form CF: exp(iu x e^{b1 t} + iu b0 (e^{b1 t} - 1)/b1
    - u^2 a0 (e^{2 b1 t} - 1)/(2 b1)), with the b1 -> 0 limit."""
    b1 = params.b1
    if abs(b1) < 1e-12:
        drift_factor = t * (1.0 + 0.5 * b1 * t)
        var_factor = t * (1.0 + b1 * t)
    else:
        drift_factor = (math.exp(b1 * t) - 1.0) / b1
        var_factor = (math.exp(2.0 * b1 * t) - 1.0) / (2.0 * b1)
    return cmath.exp(
        1j * u * x * math.exp(b1 * t)
        + 1j * u * params.b0 * drift_factor
        - u * u * params.a0 * var_factor
    )


def vasicek_model(params: VasicekParams) -> AffineModel:
    """Equivalent AffineModel: the generator convention here is
    (1/2) a(x) d^2/dx^2, so the model diffusion entry is 2 a0."""
    return AffineModel.from_arrays(
        a0=[[2.0 * params.a0]],
        b0=[params.b0],
        b_slope=[[params.b1]],
        dimension=1,
    )


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


def heston_cf(params: HestonParams, x: float, v: float, u: float,
              t: float) -> complex:
    """exp(phi + psi01 v + iux) with the branch-stabilized ('trap') form.

    Mathematically identical to the textbook form with
    g = (b21 - rho s iu + d)/(b21 - rho s iu - d); the stabilized variant
    uses G = 1/g and exp(-dt), keeping |G exp(-dt)| bounded so the complex
    log never crosses a branch cut along t.
    """
    if u == 0.0:
        return 1.0 + 0.0j
    iu = 1j * u
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
