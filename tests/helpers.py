"""Shared model builders, atom shortcuts and atom values for the test
suite."""
from __future__ import annotations

from fractions import Fraction

from affine_cf import (
    AffineModel,
    CIRParams,
    ExponentialJumps,
    GaussianJumps,
    HestonParams,
    NoJumps,
    VasicekParams,
    cir_model,
    heston_model,
    vasicek_model,
)
from affine_cf.multiindex import flattened_indices
from affine_cf.symalg import AtomKey, BASE, SLOPE, SymPoly, monomial
from affine_cf.symbols import UNIT_BALL, component_rows

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)

# Univariate atom shortcuts: derivatives of sigma and sigma_1.
S = AtomKey(BASE, 0, (0,))
S1D = AtomKey(BASE, 0, (1,))
S2D = AtomKey(BASE, 0, (2,))
SL = AtomKey(SLOPE, 1, (0,))
SL1D = AtomKey(SLOPE, 1, (1,))


def multivariate_d2(d: int = 2) -> SymPoly:
    """The displayed general-dimension d_2, built term by term."""
    zero = (0,) * d
    sig = AtomKey(BASE, 0, zero)
    out = SymPoly()
    out.add_term(monomial([(sig, 2)]), HALF)
    for l in range(1, d + 1):
        e = tuple(1 if i == l - 1 else 0 for i in range(d))
        out.add_term(
            monomial([(AtomKey(BASE, 0, e), 1), (AtomKey(SLOPE, l, zero), 1)]),
            HALF,
        )
    return out


def multivariate_d3(d: int = 2) -> SymPoly:
    """The displayed general-dimension d_3 with the direction indices summed."""
    from collections import Counter

    zero = (0,) * d
    unit = {l: tuple(1 if i == l - 1 else 0 for i in range(d))
            for l in range(1, d + 1)}
    sig = AtomKey(BASE, 0, zero)
    out = SymPoly()
    out.add_term(monomial([(sig, 3)]), SIXTH)
    for l in range(1, d + 1):
        out.add_term(
            monomial([(sig, 1), (AtomKey(BASE, 0, unit[l]), 1),
                      (AtomKey(SLOPE, l, zero), 1)]),
            HALF,
        )
    for l in range(1, d + 1):
        for m in range(1, d + 1):
            out.add_term(
                monomial([(AtomKey(BASE, 0, unit[l]), 1),
                          (AtomKey(SLOPE, l, unit[m]), 1),
                          (AtomKey(SLOPE, m, zero), 1)]),
                SIXTH,
            )
            eps = tuple(a + b for a, b in zip(unit[l], unit[m]))
            atoms = Counter([AtomKey(BASE, 0, eps),
                             AtomKey(SLOPE, l, zero),
                             AtomKey(SLOPE, m, zero)])
            out.add_term(monomial(atoms.items()), SIXTH)
    return out


def atom_values(model: AffineModel, x, xi, max_order: int) -> dict:
    """AtomKey -> complex map for SymPoly evaluation at the point (x, xi),
    read from ``symbols.component_rows``: the slope atoms of direction l are
    row l, the base atoms row 0 + sum_l x_l row l, for every eps up to
    ``max_order``, exact zeros where a row stops."""
    x = [float(v) for v in x]
    _, rows = component_rows(model, xi, max_order)
    vals = {}
    for p, eps in enumerate(flattened_indices(model.dimension, max_order + 1)):
        entries = [row[p] if p < len(row) else 0j for row in rows]
        total = entries[0]
        for xl, v in zip(x, entries[1:]):
            total += xl * v
        vals[AtomKey(BASE, 0, eps)] = total
        for l, v in enumerate(entries[1:], start=1):
            vals[AtomKey(SLOPE, l, eps)] = v
    return vals


def poly(*terms) -> SymPoly:
    """Build a SymPoly from (coefficient, [(atom, power), ...]) entries."""
    p = SymPoly()
    for coeff, pairs in terms:
        p.add_term(monomial(pairs), Fraction(coeff))
    return p


def bm_model(a0: float = 0.4, drift: float = 0.0) -> AffineModel:
    return AffineModel.from_arrays(a0=[[a0]], b0=[drift])


def gauss_jump_model(intensity: float = 0.5, mean: float = 0.1,
                     var: float = 0.04, a0: float = 0.0,
                     drift: float = 0.0) -> AffineModel:
    jump = GaussianJumps(intensity=intensity, mean=[mean], cov=[[var]])
    return AffineModel.from_arrays(a0=[[a0]], b0=[drift],
                                   jumps=(jump, NoJumps()))


VASICEK = VasicekParams(a0=0.02, b0=0.05, b1=-0.3)
CIR = CIRParams(b0=0.04, b1=-0.5, s=0.2)
HESTON = HestonParams(b00=0.0, b10=0.0, b11=0.0, b20=0.04, b21=1.5,
                      s=0.3, rho=-0.7)


def vasicek() -> AffineModel:
    return vasicek_model(VASICEK)


def cir() -> AffineModel:
    return cir_model(CIR)


def heston() -> AffineModel:
    return heston_model(HESTON)


def unit_ball_gaussian() -> AffineModel:
    """2-d, Gaussian jumps in the constant part and the first slope, under
    unit-ball truncation."""
    nu0 = GaussianJumps(intensity=0.4, mean=[0.2, -0.1],
                        cov=[[0.05, 0.0], [0.0, 0.02]])
    nu1 = GaussianJumps(intensity=0.3, mean=[0.1, 0.3],
                        cov=[[0.04, 0.0], [0.0, 0.01]])
    return AffineModel.from_arrays(
        a0=[[0.3, 0.1], [0.1, 0.2]],
        a_slope=[[[0.5, -0.2], [-0.2, 0.4]], [[0.0, 0.0], [0.0, 0.0]]],
        b0=[0.1, -0.2], b_slope=[[-0.4, 0.1], [0.0, -0.7]],
        jumps=(nu0, nu1, NoJumps()), truncation=UNIT_BALL)


def exponential_jumps() -> AffineModel:
    return AffineModel.from_arrays(
        a0=[[0.1]], a_slope=[[[0.2]]], b0=[0.05], b_slope=[[-0.4]],
        jumps=(ExponentialJumps(intensity=0.4, rates=[3.0]),
               ExponentialJumps(intensity=0.2, rates=[5.0])))
