"""Affine models and numeric evaluation of their generator symbols.

The symbol of an affine generator is

    sigma(x, xi) = 1/2 xi^T a(x) xi + b(x) . xi
                   + integral( exp(xi.z) - 1 - xi.z 1_D(z), nu(x, dz) )

with a(x) = a0 + sum_l x_l aSlope_l, b(x) = b0 + B x and
nu(x, .) = nu_0 + sum_l x_l nu_l, evaluated on the imaginary axis xi = iu.

Derivative convention: all derivatives are taken in the complex symbol
variable xi itself, so d/dxi exp(xi.z) = z exp(xi.z) and the quadratic part
differentiates as an ordinary polynomial in xi.  This is the convention under
which the series recursion d_{k+1} = sum_eps d^eps_xi sigma (1/eps!) d^eps_x d_k
holds without stray factors of i.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .multiindex import MultiIndex, flattened_indices
from .symalg import BASE, SLOPE, AtomKey

NO_COMPENSATION = "none"
UNIT_BALL = "unit_ball"
_TRUNCATIONS = (NO_COMPENSATION, UNIT_BALL)

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(y: float) -> float:
    return math.exp(-0.5 * y * y) / _SQRT2PI


def _norm_cdf(y: float) -> float:
    return 0.5 * (1.0 + math.erf(y / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Jump specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoJumps:
    """Absent jump component (zero measure)."""

    def moment(self, eps: MultiIndex, xi: np.ndarray) -> complex:
        return 0.0 + 0.0j

    @property
    def total_mass(self) -> float:
        return 0.0

    def compensator(self, j: int) -> float:
        return 0.0

    max_order = None  # unlimited


@dataclass(frozen=True)
class GaussianJumps:
    """Compound-Poisson component with N(mean, cov) jump sizes.

    ``moment`` returns J(eps, xi) = integral z^eps exp(xi.z) nu(dz), available
    in closed form: the exponential-tilting identity gives
    J(0, xi) = intensity * exp(xi.m + xi^T C xi / 2) and higher moments follow
    the Hermite-style recursion
    T_{eps+e_j} = (m_j + (C xi)_j) T_eps + sum_k eps_k C_{jk} T_{eps - e_k}.
    ``moments`` runs that recursion once for a whole list of indices.
    """

    intensity: float
    mean: tuple
    cov: tuple  # row tuples, symmetric psd

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("jump intensity must be >= 0")
        c = np.asarray(self.cov, dtype=float)
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("jump covariance must be symmetric")
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "cov", tuple(map(tuple, c.tolist())))
        # the arrays the mgf reads, built once (not dataclass fields)
        object.__setattr__(self, "_m", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "_c", c)

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def total_mass(self) -> float:
        return self.intensity

    max_order = None  # all moments finite

    def _mgf(self, xi: np.ndarray):
        return self.intensity * np.exp(xi @ self._m + 0.5 * xi @ self._c @ xi)

    def _hermite(self, keys, xi: np.ndarray) -> dict:
        """T_eps for every eps of ``keys``, each listed after the indices
        below it (graded and lexicographic orders both are)."""
        drift = (self._m + self._c @ xi).tolist()  # gradient of the exponent
        cov = self.cov
        t = {(0,) * len(drift): 1.0 + 0.0j}
        for e in keys:
            j = next((i for i, v in enumerate(e) if v > 0), None)
            if j is None:
                continue
            e_minus = e[:j] + (e[j] - 1,) + e[j + 1:]
            val = drift[j] * t[e_minus]
            for k, ek in enumerate(e_minus):
                if ek > 0:
                    val += ek * cov[j][k] * t[e_minus[:k] + (ek - 1,)
                                               + e_minus[k + 1:]]
            t[e] = val
        return t

    def moment(self, eps: MultiIndex, xi: np.ndarray) -> complex:
        mgf = self._mgf(xi)
        if not any(eps):  # the symbol itself: no tilted moments needed
            return mgf
        eps = tuple(eps)
        box = itertools.product(*(range(e + 1) for e in eps))
        return mgf * self._hermite(box, xi)[eps]

    def moments(self, keys, xi: np.ndarray) -> list:
        """J(eps, xi) for every eps of ``keys`` (graded order) from one
        Hermite recursion."""
        mgf = complex(self._mgf(xi))
        t = self._hermite(keys, xi)
        return [mgf * t[eps] for eps in keys]

    def compensator(self, j: int) -> float:
        """integral z_j 1_D(z) nu(dz) with D the coordinate box [-1,1]^d.

        Requires a diagonal covariance when d > 1 (the box integral only
        factorizes then); the univariate case is unrestricted.
        """
        m, c = self._m, self._c
        d = len(m)
        if d > 1 and not np.allclose(c, np.diag(np.diag(c)), atol=1e-14):
            raise ValueError(
                "unit-ball compensation for multivariate Gaussian jumps "
                "requires a diagonal covariance"
            )

        def trunc_mean(mu: float, var: float) -> float:
            if var <= 0:
                return mu if abs(mu) <= 1.0 else 0.0
            s = math.sqrt(var)
            ya, yb = (-1.0 - mu) / s, (1.0 - mu) / s
            return mu * (_norm_cdf(yb) - _norm_cdf(ya)) + s * (
                _norm_pdf(ya) - _norm_pdf(yb)
            )

        def trunc_prob(mu: float, var: float) -> float:
            if var <= 0:
                return 1.0 if abs(mu) <= 1.0 else 0.0
            s = math.sqrt(var)
            return _norm_cdf((1.0 - mu) / s) - _norm_cdf((-1.0 - mu) / s)

        out = self.intensity * trunc_mean(m[j], c[j, j])
        for i in range(d):
            if i != j:
                out *= trunc_prob(m[i], c[i, i])
        return out


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson component with independent one-sided Exp(rate_i)
    jump sizes on the positive orthant."""

    intensity: float
    rates: tuple

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("jump intensity must be >= 0")
        if any(r <= 0 for r in self.rates):
            raise ValueError("exponential jump rates must be > 0")
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @property
    def dimension(self) -> int:
        return len(self.rates)

    @property
    def total_mass(self) -> float:
        return self.intensity

    max_order = None

    def moment(self, eps: MultiIndex, xi: np.ndarray) -> complex:
        out = complex(self.intensity)
        for th, n, z in zip(self.rates, eps, xi):
            if z.real >= th:
                raise ValueError(
                    f"exponential jump transform diverges: Re(xi)={z.real} >= rate {th}"
                )
            out *= th * math.factorial(n) / (th - z) ** (n + 1)
        return out

    def compensator(self, j: int) -> float:
        out = self.intensity
        for i, th in enumerate(self.rates):
            if i == j:
                out *= (1.0 - math.exp(-th) * (1.0 + th)) / th
            else:
                out *= 1.0 - math.exp(-th)
        return out


@dataclass(frozen=True)
class UserJump:
    """User-supplied jump transform.

    ``transform(eps, xi)`` must return integral z^eps exp(xi.z) nu(dz)
    exactly for |eps| <= max_order; no numerical differentiation of the
    callback is performed.  ``compensators`` gives integral z_j 1_D nu(dz)
    per coordinate when unit-ball compensation is used.
    """

    transform: object
    total_mass: float
    max_order: int
    compensators: tuple = ()

    def moment(self, eps: MultiIndex, xi: np.ndarray) -> complex:
        if sum(eps) > self.max_order:
            raise ValueError(
                f"user jump transform declared up to order {self.max_order}, "
                f"requested eps={tuple(eps)}"
            )
        return complex(self.transform(tuple(eps), xi))

    def compensator(self, j: int) -> float:
        if not self.compensators:
            raise ValueError("user jump spec provides no compensator values")
        return float(self.compensators[j])


# ---------------------------------------------------------------------------
# Affine model
# ---------------------------------------------------------------------------


def _zeros(d: int) -> tuple:
    return tuple(0.0 for _ in range(d))


def _zero_mat(d: int) -> tuple:
    return tuple(tuple(0.0 for _ in range(d)) for _ in range(d))


@dataclass(frozen=True)
class AffineModel:
    """Coefficient data of an affine generator.

    a(x) = a0 + sum_l x_l a_slope[l-1]   (d x d, symmetric psd on the domain)
    b(x) = b0 + b_slope @ x              (b_slope[i][l] multiplies x_l)
    nu(x,.) = jumps[0] + sum_l x_l jumps[l]
    """

    dimension: int
    a0: tuple
    a_slope: tuple
    b0: tuple
    b_slope: tuple
    jumps: tuple
    truncation: str = NO_COMPENSATION
    state_domain: tuple = ()  # ((lo, hi), ...) with None for unbounded sides

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be >= 1")
        a0 = np.asarray(self.a0, dtype=float)
        if a0.shape != (d, d) or not np.allclose(a0, a0.T, atol=1e-12):
            raise ValueError("a0 must be a symmetric d x d matrix")
        if len(self.a_slope) != d or len(self.b_slope) != d:
            raise ValueError("need one slope block per coordinate")
        for mat in self.a_slope:
            m = np.asarray(mat, dtype=float)
            if m.shape != (d, d) or not np.allclose(m, m.T, atol=1e-12):
                raise ValueError("each a_slope block must be symmetric d x d")
        if len(self.b0) != d:
            raise ValueError("b0 must have length d")
        if len(self.jumps) != d + 1:
            raise ValueError("need d + 1 jump specs (nu_0 and nu_l)")
        if self.truncation not in _TRUNCATIONS:
            raise ValueError(f"unknown truncation convention {self.truncation!r}")
        if self.state_domain and len(self.state_domain) != d:
            raise ValueError("state_domain must have one interval per coordinate")

    @cached_property
    def _compiled(self) -> tuple:
        """The compiled symbol (:func:`_compile`), built on first use and
        kept on this immutable model."""
        return _compile(self)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def from_arrays(cls, a0=None, a_slope=None, b0=None, b_slope=None,
                    jumps=None, truncation=NO_COMPENSATION, state_domain=(),
                    dimension=None):
        """Build a model from array-likes, filling omitted blocks with zeros."""
        if dimension is None:
            for probe in (b0, a0):
                if probe is not None:
                    dimension = len(probe)
                    break
            else:
                raise ValueError("cannot infer dimension")
        d = dimension
        a0 = _zero_mat(d) if a0 is None else tuple(map(tuple, np.asarray(a0, float)))
        b0 = _zeros(d) if b0 is None else tuple(float(v) for v in b0)
        if a_slope is None:
            a_slope = tuple(_zero_mat(d) for _ in range(d))
        else:
            a_slope = tuple(tuple(map(tuple, np.asarray(m, float))) for m in a_slope)
        if b_slope is None:
            b_slope = _zero_mat(d)
        else:
            b_slope = tuple(map(tuple, np.asarray(b_slope, float)))
        if jumps is None:
            jumps = tuple(NoJumps() for _ in range(d + 1))
        else:
            jumps = tuple(jumps)
        return cls(d, a0, a_slope, b0, b_slope, jumps, truncation,
                   tuple(map(tuple, state_domain)) if state_domain else ())

    def check_semielliptic(self, samples: int = 64, seed: int = 0) -> bool:
        """Sampled check that a(x) >= 0 on the state domain (corners plus
        random interior points; unbounded sides are clipped to +-10)."""
        d = self.dimension
        box = self.state_domain or tuple((-10.0, 10.0) for _ in range(d))
        lo = np.array([(-10.0 if b[0] is None else b[0]) for b in box])
        hi = np.array([(10.0 if b[1] is None else b[1]) for b in box])
        a0 = np.asarray(self.a0, float)
        slopes = [np.asarray(m, float) for m in self.a_slope]
        pts = []
        if d <= 12:
            for mask in range(2 ** d):
                pts.append(np.where(
                    [(mask >> i) & 1 for i in range(d)], hi, lo))
        rng = np.random.default_rng(seed)
        pts.extend(lo + rng.random((samples, d)) * (hi - lo))
        for x in pts:
            a = a0 + sum(xl * m for xl, m in zip(x, slopes))
            if np.linalg.eigvalsh(a).min() < -1e-10:
                return False
        return True


# ---------------------------------------------------------------------------
# Symbol evaluation
# ---------------------------------------------------------------------------


def _compile(model: AffineModel) -> tuple:
    """The symbol components sigma_0 .. sigma_d, compiled once per model
    (``AffineModel._compiled``) from its blocks: the only form of the symbol
    that evaluation reads.

    Component c (0 = constant part, l >= 1 = slope in direction l) is
    ``(quad, lin, jump_part)``: its quadratic part as (i, j, weight) with
    i <= j (a_ii / 2 on the diagonal, the symmetrized a_ij off it), its
    linear part as (i, b_i), and ``(jump, total_mass, compensators)`` or
    None when it has no jumps; the compensators are computed here once
    under unit-ball truncation and are None otherwise."""
    d = model.dimension
    comps = []
    for c in range(d + 1):
        if c == 0:
            a, b = model.a0, model.b0
        else:
            a, b = model.a_slope[c - 1], [row[c - 1] for row in model.b_slope]
        quad = []
        for i in range(d):
            for j in range(i, d):
                w = 0.5 * a[i][i] if i == j else 0.5 * (a[i][j] + a[j][i])
                if w != 0.0:
                    quad.append((i, j, float(w)))
        lin = [(i, float(b[i])) for i in range(d) if b[i] != 0.0]
        jump = model.jumps[c]
        if isinstance(jump, NoJumps):
            jump_part = None
        else:
            comp = (tuple(jump.compensator(j) for j in range(d))
                    if model.truncation == UNIT_BALL else None)
            jump_part = (jump, jump.total_mass, comp)
        comps.append((tuple(quad), tuple(lin), jump_part))
    return tuple(comps)


def _order0(comps: tuple, d: int):
    """``sigma(xi) -> [sigma_0(xi), ..., sigma_d(xi)]`` in plain complex
    arithmetic over the compiled components; only components with jumps
    call ``jump.moment``."""
    zero = (0,) * d

    def sigma(xi) -> list:
        out = []
        for quad, lin, jump_part in comps:
            val = 0.0 + 0.0j
            for i, j, w in quad:
                val += w * xi[i] * xi[j]
            for i, bi in lin:
                val += bi * xi[i]
            if jump_part is not None:
                jump, mass, comp = jump_part
                val += jump.moment(zero, np.asarray(xi, dtype=complex)) - mass
                if comp is not None:
                    val -= sum(z * cj for z, cj in zip(xi, comp))
            out.append(complex(val))
        return out

    return sigma


def symbol_components(model: AffineModel):
    """The order-0 symbol components of :func:`_compile`'s compiled form:
    ``sigma(xi) -> [sigma_0(xi), ..., sigma_d(xi)]`` for a sequence xi of
    Python complex scalars."""
    return _order0(model._compiled, model.dimension)


def eval_symbol_xi(model: AffineModel, x, xi) -> complex:
    """sigma(x, xi) at a complex vector xi."""
    x = np.asarray(x, dtype=float)
    comps = symbol_components(model)([complex(z) for z in np.atleast_1d(xi)])
    val = comps[0]
    for l in range(1, model.dimension + 1):
        val += x[l - 1] * comps[l]
    return val


def eval_symbol(model: AffineModel, x, u) -> complex:
    """sigma(x, iu) for real frequency u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return eval_symbol_xi(model, np.atleast_1d(np.asarray(x, float)), 1j * u)


@dataclass
class SymbolTable:
    """Numeric derivative tables of the symbol at one (x, xi) point, at the
    live entries only.

    ``slope[l-1][eps]`` holds d^eps_xi sigma_l(xi) for every |eps| <= 2 and,
    when sigma_l has jumps, up to ``max_order``: above order 2 a jump-free
    component is exactly zero.  ``base[eps]`` holds d^eps_xi sigma(x, xi) on
    the union of those keys.
    """

    dimension: int
    max_order: int
    base: dict
    slope: list
    x: tuple = ()
    xi: tuple = ()

    def atom_values(self) -> dict:
        """AtomKey -> complex map consumed by SymPoly evaluation: every key
        up to ``max_order``, exact zeros where the table holds none."""
        keys = flattened_indices(self.dimension, self.max_order + 1)
        vals = {}
        for eps in keys:
            vals[AtomKey(BASE, 0, eps)] = self.base.get(eps, 0j)
        for l, tab in enumerate(self.slope, start=1):
            for eps in keys:
                vals[AtomKey(SLOPE, l, eps)] = tab.get(eps, 0j)
        return vals


def eval_symbol_table_xi(model: AffineModel, x, xi, max_order: int) -> SymbolTable:
    """Derivative tables d^eps_xi sigma(x, xi), d^eps_xi sigma_l(xi) at a
    complex vector xi, read from the compiled components: orders 1 and 2
    from the quadratic and linear parts plus the jump moments, higher orders
    (to max_order) from the jump moments alone, and only for the components
    with jumps; the moments of a Gaussian family come from one recursion."""
    d = model.dimension
    x = [float(v) for v in np.atleast_1d(np.asarray(x, dtype=float))]
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    for jump in model.jumps:
        cap = getattr(jump, "max_order", None)
        if cap is not None and max_order > cap:
            raise ValueError(
                f"symbol table to order {max_order} exceeds the jump spec's "
                f"declared derivative order {cap}"
            )
    comps = model._compiled
    xs = [complex(z) for z in xi]
    jumps = any(jump_part is not None for _, _, jump_part in comps)
    low = flattened_indices(d, min(max_order, 2) + 1)
    # only a component with jumps has entries above order 2
    full = flattened_indices(d, max_order + 1) if jumps else low
    zero = (0,) * d
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    tabs = []
    for (quad, lin, jump_part), value in zip(comps, _order0(comps, d)(xs)):
        # first and second derivatives of the polynomial part
        poly = {}
        for i, j, w in quad:
            pair = tuple(p + q for p, q in zip(unit[i], unit[j]))
            poly[unit[i]] = poly.get(unit[i], 0.0) + w * xs[j]
            poly[unit[j]] = poly.get(unit[j], 0.0) + w * xs[i]
            poly[pair] = 2.0 * w if i == j else w
        for i, bi in lin:
            poly[unit[i]] = poly.get(unit[i], 0.0) + bi
        tab = {zero: value}
        if jump_part is None:
            for eps in low[1:]:
                tab[eps] = complex(poly.get(eps, 0.0))
        else:
            jump, _, comp = jump_part
            keys = full[1:]
            if isinstance(jump, GaussianJumps):
                moments = jump.moments(keys, xi)
            else:
                moments = [jump.moment(eps, xi) for eps in keys]
            for eps, moment in zip(keys, moments):
                val = poly.get(eps, 0.0) + moment
                if comp is not None and sum(eps) == 1:
                    val -= comp[eps.index(1)]
                tab[eps] = complex(val)
        tabs.append(tab)
    base_tab = {}
    for eps in full:
        total = tabs[0].get(eps, 0j)
        for l in range(d):
            total += x[l] * tabs[l + 1].get(eps, 0j)
        base_tab[eps] = total
    return SymbolTable(d, max_order, base_tab, tabs[1:], tuple(x), tuple(xi))


def eval_symbol_table(model: AffineModel, x, u, max_order: int) -> SymbolTable:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return eval_symbol_table_xi(model, x, 1j * u, max_order)


# ---------------------------------------------------------------------------
# JSON model format
# ---------------------------------------------------------------------------


def _jump_to_json(jump) -> dict:
    if isinstance(jump, NoJumps):
        return {"type": "none"}
    if isinstance(jump, GaussianJumps):
        return {"type": "gaussian", "intensity": jump.intensity,
                "mean": list(jump.mean), "cov": [list(r) for r in jump.cov]}
    if isinstance(jump, ExponentialJumps):
        return {"type": "exponential", "intensity": jump.intensity,
                "rates": list(jump.rates)}
    raise ValueError(
        f"jump spec {type(jump).__name__} is not JSON-serializable "
        "(user transforms do not round-trip)"
    )


def _jump_from_json(obj: dict):
    kind = obj.get("type")
    if kind == "none":
        return NoJumps()
    if kind == "gaussian":
        return GaussianJumps(float(obj["intensity"]),
                             tuple(float(v) for v in obj["mean"]),
                             tuple(tuple(float(v) for v in r) for r in obj["cov"]))
    if kind == "exponential":
        return ExponentialJumps(float(obj["intensity"]),
                                tuple(float(v) for v in obj["rates"]))
    raise ValueError(f"unknown jump spec type {kind!r}")


def model_to_json(model: AffineModel) -> dict:
    return {
        "dimension": model.dimension,
        "a0": [list(r) for r in model.a0],
        "a_slope": [[list(r) for r in m] for m in model.a_slope],
        "b0": list(model.b0),
        "b_slope": [list(r) for r in model.b_slope],
        "jumps": [_jump_to_json(j) for j in model.jumps],
        "truncation": model.truncation,
        "state_domain": [list(iv) for iv in model.state_domain],
    }


def model_from_json(obj: dict) -> AffineModel:
    d = int(obj["dimension"])
    domain = tuple(
        (None if iv[0] is None else float(iv[0]),
         None if iv[1] is None else float(iv[1]))
        for iv in obj.get("state_domain", [])
    )
    return AffineModel(
        dimension=d,
        a0=tuple(tuple(float(v) for v in r) for r in obj["a0"]),
        a_slope=tuple(tuple(tuple(float(v) for v in r) for r in m)
                      for m in obj["a_slope"]),
        b0=tuple(float(v) for v in obj["b0"]),
        b_slope=tuple(tuple(float(v) for v in r) for r in obj["b_slope"]),
        jumps=tuple(_jump_from_json(j) for j in obj["jumps"]),
        truncation=obj.get("truncation", NO_COMPENSATION),
        state_domain=domain,
    )


def load_model(path) -> AffineModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: AffineModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
