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

import cmath
import json
import math
import numbers
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .multiindex import flattened_indices

NO_COMPENSATION = "none"
UNIT_BALL = "unit_ball"
_TRUNCATIONS = (NO_COMPENSATION, UNIT_BALL)

_SQRT2PI = math.sqrt(2.0 * math.pi)

# |psi| beyond which a Riccati trajectory or the semiflow's xi is taken to
# have blown up (MomentExplosionError).
BLOWUP_LIMIT = 1e8

# Relative rounding error of a summed value, a few ulps: no series tail
# estimate is below it, and the Riccati step halving stops once it reaches it.
ROUNDING_FLOOR = 4 * sys.float_info.epsilon


class MomentExplosionError(RuntimeError):
    """A trajectory of psi, the Riccati oracle's or the semiflow's xi, left
    the numerically representable region."""

    def __init__(self, t_blowup: float):
        super().__init__(f"psi left |psi| <= {BLOWUP_LIMIT:g} "
                         f"near t = {t_blowup:.6g}")
        self.t_blowup = t_blowup


def _norm_pdf(y: float) -> float:
    return math.exp(-0.5 * y * y) / _SQRT2PI


def _norm_cdf(y: float) -> float:
    return 0.5 * (1.0 + math.erf(y / math.sqrt(2.0)))


def _floats(name: str, block, ndim: int) -> tuple:
    """``block`` as nested tuples of Python floats (a Python float when
    ``ndim`` is 0); anything but a rectangular nested sequence (an ndarray
    too) of finite numbers with ``ndim`` axes is refused with a ValueError
    naming the block."""
    try:
        value = _nested(block, ndim)
    except (TypeError, ValueError):
        kind = "a number" if ndim == 0 else f"a {ndim}-d array of numbers"
        raise ValueError(f"{name} must be {kind}, got {block!r}") from None
    if not all(map(math.isfinite, _flat(value))):
        raise ValueError(f"{name} must be finite, got {block}")
    return value


def _nested(block, ndim: int):
    """``block`` as nested tuples of floats with ``ndim`` axes of equal
    lengths; TypeError or ValueError otherwise.  An empty sequence has one
    axis only, as an array built from it would."""
    if ndim == 0:
        return float(block)
    if isinstance(block, (str, bytes, Mapping)) or \
            not hasattr(block, "__getitem__"):
        raise TypeError(f"not a sequence: {block!r}")
    items = tuple(_nested(item, ndim - 1) for item in block)
    if not items and ndim > 1 or len(set(map(_shape, items))) > 1:
        raise ValueError("ragged")
    return items


def _flat(value) -> list:
    if not isinstance(value, tuple):
        return [value]
    return [v for item in value for v in _flat(item)]


def _shape(value) -> tuple:
    """The axis lengths of a rectangular nested tuple (() for a float)."""
    shape = ()
    while isinstance(value, tuple):
        shape += (len(value),)
        value = value[0] if value else None
    return shape


def _symmetric(a) -> bool:
    """Whether a square block passes numpy.allclose(a, a.T, atol=1e-12):
    |a_ij - a_ji| <= 1e-12 + 1e-5 |a_ji| at every (i, j)."""
    n = len(a)
    return all(abs(a[i][j] - a[j][i]) <= 1e-12 + 1e-5 * abs(a[j][i])
               for i in range(n) for j in range(n))


def _intensity(value) -> float:
    """A jump intensity as a Python float; anything but a finite number
    >= 0 is refused with a ValueError."""
    value = _floats("intensity", value, 0)
    if value < 0:
        raise ValueError("jump intensity must be >= 0")
    return value


# ---------------------------------------------------------------------------
# Jump specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoJumps:
    """Absent jump component (zero measure)."""

    def moments(self, keys, xi) -> list:
        return [0.0 + 0.0j for _ in keys]

    @property
    def total_mass(self) -> float:
        return 0.0

    def compensator(self, j: int) -> float:
        return 0.0


@dataclass(frozen=True)
class GaussianJumps:
    """Compound-Poisson component with N(mean, cov) jump sizes.

    ``moments`` returns J(eps, xi) = integral z^eps exp(xi.z) nu(dz), available
    in closed form: the exponential-tilting identity gives
    J(0, xi) = intensity * exp(xi.m + xi^T C xi / 2) and higher moments follow
    the Hermite-style recursion
    T_{eps+e_j} = (m_j + (C xi)_j) T_eps + sum_k eps_k C_{jk} T_{eps - e_k}.
    """

    intensity: float
    mean: tuple
    cov: tuple  # row tuples, symmetric psd

    def __post_init__(self):
        object.__setattr__(self, "intensity", _intensity(self.intensity))
        object.__setattr__(self, "mean", _floats("mean", self.mean, 1))
        object.__setattr__(self, "cov", _floats("cov", self.cov, 2))
        n = len(self.mean)
        if _shape(self.cov) != (n, n):
            raise ValueError(f"cov must be {n} x {n} to match mean, "
                             f"got shape {_shape(self.cov)}")
        if not _symmetric(self.cov):
            raise ValueError("jump covariance must be symmetric")

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def total_mass(self) -> float:
        return self.intensity

    def moments(self, keys, xi) -> list:
        """J(eps, xi) for every eps of ``keys`` from one Hermite recursion,
        each eps listed after the indices below it (graded and
        lexicographic orders both are); xi a sequence of complex scalars."""
        cov = self.cov
        c_xi = [sum(map(operator.mul, row, xi)) for row in cov]
        mgf = self.intensity * cmath.exp(
            sum(map(operator.mul, xi, self.mean))
            + 0.5 * sum(map(operator.mul, xi, c_xi)))
        drift = [m + v for m, v in zip(self.mean, c_xi)]  # exponent's gradient
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
        return [mgf * t[eps] for eps in keys]

    def compensator(self, j: int) -> float:
        """integral z_j 1_D(z) nu(dz) with D the coordinate box [-1,1]^d.

        Requires a diagonal covariance when d > 1 (the box integral only
        factorizes then); the univariate case is unrestricted.
        """
        m, c = self.mean, self.cov
        d = len(m)
        if d > 1 and any(abs(c[i][k]) > 1e-14 for i in range(d)
                         for k in range(d) if i != k):
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

        out = self.intensity * trunc_mean(m[j], c[j][j])
        for i in range(d):
            if i != j:
                out *= trunc_prob(m[i], c[i][i])
        return out


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson component with independent one-sided Exp(rate_i)
    jump sizes on the positive orthant."""

    intensity: float
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "intensity", _intensity(self.intensity))
        object.__setattr__(self, "rates", _floats("rates", self.rates, 1))
        if any(r <= 0 for r in self.rates):
            raise ValueError("exponential jump rates must be > 0")

    @property
    def dimension(self) -> int:
        return len(self.rates)

    @property
    def total_mass(self) -> float:
        return self.intensity

    def moments(self, keys, xi) -> list:
        for th, z in zip(self.rates, xi):
            if z.real >= th:
                raise ValueError(
                    f"exponential jump transform diverges: Re(xi)={z.real} >= rate {th}"
                )
        out = []
        for eps in keys:
            val = complex(self.intensity)
            for th, n, z in zip(self.rates, eps, xi):
                val *= th * math.factorial(n) / (th - z) ** (n + 1)
            out.append(val)
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
    exactly for |eps| <= max_order, at xi as a complex ndarray; no numerical
    differentiation of the callback is performed.  ``compensators`` gives
    integral z_j 1_D nu(dz) per coordinate when unit-ball compensation is
    used.
    """

    transform: object
    total_mass: float
    max_order: int
    compensators: tuple = ()

    def moments(self, keys, xi) -> list:
        for eps in keys:
            if sum(eps) > self.max_order:
                raise ValueError(
                    f"user jump transform declared up to order {self.max_order}, "
                    f"requested eps={tuple(eps)}"
                )
        import numpy as np  # the callback's documented argument type

        xi = np.asarray(xi, dtype=complex)
        return [complex(self.transform(tuple(eps), xi)) for eps in keys]

    def compensator(self, j: int) -> float:
        if not self.compensators:
            raise ValueError("user jump spec provides no compensator values")
        return float(self.compensators[j])


# ---------------------------------------------------------------------------
# Affine model
# ---------------------------------------------------------------------------


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
        # every block as nested tuples of Python floats, so that a model's
        # arithmetic does not depend on how it was built
        for name, shape in (("a0", (d, d)), ("a_slope", (d, d, d)),
                            ("b0", (d,)), ("b_slope", (d, d))):
            block = _floats(name, getattr(self, name), len(shape))
            if _shape(block) != shape:
                raise ValueError(f"{name} must have shape {shape} in "
                                 f"dimension {d}, got {block}")
            object.__setattr__(self, name, block)
        for a in (self.a0, *self.a_slope):
            if not _symmetric(a):
                raise ValueError("a0 and each a_slope block must be symmetric")
        try:
            domain = tuple((None if lo is None else float(lo),
                            None if hi is None else float(hi))
                           for lo, hi in self.state_domain)
        except (TypeError, ValueError):
            raise ValueError("state_domain must be a list of [lo, hi] pairs, "
                             f"got {self.state_domain!r}") from None
        object.__setattr__(self, "state_domain", domain)
        if len(self.jumps) != d + 1:
            raise ValueError("need d + 1 jump specs (nu_0 and nu_l)")
        for c, jump in enumerate(self.jumps):
            n = getattr(jump, "dimension", d)  # UserJump declares none
            if n != d:
                raise ValueError(f"jumps[{c}] has dimension {n}, but the "
                                 f"model has dimension {d}")
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
        """Build a model from array-likes, filling omitted blocks with zeros
        (:func:`model_from_json` builds here too)."""
        if dimension is None:
            if b0 is None and a0 is None:
                raise ValueError("cannot infer dimension")
            dimension = len(a0 if b0 is None else b0)
        try:
            d = operator.index(dimension)
        except TypeError:
            raise ValueError(
                f"dimension must be an integer, got {dimension!r}") from None
        zero = ((0.0,) * d,) * d
        return cls(d, zero if a0 is None else a0,
                   [zero] * d if a_slope is None else a_slope,
                   zero[0] if b0 is None else b0,
                   zero if b_slope is None else b_slope,
                   (NoJumps(),) * (d + 1) if jumps is None else tuple(jumps),
                   truncation, state_domain)

    def check_semielliptic(self, samples: int = 64, seed: int = 0) -> bool:
        """Sampled check that a(x) >= 0 on the state domain (corners plus
        random interior points; unbounded sides are clipped to +-10)."""
        import numpy as np  # a check for tests, off every evaluation path

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


def _jump_symbol(jump_part: tuple, d: int):
    """``(val, xi, moment=None) -> val + J(0, xi) - mass``, minus the
    unit-ball compensator sum_j xi_j comp_j when there is one: the jump part
    of one compiled component added to its polynomial part ``val``, at a
    sequence xi of Python complex scalars.  J(0, xi) is asked of the jump
    family unless the caller passes it in as ``moment``."""
    jump, mass, comp = jump_part
    order0 = ((0,) * d,)

    def add(val, xi, moment=None) -> complex:
        if moment is None:
            moment = jump.moments(order0, xi)[0]
        val += moment - mass
        if comp is not None:
            val -= sum(z * cj for z, cj in zip(xi, comp))
        return complex(val)

    return add


def _vector(name: str, v, dimension: int | None = None, kind=float) -> tuple:
    """``v``, a number or a sequence of numbers (an ndarray too), as a
    tuple of Python floats (of ``kind``); a complex entry where floats are
    wanted, a non-number and a length other than ``dimension`` (when one is
    given) are refused with a ValueError naming the vector."""
    try:
        items = (v,) if isinstance(v, str) else tuple(v)
    except TypeError:  # a number (a 0-d array too) is a 1-vector
        items = (v,)
    if kind is float and any(isinstance(z, numbers.Complex)
                             and not isinstance(z, numbers.Real)
                             for z in items):
        raise ValueError(f"{name} must be real, got {v!r}")
    try:
        items = tuple(map(kind, items))
    except TypeError:
        raise ValueError(f"{name} must be a vector of numbers, "
                         f"got {v!r}") from None
    if dimension is not None and len(items) != dimension:
        raise ValueError(f"{name} has length {len(items)}, but the model has "
                         f"dimension {dimension}")
    return items


def _checked_point(x, u, t: float, dimension: int):
    """x and u as float tuples of the model's dimension; a negative t, a
    non-finite t, x or u, a complex x or u and a vector of another length
    are refused with a ValueError."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError("t must be >= 0")
    x = _vector("x", x, dimension)
    u = _vector("u", u, dimension)
    if not all(map(math.isfinite, x + u)):
        raise ValueError(f"x and u must be finite, got x = {x}, u = {u}")
    return x, u


def eval_symbol(model: AffineModel, x, u) -> complex:
    """sigma(x, iu) for real frequency u: the order-0 entries of
    :func:`component_rows`, row 0 + sum_l x_l row l."""
    d = model.dimension
    u = _vector("u", u, d)
    x = _vector("x", x, d)
    _, rows = component_rows(model, [1j * v for v in u], 0)
    val = rows[0][0]
    for l in range(1, d + 1):
        val += x[l - 1] * rows[l][0]
    return val


def component_rows(model: AffineModel, xi, max_order: int) -> tuple:
    """The x = 0 derivative rows of the symbol at a complex vector xi:
    ``(pattern, rows)``, ``pattern`` the live eps in graded order and
    ``rows[c][p]`` = d^eps_xi sigma_c(xi) for eps = pattern[p], c = 0..d.
    Orders 0 to 2 come from the quadratic and linear parts plus the jump
    part (:func:`_jump_symbol` at order 0, the jump moments above), higher
    orders (to max_order) from the jump moments alone, each family's from
    one ``moments`` call over the whole pattern.  A jump-free component
    vanishes above order 2, so its row stops there, a prefix of the
    pattern."""
    d = model.dimension
    xs = [complex(z) for z in xi]
    comps = model._compiled
    jumps = any(jump_part is not None for _, _, jump_part in comps)
    low = flattened_indices(d, min(max_order, 2) + 1)
    pattern = flattened_indices(d, max_order + 1) if jumps else low
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    rows = []
    for quad, lin, jump_part in comps:
        # the polynomial part and its first and second derivatives
        value = 0.0 + 0.0j
        poly = {}
        for i, j, w in quad:
            value += w * xs[i] * xs[j]
            pair = tuple(p + q for p, q in zip(unit[i], unit[j]))
            poly[unit[i]] = poly.get(unit[i], 0.0) + w * xs[j]
            poly[unit[j]] = poly.get(unit[j], 0.0) + w * xs[i]
            poly[pair] = 2.0 * w if i == j else w
        for i, bi in lin:
            value += bi * xs[i]
            poly[unit[i]] = poly.get(unit[i], 0.0) + bi
        if jump_part is None:
            row = [complex(value)] + [complex(poly.get(eps, 0.0))
                                      for eps in low[1:]]
        else:
            jump, _, comp = jump_part
            moments = jump.moments(pattern, xs)
            row = [_jump_symbol(jump_part, d)(value, xs, moments[0])]
            for eps, moment in zip(pattern[1:], moments[1:]):
                val = poly.get(eps, 0.0) + moment
                if comp is not None and sum(eps) == 1:
                    val -= comp[eps.index(1)]
                row.append(complex(val))
        rows.append(row)
    return pattern, rows


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


def _jump_from_json(obj: dict, c: int):
    if not isinstance(obj, dict):
        raise ValueError(f"jumps[{c}] must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "none":
        return NoJumps()
    if kind == "gaussian":
        return GaussianJumps(obj["intensity"], obj["mean"], obj["cov"])
    if kind == "exponential":
        return ExponentialJumps(obj["intensity"], obj["rates"])
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
    if not isinstance(obj, dict):
        raise ValueError(f"model must be a JSON object, got a "
                         f"{type(obj).__name__}")
    if not isinstance(obj["jumps"], list):
        raise ValueError(f"jumps must be a list of jump specs, got "
                         f"{obj['jumps']!r}")
    return AffineModel.from_arrays(
        a0=obj["a0"], a_slope=obj["a_slope"], b0=obj["b0"],
        b_slope=obj["b_slope"],
        jumps=[_jump_from_json(j, c) for c, j in enumerate(obj["jumps"])],
        truncation=obj.get("truncation", NO_COMPENSATION),
        state_domain=obj.get("state_domain", ()),
        dimension=obj["dimension"])


def load_model(path) -> AffineModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: AffineModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
