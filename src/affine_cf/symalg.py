"""Exact sparse polynomial algebra over symbol atoms.

The series terms d_k of the characteristic-function expansion are
polynomials in formal atoms: derivatives of the base symbol (x-dependent)
and of the slope symbols (x-independent).  Two independent generators are
provided:

* :func:`d_series` runs the Leibniz recursion
  (k+1) d_{k+1} = sum_{|eps| <= k} (d^eps sigma) (1/eps!) d^eps_x d_k
  directly in the atom algebra;
* :func:`coefficient_recursion` builds the rational coefficients
  c_(alpha, beta) by the binomial-weighted tuple recursion.

Both use exact ``Fraction`` arithmetic; they must agree term for term
(:func:`cross_check`).  The counting triangle groups d_n monomials by
spatial order and reproduces the integer triangle with row sums R_n <= n!.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .multiindex import (
    MultiIndex,
    enumerate_indices,
    flattened_indices,
    flattened_position,
)

# Atom kinds.  BASE-like kinds depend on x affinely and differentiate to the
# matching SLOPE-like kind; SLOPE-like kinds are constant in x.
BASE = "base"
SLOPE = "slope"
DBASE = "dbase"  # difference-symbol derivative (generalized expansions)
DSLOPE = "dslope"
BASE0 = "base0"  # baseline-symbol derivative (generalized expansions)
SLOPE0 = "slope0"
TDRIFT = "tdrift"  # -d_t(phi0) - x . d_t(psi0) pseudo-atom
TDSLOPE = "tdslope"

_SLOPE_OF = {BASE: SLOPE, DBASE: DSLOPE, BASE0: SLOPE0, TDRIFT: TDSLOPE}
_BASE_KINDS = frozenset(_SLOPE_OF)


@dataclass(frozen=True, order=True)
class AtomKey:
    """One formal symbol atom: kind, slope direction l (0 for base kinds),
    and the xi-derivative multi-index."""

    kind: str
    l: int
    deriv: MultiIndex

    def dx(self, direction: int) -> "AtomKey | None":
        """Spatial derivative in x_direction; None if the atom is constant."""
        slope_kind = _SLOPE_OF.get(self.kind)
        if slope_kind is None:
            return None
        return AtomKey(slope_kind, direction, self.deriv)


def base_atom(eps: MultiIndex) -> AtomKey:
    return AtomKey(BASE, 0, tuple(eps))


Monomial = tuple  # sorted tuple of (AtomKey, positive int) pairs


def monomial(pairs) -> Monomial:
    return tuple(sorted((a, e) for a, e in pairs if e != 0))


def monomial_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def monomial_base_count(mono: Monomial) -> int:
    return sum(e for a, e in mono if a.kind in _BASE_KINDS)


def monomial_slope_count(mono: Monomial) -> int:
    return sum(e for a, e in mono if a.kind not in _BASE_KINDS)


def monomial_derived_base_count(mono: Monomial) -> int:
    return sum(
        e for a, e in mono if a.kind in _BASE_KINDS and sum(a.deriv) >= 1
    )


class SymPoly:
    """Sparse polynomial: monomial -> coefficient (Fraction or float).

    Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = dict(terms) if terms else {}

    @classmethod
    def constant(cls, c) -> "SymPoly":
        p = cls()
        if c != 0:
            p.terms[()] = c
        return p

    @classmethod
    def atom(cls, a: AtomKey, coeff=Fraction(1)) -> "SymPoly":
        return cls({((a, 1),): coeff})

    def copy(self) -> "SymPoly":
        return SymPoly(self.terms)

    def add_term(self, mono: Monomial, coeff) -> None:
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def add_into(self, other: "SymPoly", scale=1) -> None:
        for mono, c in other.terms.items():
            self.add_term(mono, c * scale)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        out = self.copy()
        out.add_into(other)
        return out

    def scaled(self, s) -> "SymPoly":
        if s == 0:
            return SymPoly()
        return SymPoly({m: c * s for m, c in self.terms.items()})

    def mul_atom(self, a: AtomKey) -> "SymPoly":
        """Multiply by a single atom."""
        out = SymPoly()
        for mono, c in self.terms.items():
            d = dict(mono)
            d[a] = d.get(a, 0) + 1
            out.terms[monomial(d.items())] = c
        return out

    def dx(self, direction: int) -> "SymPoly":
        """Spatial derivative: each base-like factor maps to its slope atom."""
        out = SymPoly()
        for mono, c in self.terms.items():
            for i, (a, e) in enumerate(mono):
                da = a.dx(direction)
                if da is None:
                    continue
                d = dict(mono)
                if e == 1:
                    del d[a]
                else:
                    d[a] = e - 1
                d[da] = d.get(da, 0) + 1
                out.add_term(monomial(d.items()), c * e)
        return out

    def substitute(self, assign) -> "SymPoly":
        """Replace atoms by exact constants per ``assign`` (AtomKey -> value);
        unmapped atoms stay symbolic."""
        out = SymPoly()
        for mono, c in self.terms.items():
            kept = []
            for a, e in mono:
                if a in assign:
                    c = c * assign[a] ** e
                    if c == 0:
                        break
                else:
                    kept.append((a, e))
            else:
                out.add_term(monomial(kept), c)
        return out

    def eval(self, values) -> complex:
        """Evaluate numerically with ``values`` mapping AtomKey -> complex."""
        total = 0j
        for mono, c in self.terms.items():
            prod = complex(c)
            for a, e in mono:
                prod *= values[a] ** e
            total += prod
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"SymPoly({len(self.terms)} terms)"


def apply_symbol_operator(poly: SymPoly, d: int, max_order: int) -> SymPoly:
    """The generator action in the atom algebra:

    L[p] = sum_{|eps| <= max_order} (d^eps_xi sigma) (1/eps!) d^eps_x p.

    Spatial derivatives are generated by repeated single derivatives; the
    eps = 0 term is sigma * p.
    """
    out = SymPoly()
    # dmap[eps] = (1/eps!)-unscaled d^eps_x poly, built order by order.
    dmap: dict[MultiIndex, SymPoly] = {(0,) * d: poly}
    for order in range(max_order + 1):
        next_map: dict[MultiIndex, SymPoly] = {}
        for eps in enumerate_indices(d, order).indices:
            dp = dmap.get(eps)
            if dp is None or not dp.terms:
                continue
            fact = 1
            for e in eps:
                fact *= factorial(e)
            out.add_into(dp.mul_atom(base_atom(eps)), Fraction(1, fact))
            if order < max_order:
                # extend along the first coordinate in which eps can grow,
                # avoiding duplicate paths: only differentiate in directions
                # <= first nonzero coordinate of eps.
                first_nz = next((i for i, e in enumerate(eps) if e > 0), d - 1)
                for direction in range(first_nz + 1):
                    nxt = list(eps)
                    nxt[direction] += 1
                    key = tuple(nxt)
                    if key not in next_map:
                        next_map[key] = dp.dx(direction + 1)
        dmap = next_map
    return out


_D_SERIES_CACHE: dict[int, list[SymPoly]] = {}
_D_SERIES_LOCK = threading.Lock()


def d_series(d: int, max_order: int) -> list[SymPoly]:
    """Series terms d_0 .. d_K in the atom algebra, exact rationals.

    d_0 = 1 and (k+1) d_{k+1} = L[d_k] with the operator of
    :func:`apply_symbol_operator`.  The shared cache is extended under a
    lock, so concurrent callers see the single-threaded series.
    """
    if d < 1 or max_order < 0:
        raise ValueError("need d >= 1 and max_order >= 0")
    with _D_SERIES_LOCK:
        cache = _D_SERIES_CACHE.setdefault(d, [SymPoly.constant(Fraction(1))])
        for k in range(len(cache) - 1, max_order):
            nxt = apply_symbol_operator(cache[k], d, k)
            cache.append(nxt.scaled(Fraction(1, k + 1)))
        return cache[: max_order + 1]


# ---------------------------------------------------------------------------
# Closed-form coefficient recursion on exponent tuples
# ---------------------------------------------------------------------------


def _distributions(caps: list[int], total: int):
    """All tuples lam with 0 <= lam[i] <= caps[i] and sum(lam) = total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(caps[0], total) + 1):
        for rest in _distributions(caps[1:], total - first):
            yield (first,) + rest


def _uni_next_row(row: dict, k: int) -> dict:
    """Univariate row k -> row k+1 of c_(alpha, beta)."""
    nxt: dict = {}
    inv = Fraction(1, k + 1)
    for (alpha, beta), c in row.items():
        alpha = alpha + (0,)
        beta = beta + (0,)
        positions = [i for i, a in enumerate(alpha) if a > 0]
        caps = [alpha[i] for i in positions]
        for j in range(k + 1):
            for lam in _distributions(caps, j):
                w = 1
                na = list(alpha)
                nb = list(beta)
                for pos, li in zip(positions, lam):
                    if li:
                        w *= comb(alpha[pos], li)
                        na[pos] -= li
                        nb[pos] += li
                na[j] += 1
                key = (tuple(na), tuple(nb))
                nxt[key] = nxt.get(key, Fraction(0)) + c * w * inv
    return {key: c for key, c in nxt.items() if c != 0}


def _multi_distributions(alpha_caps: list[int], eps: MultiIndex):
    """Distribute the multi-index eps over groups.

    Yields (list of per-group multi-indices lam_i); each group i receives
    |lam_i| <= alpha_caps[i] derivatives in total.
    """
    d = len(eps)
    if not alpha_caps:
        if all(e == 0 for e in eps):
            yield []
        return
    cap = alpha_caps[0]
    for lam0 in _group_choices(eps, cap):
        rem = tuple(e - g for e, g in zip(eps, lam0))
        for rest in _multi_distributions(alpha_caps[1:], rem):
            yield [lam0] + rest


def _group_choices(eps: MultiIndex, cap: int):
    """Multi-indices lam <= eps componentwise with |lam| <= cap."""
    d = len(eps)

    def rec(i, budget):
        if i == d:
            yield ()
            return
        for v in range(min(eps[i], budget) + 1):
            for rest in rec(i + 1, budget - v):
                yield (v,) + rest

    yield from rec(0, min(cap, sum(eps)))


def _multi_next_row(row: dict, k: int, d: int) -> dict:
    """Multivariate row k -> row k+1 (flattened enumeration layout)."""
    flat_next = flattened_indices(d, k + 1)
    n_next = len(flat_next)
    nxt: dict = {}
    inv = Fraction(1, k + 1)
    zero_d = (0,) * d
    for (alpha, beta), c in row.items():
        alpha = alpha + (0,) * (n_next - len(alpha))
        beta = beta + (zero_d,) * (n_next - len(beta))
        groups = [i for i, a in enumerate(alpha) if a > 0]
        caps = [alpha[i] for i in groups]
        for eps in flat_next:  # new base atom d^eps sigma, |eps| <= k
            for lams in _multi_distributions(caps, eps):
                w = Fraction(1)
                na = list(alpha)
                nb = list(beta)
                for gi, lam in zip(groups, lams):
                    m = sum(lam)
                    if m == 0:
                        continue
                    a = alpha[gi]
                    # falling factorial over lam!: a!/((a-m)! prod lam_l!)
                    w *= Fraction(factorial(a), factorial(a - m))
                    for li in lam:
                        if li > 1:
                            w /= factorial(li)
                    na[gi] -= m
                    nb[gi] = tuple(b + li for b, li in zip(nb[gi], lam))
                pj = flattened_position(d, eps)
                na[pj] += 1
                key = (tuple(na), tuple(nb))
                nxt[key] = nxt.get(key, Fraction(0)) + c * w * inv
    return {key: c for key, c in nxt.items() if c != 0}


def coefficient_recursion(d: int, max_order: int) -> dict[int, dict]:
    """Rows k = 1 .. max_order of the affine coefficient triangle.

    Univariate keys are (alpha, beta) plain tuples; multivariate keys are
    (alpha, beta) with alpha over the flattened enumeration and beta a tuple
    of d-tuples.  All values are exact Fractions; absent keys are zero.
    """
    if d < 1 or max_order < 1:
        raise ValueError("need d >= 1 and max_order >= 1")
    rows: dict[int, dict] = {}
    if d == 1:
        rows[1] = {((1,), (0,)): Fraction(1)}
        for k in range(1, max_order):
            rows[k + 1] = _uni_next_row(rows[k], k)
    else:
        zero_d = (0,) * d
        rows[1] = {((1,), (zero_d,)): Fraction(1)}
        for k in range(1, max_order):
            rows[k + 1] = _multi_next_row(rows[k], k, d)
    return rows


def monomial_to_pair(mono: Monomial, k: int, d: int) -> tuple:
    """Map a plain-series monomial to its exponent-pair key.

    Raises ValueError for atoms outside the base/slope vocabulary or with
    derivative order >= k (no pair image exists).
    """
    if d == 1:
        alpha = [0] * k
        beta = [0] * k
        for a, e in mono:
            j = a.deriv[0]
            if j >= k:
                raise ValueError(f"derivative order {j} has no slot at order {k}")
            if a.kind == BASE:
                alpha[j] += e
            elif a.kind == SLOPE:
                beta[j] += e
            else:
                raise ValueError(f"atom kind {a.kind!r} has no pair image")
        return (tuple(alpha), tuple(beta))
    flat = flattened_indices(d, k)
    alpha = [0] * len(flat)
    beta = [[0] * d for _ in flat]
    for a, e in mono:
        if sum(a.deriv) >= k:
            raise ValueError(f"derivative {a.deriv} has no slot at order {k}")
        pos = flattened_position(d, a.deriv)
        if a.kind == BASE:
            alpha[pos] += e
        elif a.kind == SLOPE:
            beta[pos][a.l - 1] += e
        else:
            raise ValueError(f"atom kind {a.kind!r} has no pair image")
    return (tuple(alpha), tuple(tuple(row) for row in beta))


@dataclass
class CrossCheckReport:
    ok: bool
    order: int
    mismatches: list = field(default_factory=list)


def cross_check(d_polys: list[SymPoly], coeff_rows: dict[int, dict], k: int,
                d: int = 1) -> CrossCheckReport:
    """Compare d_k (atom algebra) against row k of the coefficient recursion.

    Exact comparison, no tolerance.  Mismatches list (key, from_d, from_c).
    """
    if k >= len(d_polys) or k not in coeff_rows:
        raise ValueError(f"both inputs must be computed to order {k}")
    from_d: dict = {}
    for mono, c in d_polys[k].terms.items():
        key = monomial_to_pair(mono, k, d)
        from_d[key] = from_d.get(key, Fraction(0)) + c
    row = coeff_rows[k]
    mismatches = []
    for key in set(from_d) | set(row):
        a = from_d.get(key, Fraction(0))
        b = row.get(key, Fraction(0))
        if a != b:
            mismatches.append((key, a, b))
    return CrossCheckReport(ok=not mismatches, order=k, mismatches=mismatches)


# ---------------------------------------------------------------------------
# Counting triangle
# ---------------------------------------------------------------------------


@dataclass
class CountingTriangle:
    """Integer triangle: rows[n-1] lists the term counts of time order n by
    spatial order k = n down to 1."""

    rows: list[list[int]]

    @property
    def row_sums(self) -> list[int]:
        return [sum(r) for r in self.rows]


def counting_triangle(max_row: int) -> CountingTriangle:
    """Count univariate series terms by spatial order.

    The entry for time order n and spatial order k is n! times the summed
    coefficients of d_n monomials with k base-symbol factors; every base
    factor counts as spatial order 1, slope factors as 0.  Entries are
    integers by construction of the recursion.
    """
    if max_row < 1:
        raise ValueError("need max_row >= 1")
    polys = d_series(1, max_row)
    rows = []
    for n in range(1, max_row + 1):
        buckets: dict[int, Fraction] = {}
        for mono, c in polys[n].terms.items():
            k = monomial_base_count(mono)
            buckets[k] = buckets.get(k, Fraction(0)) + c * factorial(n)
        row = []
        for k in range(n, 0, -1):
            v = buckets.get(k, Fraction(0))
            if v.denominator != 1:
                raise ArithmeticError(f"non-integer triangle entry at ({n},{k})")
            row.append(int(v))
        rows.append(row)
    return CountingTriangle(rows)


def literal_counting_rows(max_row: int) -> list[list[int]]:
    """The printed counting recursion taken literally.

    Pi(n, n) = 1 and Pi(n, n-k) = sum_l C(n-1-l, k-l) Pi(n-1, k-1-l), with
    undefined entries (second index < 1 or > first) read as 0.  Known to
    disagree with the grouped triangle from row 2 on; kept for comparison.
    """
    table: dict[tuple[int, int], int] = {}

    def pi(n, k):
        if k == n:
            return 1
        if k < 1 or k > n:
            return 0
        if (n, k) in table:
            return table[(n, k)]
        kk = n - k
        v = sum(
            comb(n - 1 - l, kk - l) * pi(n - 1, kk - 1 - l)
            for l in range(kk + 1)
            if n - 1 - l >= kk - l >= 0
        )
        table[(n, k)] = v
        return v

    return [[pi(n, k) for k in range(n, 0, -1)] for n in range(1, max_row + 1)]


@dataclass
class CountingComparison:
    rows_grouped: list[list[int]]
    rows_literal: list[list[int]]
    mismatched_rows: list[int]


def compare_counting(max_row: int) -> CountingComparison:
    """Grouped triangle vs literal recursion; discrepancies are reported."""
    grouped = counting_triangle(max_row).rows
    literal = literal_counting_rows(max_row)
    bad = [n + 1 for n, (a, b) in enumerate(zip(grouped, literal)) if a != b]
    return CountingComparison(grouped, literal, bad)


def cardinality_bound(k: int) -> tuple[int, int]:
    """(number of counted terms at order k, bound k!)."""
    if k < 1:
        raise ValueError("need k >= 1")
    tri = counting_triangle(k)
    return tri.row_sums[k - 1], factorial(k)


def lambda_sum_cardinality(j: int, k: int) -> int:
    """Number of k-slot tuples of nonnegative integers summing to j."""
    if not 0 <= j:
        raise ValueError("need j >= 0")
    if k < 1:
        raise ValueError("need k >= 1")
    return comb(j + k - 1, k - 1)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def coefficients_to_jsonable(rows: dict[int, dict]) -> dict:
    out = {}
    for k, row in sorted(rows.items()):
        entries = []
        for (alpha, beta), c in sorted(row.items()):
            entries.append(
                {"alpha": alpha, "beta": beta,
                 "num": c.numerator, "den": c.denominator}
            )
        out[str(k)] = entries
    return out
