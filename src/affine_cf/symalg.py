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

Both are integer recursions.  Over the Taylor-normalized atoms
d^eps sigma / eps! and d^eps sigma_l / eps!, N_k = k! d_k has integer
coefficients and N_{k+1} = sum_eps (d^eps sigma / eps!) d^eps_x N_k; the
coefficient recursion carries k! c_(alpha, beta) with integer weights, each
(alpha, beta) packed into one int.  ``Fraction`` appears only at the
boundary: each order is divided once into ``SymPoly`` terms over ``AtomKey``
atoms and ``{(alpha, beta): Fraction}`` rows, which must agree term for
term (:func:`cross_check`).  The counting triangle groups the monomials of
N_n by spatial order and reproduces the integer triangle with row sums
R_n <= n!, without building d_n.  :func:`difference_series` runs the same
integer recursion for a generalized expansion around a baseline.
"""
from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, prod

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
DBASE = "dbase"  # eps = 0 atoms of a generalized expansion: Delta sigma
DSLOPE = "dslope"  # and Delta sigma_l

_BASE_KINDS = frozenset((BASE, DBASE))


@dataclass(frozen=True, order=True)
class AtomKey:
    """One formal symbol atom: kind, slope direction l (0 for base kinds),
    and the xi-derivative multi-index."""

    kind: str
    l: int
    deriv: MultiIndex


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

    Zero coefficients are never stored.  :func:`apply_symbol_operator`
    also uses it for int-coded monomials with integer coefficients.
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

    def copy(self) -> "SymPoly":
        return SymPoly(self.terms)

    def add_term(self, mono: Monomial, coeff) -> None:
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

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


# The integer engine codes an atom as
#   l * _RADIX**d + sum_i eps_i * _RADIX**(d-1-i),
# l = 0 for the base atom d^eps sigma / eps!, l >= 1 for the slope atom
# d^eps sigma_l / eps!.  For eps_i < _RADIX the integer order is AtomKey
# order (kind, l, deriv), and d/dx_l maps a base code c to c + l * _RADIX**d.
# A monomial is the sorted tuple of its atom codes, one entry per factor.
_RADIX = 1 << 8


def _code(l: int, eps: MultiIndex) -> int:
    for e in eps:
        l = l * _RADIX + e
    return l


def _insert(mono: tuple, code: int, lo: int = 0) -> tuple:
    at = bisect_right(mono, code, lo)
    return mono[:at] + (code,) + mono[at:]


def _dx_codes(terms: dict, d: int, direction: int) -> dict:
    """d/dx_direction of an int-coded polynomial: each base factor, taken
    with its multiplicity, turns into its slope atom."""
    slope = _RADIX ** d
    shift = direction * slope
    out: dict = {}
    for mono, c in terms.items():
        i = 0
        for a, run in groupby(mono):
            if a >= slope:
                break
            e = len(list(run))
            m = _insert(mono[:i] + mono[i + 1:], a + shift, i)
            out[m] = out.get(m, 0) + c * e
            i += e
    return out


def apply_symbol_operator(poly: SymPoly, d: int, max_order: int) -> SymPoly:
    """One step of the integer recursion N_{k+1} = L[N_k], N_k = k! d_k:

    L[p] = sum_{|eps| <= max_order} (d^eps_xi sigma / eps!) d^eps_x p.

    ``poly`` and the result hold int-coded monomials with integer
    coefficients, over Taylor-normalized atoms, so no division occurs.
    Spatial derivatives are generated by repeated single derivatives; the
    eps = 0 term is sigma * p.
    """
    out: dict = {}
    # dmap[eps] = d^eps_x poly, built order by order.
    dmap: dict[MultiIndex, dict] = {(0,) * d: poly.terms}
    for order in range(max_order + 1):
        next_map: dict[MultiIndex, dict] = {}
        for eps in enumerate_indices(d, order):
            dp = dmap.get(eps)
            if not dp:
                continue
            code = _code(0, eps)
            for mono, c in dp.items():
                m = _insert(mono, code)
                out[m] = out.get(m, 0) + c
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
                        next_map[key] = _dx_codes(dp, d, direction + 1)
        dmap = next_map
    result = SymPoly()
    result.terms = out
    return result


def _decode(code: int, d: int,
            zeroth: tuple = (BASE, SLOPE)) -> tuple[AtomKey, int]:
    """(AtomKey, eps!) of an atom code.  The eps = 0 atoms take the
    (base, slope) kinds ``zeroth``."""
    l, rest = divmod(code, _RADIX ** d)
    eps = tuple(rest // _RADIX ** (d - 1 - i) % _RADIX for i in range(d))
    base, slope = zeroth if rest == 0 else (BASE, SLOPE)
    return AtomKey(slope if l else base, l, eps), prod(map(factorial, eps))


def _to_sympoly(n_k: SymPoly, k: int, d: int,
                zeroth: tuple = (BASE, SLOPE)) -> SymPoly:
    """d_k over AtomKey atoms from N_k = k! d_k over normalized atoms:
    divide each coefficient by k! prod eps!^e."""
    atoms: dict[int, tuple[AtomKey, int]] = {}
    kf = factorial(k)
    out = SymPoly()
    for mono, c in n_k.terms.items():
        key = []
        den = kf
        for a, run in groupby(mono):
            e = len(list(run))
            atom = atoms.get(a)
            if atom is None:
                atom = atoms[a] = _decode(a, d, zeroth)
            key.append((atom[0], e))
            den *= atom[1] ** e
        out.terms[tuple(key)] = Fraction(c, den)
    return out


_D_SERIES_CACHE: dict[int, list[SymPoly]] = {}
_D_SERIES_LOCK = threading.Lock()
# (K, N_K) behind the last cached order of each dimension.
_N_LAST: dict[int, tuple[int, SymPoly]] = {}


def d_series(d: int, max_order: int) -> list[SymPoly]:
    """Series terms d_0 .. d_K in the atom algebra, exact rationals.

    d_0 = 1 and (k+1) d_{k+1} = L[d_k]; the integer form N_k = k! d_k of
    :func:`apply_symbol_operator` is run and each order is converted once.
    The shared cache is extended under a lock, so concurrent callers see
    the single-threaded series.
    """
    if d < 1 or max_order < 0:
        raise ValueError("need d >= 1 and max_order >= 0")
    if max_order >= _RADIX:
        raise ValueError(f"max_order must be below {_RADIX}")
    with _D_SERIES_LOCK:
        cache = _D_SERIES_CACHE.setdefault(d, [SymPoly.constant(Fraction(1))])
        if max_order >= len(cache):
            last = _N_LAST.get(d)
            if last is None or last[0] != len(cache) - 1:  # cold or replaced
                last = (0, SymPoly.constant(1))
            start, n_k = last
            for k in range(start, max_order):
                n_k = apply_symbol_operator(n_k, d, k)
                if k + 1 == len(cache):
                    cache.append(_to_sympoly(n_k, k + 1, d))
            _N_LAST[d] = (max_order, n_k)
        return cache[: max_order + 1]


def difference_series(d: int, max_order: int, vanishing=()) -> list[SymPoly]:
    """Terms d_0 .. d_K of an expansion around a baseline, exact rationals.

    The recursion of :func:`d_series` with its eps = 0 atoms read as the
    difference symbols Delta sigma = sigma - sigma0 (``DBASE``) and
    Delta sigma_l (``DSLOPE``); every other atom is the target's
    d^eps sigma = d^eps Delta sigma + d^eps sigma0.  The monomials holding
    an atom of ``vanishing`` (AtomKeys that are identically zero) are
    dropped at every order, so a vanishing difference gives exact zeros.
    """
    if d < 1 or max_order < 0:
        raise ValueError("need d >= 1 and max_order >= 0")
    if max_order >= _RADIX:
        raise ValueError(f"max_order must be below {_RADIX}")
    drop = {_code(a.l, a.deriv) for a in vanishing}
    n_k = SymPoly.constant(1)
    series = [SymPoly.constant(Fraction(1))]
    for k in range(max_order):
        n_k = apply_symbol_operator(n_k, d, k)
        if drop:
            n_k.terms = {m: c for m, c in n_k.terms.items()
                         if drop.isdisjoint(m)}
        d_k = _to_sympoly(n_k, k + 1, d, (DBASE, DSLOPE))
        # the difference kinds sort apart from the codes: reorder
        series.append(SymPoly({tuple(sorted(m)): c
                               for m, c in d_k.terms.items()}))
    return series


# ---------------------------------------------------------------------------
# Closed-form coefficient recursion on exponent tuples
# ---------------------------------------------------------------------------


def _distributions(caps: tuple, eps: MultiIndex, memo: dict) -> list:
    """Every way to distribute the multi-index eps over groups, group i
    receiving a multi-index lam_i with |lam_i| <= caps[i].

    Each way is (parts, weight): parts lists the nonzero lam_i as
    (i - len(caps), lam_i packed one byte per direction, |lam_i|), indexed
    from the end so that a suffix of caps shares its entries; the weight is
    the integer prod_i caps[i]! / ((caps[i] - |lam_i|)! lam_i!).  Memoized
    in ``memo`` on (caps, eps).
    """
    key = (caps, eps)
    out = memo.get(key)
    if out is not None:
        return out
    if not caps:
        out = [] if any(eps) else [((), 1)]
    else:
        out = []
        a = caps[0]
        room = sum(caps[1:])
        for lam0 in _group_choices(eps, a):
            rem = tuple(e - g for e, g in zip(eps, lam0))
            if sum(rem) > room:
                continue
            rest = _distributions(caps[1:], rem, memo)
            m = sum(lam0)
            if m == 0:
                out.extend(rest)
                continue
            # falling factorial over lam0!: a binomial times a multinomial
            den = factorial(a - m)
            for li in lam0:
                den *= factorial(li)
            w0 = factorial(a) // den
            head = ((-len(caps), int.from_bytes(bytes(lam0), "little"), m),)
            out.extend((head + parts, w0 * w) for parts, w in rest)
    memo[key] = out
    return out


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


def _moves(alpha: tuple, flat: tuple, memo: dict) -> list:
    """Every way one step takes the packed keys of alpha to the next row:
    (delta, integer weight), the key of each new (alpha, beta) being the
    old key plus delta.  ``alpha`` is padded to the packed layout of
    :func:`coefficient_recursion`, whose slots ``flat`` enumerates."""
    size = len(flat)
    d = len(flat[0])
    groups = [i for i, a in enumerate(alpha) if a > 0]
    caps = tuple(alpha[i] for i in groups)
    total = sum(caps)
    moves = []
    for pj, eps in enumerate(flat):  # new base atom d^eps sigma, |eps| <= k
        if sum(eps) > total:  # flat is sorted by order: nothing follows
            break
        for parts, w in _distributions(caps, eps, memo):
            delta = 1 << 8 * pj
            for g, lam, m in parts:
                # m base factors of slot gi turn into slope factors, lam[l]
                # of them in direction l + 1
                gi = groups[g]
                delta += (lam << 8 * (size + gi * d)) - (m << 8 * gi)
            moves.append((delta, w))
    return moves


def _next_row(row: dict, flat: tuple, moves: dict, splits: dict) -> dict:
    """Row k -> row k+1 of the integers k! c_(alpha, beta) over packed
    keys.  ``moves`` memoizes :func:`_moves` on the packed alpha, which
    recurs from row to row; ``splits`` is the memo of
    :func:`_distributions`."""
    alpha_mask = (1 << 8 * len(flat)) - 1
    by_alpha: dict = {}  # the moves depend on alpha alone
    for key, c in row.items():
        by_alpha.setdefault(key & alpha_mask, []).append((key, c))
    nxt: defaultdict = defaultdict(int)
    for alpha, entries in by_alpha.items():
        step = moves.get(alpha)
        if step is None:
            step = moves[alpha] = _moves(
                tuple(alpha.to_bytes(len(flat), "little")), flat, splits)
        for key, c in entries:
            for delta, w in step:
                nxt[key + delta] += c * w
    return nxt


class _Decoded(dict):
    """bytes -> the tuple ``decode`` makes of them, built once per distinct
    bytes, so that equal keys share one tuple."""

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, raw):
        value = self[raw] = self.decode(raw)
        return value


def _unpack_row(row: dict, k: int, flat: tuple) -> dict:
    """The public {(alpha, beta): Fraction} row k of the packed integers
    k! c.  Equal alphas, betas and beta d-tuples are shared tuples."""
    size = len(flat)
    d = len(flat[0])
    n = len(flattened_indices(d, k))
    width = size * (1 + d)
    kf = factorial(k)
    alphas = _Decoded(tuple)
    betas = alphas
    if d > 1:
        slots = _Decoded(tuple)  # d-tuple -> its shared copy
        betas = _Decoded(lambda raw: tuple(
            map(slots.__getitem__, zip(*[iter(raw)] * d))))
    out = {}
    for key, c in row.items():
        b = key.to_bytes(width, "little")
        out[(alphas[b[:n]], betas[b[size:size + n * d]])] = Fraction(c, kf)
    return out


def coefficient_recursion(d: int, max_order: int) -> dict[int, dict]:
    """Rows k = 1 .. max_order of the affine coefficient triangle.

    Univariate keys are (alpha, beta) plain tuples; multivariate keys are
    (alpha, beta) with alpha over the flattened enumeration and beta a tuple
    of d-tuples.  All values are exact Fractions; absent keys are zero.
    The recursion runs on the integers k! c and divides once per row.  It
    packs each (alpha, beta) into one int, one byte per slot: alpha[j] is
    byte j and beta[j][l] byte S + j d + l, with S slots for the last row,
    so an entry below 256 never carries into its neighbour.
    """
    if d < 1 or max_order < 1:
        raise ValueError("need d >= 1 and max_order >= 1")
    if max_order >= _RADIX:
        raise ValueError(f"max_order must be below {_RADIX}")
    flat = flattened_indices(d, max_order)
    row = {1: 1}  # alpha = (1,), beta = (0,) * d
    moves: dict = {}
    splits: dict = {}
    rows: dict[int, dict] = {}
    for k in range(1, max_order + 1):
        if k > 1:
            row = _next_row(row, flat, moves, splits)
        rows[k] = _unpack_row(row, k, flat)
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
    n = len(flattened_indices(d, k))
    alpha = [0] * n
    beta = [(0,) * d] * n
    for a, e in mono:
        if sum(a.deriv) >= k:
            raise ValueError(f"derivative {a.deriv} has no slot at order {k}")
        pos = flattened_position(d, a.deriv)
        if a.kind == BASE:
            alpha[pos] += e
        elif a.kind == SLOPE:
            row = list(beta[pos])
            row[a.l - 1] += e
            beta[pos] = tuple(row)
        else:
            raise ValueError(f"atom kind {a.kind!r} has no pair image")
    return (tuple(alpha), tuple(beta))


_ZERO = Fraction(0)


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
        from_d[key] = from_d[key] + c if key in from_d else c
    row = coeff_rows[k]
    if from_d == row:
        return CrossCheckReport(ok=True, order=k)
    mismatches = []
    for key in set(from_d) | set(row):
        a = from_d.get(key, _ZERO)
        b = row.get(key, _ZERO)
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
    factor counts as spatial order 1, slope factors as 0.  It is read off
    the integer form N_n = n! d_n of :func:`apply_symbol_operator`: each
    monomial adds N_n[m] / prod eps!^e, summed in integers per (k,
    denominator) and divided once per pair.  Entries are integers by
    construction of the recursion.
    """
    if max_row < 1:
        raise ValueError("need max_row >= 1")
    eps_factorial = [factorial(e) for e in range(max_row)]
    n_k = SymPoly.constant(1)
    rows = []
    for n in range(1, max_row + 1):
        n_k = apply_symbol_operator(n_k, 1, n - 1)
        sums: dict[tuple[int, int], int] = {}
        for mono, c in n_k.terms.items():
            den = 1
            for a in mono:
                den *= eps_factorial[a % _RADIX]
            key = (bisect_left(mono, _RADIX), den)  # base codes lie below
            sums[key] = sums.get(key, 0) + c
        buckets: dict[int, Fraction] = {}
        for (k, den), c in sums.items():
            buckets[k] = buckets.get(k, 0) + Fraction(c, den)
        row = []
        for k in range(n, 0, -1):
            v = buckets.get(k, 0)
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
