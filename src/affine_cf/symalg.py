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

Both are integer recursions over one packed form (:class:`_Layout`): a
monomial over the Taylor-normalized atoms d^eps sigma / eps! and
d^eps sigma_l / eps!, and an (alpha, beta) key, are each one int with one
byte per atom count.  N_k = k! d_k has integer coefficients and
N_{k+1} = sum_eps (d^eps sigma / eps!) d^eps_x N_k, run once, by
:func:`_n_series`; the coefficient recursion carries k! c_(alpha, beta)
with integer weights.  ``Fraction`` appears only at the boundary: each
order is divided once into ``SymPoly`` terms over ``AtomKey`` atoms and
``{(alpha, beta): Fraction}`` rows, which must agree term for term
(:func:`cross_check`).  The counting triangle groups the monomials of N_n
by spatial order and reproduces the integer triangle with row sums
R_n <= n!, without building d_n.  :func:`difference_series` reads the same
N_k for a generalized expansion around a baseline.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
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

    Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = dict(terms) if terms else {}

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


# ---------------------------------------------------------------------------
# The packed form, and the Leibniz recursion on it
# ---------------------------------------------------------------------------


class _Layout:
    """The packed form of the exact engine, for dimension d up to order K.

    An (alpha, beta) key of :func:`coefficient_recursion`, and a monomial of
    N_k = k! d_k over the Taylor-normalized atoms, are each one int with one
    byte per count.  Flat slot j is the j-th multi-index eps of
    ``flattened_indices(d, K)``: byte j counts the base atom
    d^eps sigma / eps! (alpha[j]), and byte S + j d + (l - 1) the slope
    atom d^eps sigma_l / eps! (beta[j][l - 1]), S being the number of
    slots.  A count is at most K < 256, so no byte carries into its
    neighbour.  Order k reads the first len(flattened_indices(d, k))
    slots; a key's base half is ``key & base_mask``, its slope half
    ``key >> slope_at``.
    """

    def __init__(self, d: int, max_order: int):
        if max_order >= 256:
            raise ValueError("max_order must be below 256")
        self.d = d
        self.max_order = max_order
        self.flat = flattened_indices(d, max_order)
        self.size = len(self.flat)
        self.slope_at = 8 * self.size
        self.base_mask = (1 << self.slope_at) - 1

    def slope_unit(self, j: int, l: int) -> int:
        """The key of one slope atom l of slot j."""
        return 1 << self.slope_at + 8 * (j * self.d + l - 1)


class _Decoded(dict):
    """key -> the value ``decode`` makes of it, built once per distinct key,
    so that equal keys share one value."""

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


def _dx(poly: dict, lay: _Layout, l: int, memo: dict) -> dict:
    """d/dx_l of a packed polynomial: each base factor, taken with its
    multiplicity, turns into its slope atom l.  The moves depend only on
    the base half of a key; ``memo`` holds them per base half."""
    out: defaultdict = defaultdict(int)
    for key, c in poly.items():
        base = key & lay.base_mask
        moves = memo.get(base)
        if moves is None:
            moves = memo[base] = [
                (lay.slope_unit(j, l) - (1 << 8 * j), e)
                for j, e in enumerate(base.to_bytes(lay.size, "little")) if e]
        for delta, e in moves:
            out[key + delta] += c * e
    return out


def _n_series(lay: _Layout, vanishing=()):
    """Yield N_0 .. N_K, N_k = k! d_k over the Taylor-normalized atoms, as
    {packed monomial: int}, K the layout's order.

    N_{k+1} = sum_{|eps| <= k} (d^eps sigma / eps!) d^eps_x N_k, so no
    division occurs.  Spatial derivatives are generated by repeated single
    derivatives, each eps from one parent; multiplying by an atom adds one
    to its byte.  The monomials holding an atom of ``vanishing`` (AtomKeys,
    l = 0 for a base atom) are dropped at every order.
    """
    d = lay.d
    drop = 0
    for a in vanishing:
        j = flattened_position(d, a.deriv)
        if j < lay.size:
            drop |= 0xFF * (lay.slope_unit(j, a.l) if a.l else 1 << 8 * j)
    memos = [{} for _ in range(d + 1)]  # per direction, on the base half
    n_k: dict = {0: 1}
    yield n_k
    for k in range(lay.max_order):
        out: defaultdict = defaultdict(int)
        # parts[eps] = d^eps_x N_k, built order by order
        parts = {(0,) * d: n_k}
        for order in range(k + 1):
            for eps in enumerate_indices(d, order):
                dp = parts.pop(eps, None)
                if not dp:
                    continue
                atom = 1 << 8 * flattened_position(d, eps)
                for key, c in dp.items():
                    out[key + atom] += c
                if order < k:
                    # grow eps only in directions up to its first nonzero
                    # coordinate, so that each eps has one parent
                    first_nz = next((i for i, e in enumerate(eps) if e), d - 1)
                    for i in range(first_nz + 1):
                        nxt = list(eps)
                        nxt[i] += 1
                        parts[tuple(nxt)] = _dx(dp, lay, i + 1, memos[i + 1])
        n_k = {m: c for m, c in out.items() if not m & drop}
        yield n_k


def _atom_halves(lay: _Layout, zeroth: tuple = (BASE, SLOPE)) -> tuple:
    """The (base, slope) decoders of packed monomials.  Each maps a half
    to (its sorted (AtomKey, e) pairs, prod eps!^e, its factor count),
    built once per distinct half from its live bytes.  The eps = 0 atoms
    take the (base, slope) kinds ``zeroth``.  Every base kind sorts below
    every slope kind, so a base half's pairs and a slope half's join in
    AtomKey order."""
    d = lay.d
    base_kind, slope_kind = zeroth
    zero = (0,) * d
    eps_f = [prod(map(factorial, eps)) for eps in lay.flat]

    def decoder(atoms, dens):
        order = [(a.kind, a.l, a.deriv) for a in atoms]  # AtomKey order

        def decode(half):
            raw = half.to_bytes((half.bit_length() + 7) // 8, "little")
            live = sorted((i for i, e in enumerate(raw) if e),
                          key=order.__getitem__)
            return (tuple((atoms[i], raw[i]) for i in live),
                    prod(dens[i] ** raw[i] for i in live), sum(raw))
        return _Decoded(decode)

    return (decoder([AtomKey(base_kind if eps == zero else BASE, 0, eps)
                     for eps in lay.flat], eps_f),
            decoder([AtomKey(slope_kind if eps == zero else SLOPE, l, eps)
                     for eps in lay.flat for l in range(1, d + 1)],
                    [f for f in eps_f for _ in range(d)]))


def _series(d: int, max_order: int, zeroth: tuple, vanishing=()) -> list:
    """d_0 .. d_K over AtomKey atoms from N_k = k! d_k over normalized
    atoms: each coefficient divided once by k! prod eps!^e."""
    lay = _Layout(d, max_order)
    bases, slopes = _atom_halves(lay, zeroth)
    series = []
    for k, n_k in enumerate(_n_series(lay, vanishing)):
        kf = factorial(k)
        d_k = SymPoly()
        for key, c in n_k.items():
            b, bden, _ = bases[key & lay.base_mask]
            s, sden, _ = slopes[key >> lay.slope_at]
            d_k.terms[b + s] = Fraction(c, kf * bden * sden)
        series.append(d_k)
    return series


_D_SERIES_CACHE: dict[int, list[SymPoly]] = {}


def d_series(d: int, max_order: int) -> list[SymPoly]:
    """Series terms d_0 .. d_K in the atom algebra, exact rationals.

    d_0 = 1 and (k+1) d_{k+1} = L[d_k]; the integer form N_k = k! d_k of
    :func:`_n_series` is run and each order is converted once.  The cache
    holds one series per d, replaced whole when a longer one is asked for,
    so concurrent callers each see a complete series.
    """
    if d < 1 or max_order < 0:
        raise ValueError("need d >= 1 and max_order >= 0")
    series = _D_SERIES_CACHE.get(d)
    if series is None or len(series) <= max_order:
        series = _D_SERIES_CACHE[d] = _series(d, max_order, (BASE, SLOPE))
    return series[: max_order + 1]


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
    return _series(d, max_order, (DBASE, DSLOPE), vanishing)


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


def _moves(alpha: tuple, lay: _Layout, memo: dict) -> list:
    """Every way one step takes the packed keys of alpha to the next row:
    (delta, integer weight), the key of each new (alpha, beta) being the
    old key plus delta.  ``alpha`` holds the base bytes of ``lay``."""
    groups = [i for i, a in enumerate(alpha) if a > 0]
    caps = tuple(alpha[i] for i in groups)
    total = sum(caps)
    moves = []
    for pj, eps in enumerate(lay.flat):  # new base atom d^eps sigma, |eps| <= k
        if sum(eps) > total:  # flat is sorted by order: nothing follows
            break
        for parts, w in _distributions(caps, eps, memo):
            delta = 1 << 8 * pj
            for g, lam, m in parts:
                # m base factors of slot gi turn into slope factors, lam[l]
                # of them in direction l + 1
                gi = groups[g]
                delta += lam * lay.slope_unit(gi, 1) - (m << 8 * gi)
            moves.append((delta, w))
    return moves


def _next_row(row: dict, lay: _Layout, moves: dict, splits: dict) -> dict:
    """Row k -> row k+1 of the integers k! c_(alpha, beta) over packed
    keys.  ``moves`` memoizes :func:`_moves` on the packed alpha, which
    recurs from row to row; ``splits`` is the memo of
    :func:`_distributions`."""
    by_alpha: dict = {}  # the moves depend on alpha alone
    for key, c in row.items():
        by_alpha.setdefault(key & lay.base_mask, []).append((key, c))
    nxt: defaultdict = defaultdict(int)
    for alpha, entries in by_alpha.items():
        step = moves.get(alpha)
        if step is None:
            step = moves[alpha] = _moves(
                tuple(alpha.to_bytes(lay.size, "little")), lay, splits)
        for key, c in entries:
            for delta, w in step:
                nxt[key + delta] += c * w
    return nxt


def _unpack_row(row: dict, k: int, lay: _Layout) -> dict:
    """The public {(alpha, beta): Fraction} row k of the packed integers
    k! c.  Equal alphas, betas and beta d-tuples are shared tuples."""
    d = lay.d
    n = len(flattened_indices(d, k))
    kf = factorial(k)
    alphas = _Decoded(lambda half: tuple(half.to_bytes(n, "little")))
    betas = alphas
    if d > 1:
        slots = _Decoded(tuple)  # d-tuple -> its shared copy
        betas = _Decoded(lambda half: tuple(map(slots.__getitem__, zip(
            *[iter(half.to_bytes(n * d, "little"))] * d))))
    out = {}
    for key, c in row.items():
        alpha, beta = alphas[key & lay.base_mask], betas[key >> lay.slope_at]
        out[alpha, beta] = Fraction(c, kf)
    return out


def coefficient_recursion(d: int, max_order: int) -> dict[int, dict]:
    """Rows k = 1 .. max_order of the affine coefficient triangle.

    Univariate keys are (alpha, beta) plain tuples; multivariate keys are
    (alpha, beta) with alpha over the flattened enumeration and beta a tuple
    of d-tuples.  All values are exact Fractions; absent keys are zero.
    The recursion runs on the integers k! c, each (alpha, beta) packed
    into one int (:class:`_Layout`), and divides once per row.
    """
    if d < 1 or max_order < 1:
        raise ValueError("need d >= 1 and max_order >= 1")
    lay = _Layout(d, max_order)
    row = {1: 1}  # alpha = (1,), beta = (0,) * d
    moves: dict = {}
    splits: dict = {}
    rows: dict[int, dict] = {}
    for k in range(1, max_order + 1):
        if k > 1:
            row = _next_row(row, lay, moves, splits)
        rows[k] = _unpack_row(row, k, lay)
    return rows


def monomial_to_pair(mono: Monomial, k: int, d: int) -> tuple:
    """Map a plain-series monomial to its exponent-pair key, in the layout
    of :func:`coefficient_recursion`'s keys: beta a tuple of d-tuples, and
    at d = 1 a tuple of ints.

    Raises ValueError for atoms outside the base/slope vocabulary or with
    derivative order >= k (no pair image exists).
    """
    n = len(flattened_indices(d, k))
    alpha = [0] * n
    beta = [(0,) * d] * n
    for a, e in mono:
        pos = flattened_position(d, a.deriv)
        if pos >= n:  # the layout is graded: |deriv| >= k
            raise ValueError(f"derivative {a.deriv} has no slot at order {k}")
        if a.kind == BASE:
            alpha[pos] += e
        elif a.kind == SLOPE:
            row = list(beta[pos])
            row[a.l - 1] += e
            beta[pos] = tuple(row)
        else:
            raise ValueError(f"atom kind {a.kind!r} has no pair image")
    if d == 1:
        beta = [b for (b,) in beta]
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
    the packed integer form N_n = n! d_n of :func:`_n_series`: each
    monomial adds N_n[m] / prod eps!^e, summed in integers per (k,
    denominator) and divided once per pair.  Entries are integers by
    construction of the recursion.
    """
    if max_row < 1:
        raise ValueError("need max_row >= 1")
    lay = _Layout(1, max_row)
    bases, slopes = _atom_halves(lay)
    rows = []
    for n, n_k in enumerate(_n_series(lay)):
        if n == 0:
            continue
        sums: defaultdict = defaultdict(int)
        for key, c in n_k.items():
            _, den, k = bases[key & lay.base_mask]
            sums[k, den * slopes[key >> lay.slope_at][1]] += c
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
