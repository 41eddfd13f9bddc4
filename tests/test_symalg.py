"""Exact series algebra: golden d_k, coefficient recursion, cross-checks,
and the counting triangle."""
import hashlib
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from affine_cf import symalg
from affine_cf.symalg import (
    AtomKey,
    BASE,
    SLOPE,
    SymPoly,
    cardinality_bound,
    coefficient_recursion,
    compare_counting,
    counting_triangle,
    cross_check,
    d_series,
    lambda_sum_cardinality,
    literal_counting_rows,
    monomial,
    monomial_base_count,
    monomial_degree,
    monomial_derived_base_count,
    monomial_slope_count,
    monomial_to_pair,
)

from helpers import HALF, S, S1D, S2D, SIXTH, SL, SL1D, poly


class TestGoldenUnivariate:
    def test_d1(self):
        assert d_series(1, 1)[1] == poly((1, [(S, 1)]))

    def test_d2(self):
        expected = poly(
            (HALF, [(S, 2)]),
            (HALF, [(S1D, 1), (SL, 1)]),
        )
        assert d_series(1, 2)[2] == expected

    def test_d3(self):
        expected = poly(
            (SIXTH, [(S, 3)]),
            (HALF, [(S, 1), (S1D, 1), (SL, 1)]),
            (SIXTH, [(S1D, 1), (SL1D, 1), (SL, 1)]),
            (SIXTH, [(S2D, 1), (SL, 2)]),
        )
        assert d_series(1, 3)[3] == expected


class TestGoldenMultivariate:
    def test_d1_general_dimension(self):
        for d in (2, 3):
            zero = (0,) * d
            assert d_series(d, 1)[1] == poly((1, [(AtomKey(BASE, 0, zero), 1)]))

    def test_d2_d2(self):
        d = 2
        zero = (0, 0)
        sig = AtomKey(BASE, 0, zero)
        expected = SymPoly()
        expected.add_term(monomial([(sig, 2)]), HALF)
        for l, e in ((1, (1, 0)), (2, (0, 1))):
            expected.add_term(
                monomial([(AtomKey(BASE, 0, e), 1), (AtomKey(SLOPE, l, zero), 1)]),
                HALF,
            )
        assert d_series(2, 2)[2] == expected

    def test_d3_d2(self):
        d = 2
        zero = (0, 0)
        units = {1: (1, 0), 2: (0, 1)}
        sig = AtomKey(BASE, 0, zero)
        expected = SymPoly()
        expected.add_term(monomial([(sig, 3)]), SIXTH)
        for l in (1, 2):
            expected.add_term(
                monomial([(sig, 1),
                          (AtomKey(BASE, 0, units[l]), 1),
                          (AtomKey(SLOPE, l, zero), 1)]),
                HALF,
            )
        from collections import Counter

        for l in (1, 2):
            for m in (1, 2):
                expected.add_term(
                    monomial([(AtomKey(BASE, 0, units[l]), 1),
                              (AtomKey(SLOPE, l, units[m]), 1),
                              (AtomKey(SLOPE, m, zero), 1)]),
                    SIXTH,
                )
                eps = tuple(a + b for a, b in zip(units[l], units[m]))
                atoms = Counter([AtomKey(BASE, 0, eps),
                                 AtomKey(SLOPE, l, zero),
                                 AtomKey(SLOPE, m, zero)])
                expected.add_term(monomial(atoms.items()), SIXTH)
        assert d_series(2, 3)[3] == expected


class TestCoefficientRecursion:
    def test_row1(self):
        rows = coefficient_recursion(1, 1)
        assert rows[1] == {((1,), (0,)): Fraction(1)}

    def test_row2(self):
        rows = coefficient_recursion(1, 2)
        assert rows[2] == {
            ((2, 0), (0, 0)): HALF,
            ((0, 1), (1, 0)): HALF,
        }

    def test_row3(self):
        rows = coefficient_recursion(1, 3)
        assert rows[3] == {
            ((3, 0, 0), (0, 0, 0)): SIXTH,
            ((1, 1, 0), (1, 0, 0)): HALF,
            ((0, 1, 0), (1, 1, 0)): SIXTH,
            ((0, 0, 1), (2, 0, 0)): SIXTH,
        }

    def test_pure_sigma_entry_is_inverse_factorial(self):
        rows = coefficient_recursion(1, 6)
        for k in range(1, 7):
            alpha = (k,) + (0,) * (k - 1)
            beta = (0,) * k
            assert rows[k][(alpha, beta)] == Fraction(1, factorial(k))

    def test_multivariate_base_entry(self):
        rows = coefficient_recursion(2, 1)
        ((alpha, beta), value), = rows[1].items()
        assert value == 1 and sum(alpha) == 1


class TestCrossCheck:
    def test_univariate_to_order_8(self):
        polys = d_series(1, 8)
        rows = coefficient_recursion(1, 8)
        for k in range(1, 9):
            report = cross_check(polys, rows, k, d=1)
            assert report.ok, report.mismatches

    def test_multivariate_to_order_5(self):
        polys = d_series(2, 5)
        rows = coefficient_recursion(2, 5)
        for k in range(1, 6):
            report = cross_check(polys, rows, k, d=2)
            assert report.ok, report.mismatches

    def test_three_dimensions_to_order_5(self):
        # beta entries are 3-tuples: three slope directions per slot
        polys = d_series(3, 5)
        rows = coefficient_recursion(3, 5)
        for k in range(1, 6):
            report = cross_check(polys, rows, k, d=3)
            assert report.ok, report.mismatches


def canonical_series_digest(polys) -> str:
    """sha256 over the sorted lines "k|kind,l,deriv,e;...|num/den"."""
    lines = []
    for k, p in enumerate(polys):
        for mono, c in p.terms.items():
            atoms = ";".join(f"{a.kind},{a.l},{','.join(map(str, a.deriv))},{e}"
                             for a, e in mono)
            lines.append(f"{k}|{atoms}|{c.numerator}/{c.denominator}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def canonical_rows_digest(rows) -> str:
    """sha256 over the sorted lines "k|alpha|beta|num/den"."""
    lines = [f"{k}|{alpha}|{beta}|{c.numerator}/{c.denominator}"
             for k, row in rows.items() for (alpha, beta), c in row.items()]
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("d,kmax,digest", [
        (1, 16, "f013cb35482c855e03df029597780dffee3e552cebc871abe17d27b83e20e0b0"),
        (2, 8, "d1d5954bde2619324c13306cf669b211e8351ce45a90a790722c420bd6d90e53"),
    ])
    def test_d_series(self, d, kmax, digest):
        assert canonical_series_digest(d_series(d, kmax)) == digest

    @pytest.mark.parametrize("d,kmax,digest", [
        (1, 16, "d1d5fe78fec0448daaf1bc8d076d85cf731c457acbc16efb99d55c1998f34c2f"),
        (2, 8, "8982f32c72d4f211fe79633fa1978a5bcbba7ab55b4689a4b6b96588d982ecc3"),
    ])
    def test_coefficient_recursion(self, d, kmax, digest):
        assert canonical_rows_digest(coefficient_recursion(d, kmax)) == digest


class TestIntegerRecursion:
    @pytest.mark.parametrize("d,kmax", [(1, 12), (2, 7)])
    def test_taylor_normalized_terms_are_integers(self, d, kmax):
        # k! d_k over the atoms d^eps sigma / eps! has integer coefficients
        for k, p in enumerate(d_series(d, kmax)):
            for mono, c in p.terms.items():
                scale = factorial(k)
                for a, e in mono:
                    for j in a.deriv:
                        scale *= factorial(j) ** e
                assert (c * scale).denominator == 1, (k, mono, c)

    @pytest.mark.parametrize("build", [d_series, coefficient_recursion])
    def test_orders_past_one_byte_per_slot_are_refused(self, build):
        with pytest.raises(ValueError, match="below 256"):
            build(1, 256)

    def test_weighted_row_sums_are_n_factorial(self):
        for n, row in enumerate(counting_triangle(12).rows, start=1):
            assert all(type(v) is int for v in row)
            assert sum(row) == factorial(n)

    @pytest.mark.parametrize("d,k", [(1, 5), (2, 4)])
    def test_cross_check_reports_each_perturbed_coefficient(self, d, k):
        polys = d_series(d, k)
        rows = coefficient_recursion(d, k)
        delta = Fraction(1, factorial(k))
        for key, c in rows[k].items():
            bad = dict(rows)
            bad[k] = {**rows[k], key: c + delta}
            report = cross_check(polys, bad, k, d)
            assert not report.ok
            assert report.mismatches == [(key, c, c + delta)]
        for mono, c in polys[k].terms.items():
            bad_poly = polys[k].copy()
            bad_poly.terms[mono] = c + delta
            report = cross_check(polys[:k] + [bad_poly], rows, k, d)
            key = monomial_to_pair(mono, k, d)
            assert not report.ok
            assert report.mismatches == [(key, c + delta, c)]


class TestSeriesStructure:
    @pytest.mark.parametrize("d,kmax", [(1, 8), (2, 5)])
    def test_membership_constraints_of_monomials(self, d, kmax):
        for k, p in enumerate(d_series(d, kmax)):
            for mono in p.terms:
                assert monomial_degree(mono) == k
                assert monomial_slope_count(mono) >= monomial_derived_base_count(mono)

    def test_pure_sigma_coefficient_sums(self):
        for k, p in enumerate(d_series(1, 8)):
            if k == 0:
                continue
            total = sum(
                c for mono, c in p.terms.items()
                if monomial_base_count(mono) == k and monomial_slope_count(mono) == 0
            )
            assert total == Fraction(1, factorial(k))

    def test_levy_collapse_to_exponential(self):
        # zeroing every slope atom leaves exactly sigma^k / k!
        for k, p in enumerate(d_series(1, 8)):
            assign = {
                a: Fraction(0)
                for mono in p.terms for a, _ in mono if a.kind == SLOPE
            }
            collapsed = p.substitute(assign)
            if k == 0:
                assert collapsed.terms == {(): Fraction(1)}
            else:
                assert collapsed.terms == {
                    ((S, k),): Fraction(1, factorial(k))
                }

    @given(st.integers(1, 8))
    @settings(deadline=None, max_examples=8)
    def test_unit_substitution_gives_one(self, k):
        # every atom set to 1 -> d_k = 1 exactly, for all k
        p = d_series(1, k)[k]
        total = sum(p.terms.values())
        assert total == 1


class TestCountingTriangle:
    def test_grouped_rows(self):
        tri = counting_triangle(5)
        assert tri.rows == [
            [1],
            [1, 1],
            [1, 3, 2],
            [1, 6, 11, 6],
            [1, 10, 35, 50, 24],
        ]

    def test_rows_are_the_grouped_rational_series(self):
        # the definition: n! times the summed d_n coefficients of the
        # monomials with k base factors, for k = n down to 1
        polys = d_series(1, 12)
        expected = []
        for n in range(1, 13):
            buckets = {}
            for mono, c in polys[n].terms.items():
                k = monomial_base_count(mono)
                buckets[k] = buckets.get(k, 0) + c * factorial(n)
            expected.append([buckets.get(k, 0) for k in range(n, 0, -1)])
            assert counting_triangle(n).rows == expected

    def test_row_sums_within_bound(self):
        tri = counting_triangle(12)
        for n, rn in enumerate(tri.row_sums, start=1):
            assert rn <= factorial(n)

    def test_ratio_nonincreasing(self):
        tri = counting_triangle(12)
        ratios = [rn / factorial(n) for n, rn in enumerate(tri.row_sums, 1)]
        assert all(a >= b - 1e-15 for a, b in zip(ratios, ratios[1:]))

    def test_literal_recursion_reported_not_hidden(self):
        cmp = compare_counting(5)
        # the literal printed recursion disagrees with the grouped rows;
        # the comparison surfaces the rows rather than silently matching
        assert cmp.rows_grouped == counting_triangle(5).rows
        assert cmp.rows_literal == literal_counting_rows(5)
        assert isinstance(cmp.mismatched_rows, list)

    def test_cardinality_bound_row3(self):
        assert cardinality_bound(3) == (6, 6)

    def test_cardinality_bound_row8(self):
        count, bound = cardinality_bound(8)
        assert bound == factorial(8)
        assert count <= bound


class TestLambdaSumCardinality:
    def test_zero_tuple(self):
        assert lambda_sum_cardinality(0, 3) == 1

    def test_pair_sum2(self):
        assert lambda_sum_cardinality(2, 2) == 3

    def test_four_slots_sum3(self):
        assert lambda_sum_cardinality(3, 4) == 20


class TestDSeriesCache:
    def test_cold_cache_threads_get_the_serial_series(self, monkeypatch):
        monkeypatch.setattr(symalg, "_D_SERIES_CACHE", {})
        expected = d_series(1, 12)
        monkeypatch.setattr(symalg, "_D_SERIES_CACHE", {})
        results = [None] * 4
        errors = []

        def work(i):
            try:
                results[i] = d_series(1, 12)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert all(r == expected for r in results)
        assert len(symalg._D_SERIES_CACHE[1]) == 13
