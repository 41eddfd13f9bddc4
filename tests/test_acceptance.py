"""Acceptance criteria: golden values, oracle equivalences, and properties.

Criterion 4 asserts the published counting-triangle rows 4-5 and R5 = 94
verbatim.  The verified series algebra yields rows [1,6,11,6] and
[1,10,35,50,24] with row sums exactly n! (any n!-weighted regrouping of the
correct d_n terms must sum to n!), so those clauses fail; the remaining
clauses of criterion 4 and all other criteria pass.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from affine_cf import (
    AffineModel,
    GaussianJumps,
    NoJumps,
    cir_model,
    correction_series,
    eval_generalized,
    eval_local,
    eval_symbol,
    heston_baseline,
    heston_cf,
    heston_model,
    levy_khintchine_cf,
    riccati_cf,
    vasicek_baseline,
    vasicek_model,
)
from affine_cf.series_eval import TimeTransform, eval_globalized
from affine_cf.symalg import (
    coefficient_recursion,
    counting_triangle,
    cross_check,
    d_series,
)

from helpers import (
    CIR,
    multivariate_d2,
    multivariate_d3,
    HESTON,
    SIXTH,
    VASICEK,
    atom_values,
    bm_model,
    cir,
    gauss_jump_model,
    heston,
    poly,
    vasicek,
)
from helpers import HALF, S, S1D, S2D, SL, SL1D


class TestCriterion1CoefficientsGolden:
    def test_rows_1_to_3_printed_rationals(self):
        rows = coefficient_recursion(1, 3)
        assert sorted(rows[1].values()) == [Fraction(1)]
        assert sorted(rows[2].values()) == [HALF, HALF]
        assert sorted(rows[3].values()) == [SIXTH, SIXTH, SIXTH, HALF]


class TestCriterion2SeriesGolden:
    def test_univariate_d1_d2_d3(self):
        polys = d_series(1, 3)
        assert polys[1] == poly((1, [(S, 1)]))
        assert polys[2] == poly((HALF, [(S, 2)]),
                                (HALF, [(S1D, 1), (SL, 1)]))
        assert polys[3] == poly(
            (SIXTH, [(S, 3)]),
            (HALF, [(S, 1), (S1D, 1), (SL, 1)]),
            (SIXTH, [(S1D, 1), (SL1D, 1), (SL, 1)]),
            (SIXTH, [(S2D, 1), (SL, 2)]),
        )

    def test_multivariate_d1_d2_d3(self):
        from affine_cf.symalg import AtomKey, BASE

        for d in (2, 3):
            polys = d_series(d, 3)
            zero = (0,) * d
            assert polys[1] == poly((1, [(AtomKey(BASE, 0, zero), 1)]))
            assert polys[2] == multivariate_d2(d)
            assert polys[3] == multivariate_d3(d)


class TestCriterion3CrossRecursion:
    def test_univariate_k_to_8(self):
        polys = d_series(1, 8)
        rows = coefficient_recursion(1, 8)
        for k in range(1, 9):
            report = cross_check(polys, rows, k, d=1)
            assert report.ok, report.mismatches

    def test_multivariate_k_to_5(self):
        polys = d_series(2, 5)
        rows = coefficient_recursion(2, 5)
        for k in range(1, 6):
            report = cross_check(polys, rows, k, d=2)
            assert report.ok, report.mismatches


class TestCriterion4CountingGolden:
    def test_rows_1_to_3(self):
        assert counting_triangle(3).rows == [[1], [1, 1], [1, 3, 2]]

    def test_row_4_printed(self):
        assert counting_triangle(4).rows[3] == [1, 6, 10, 3]

    def test_row_5_printed(self):
        assert counting_triangle(5).rows[4] == [1, 10, 34, 45, 4]

    def test_r5_is_94(self):
        assert counting_triangle(5).row_sums[4] == 94

    def test_bound_up_to_12(self):
        tri = counting_triangle(12)
        for n, rn in enumerate(tri.row_sums, start=1):
            assert rn <= math.factorial(n)


class TestCriterion5LevyEquivalence:
    @pytest.mark.parametrize("model_fn", [
        lambda: bm_model(a0=0.4),
        lambda: bm_model(a0=0.4, drift=0.2),
        lambda: gauss_jump_model(intensity=0.5, mean=0.1, var=0.04),
    ])
    def test_series_vs_levy_khintchine(self, model_fn):
        model = model_fn()
        u_grid = np.linspace(-3.0, 3.0, 21)
        worst = 0.0
        for t in (0.1, 0.5, 1.0):
            sup = max(abs(eval_symbol(model, [0.0], [u])) for u in u_grid)
            assert t * sup <= 2.0
            for u in u_grid:
                val = eval_local(model, [0.0], [u], t, 20).value
                ref = levy_khintchine_cf(model, [0.0], [u], t)
                worst = max(worst, abs(val - ref) / abs(ref))
        assert worst <= 1e-10


class TestCriterion6AffineDiffusion:
    @pytest.mark.parametrize("model_fn,x", [(vasicek, 0.1), (cir, 0.04)])
    def test_local_short_horizon(self, model_fn, x):
        model = model_fn()
        worst = 0.0
        for t in (0.1, 0.25, 0.5):
            for u in (0.5, 1.0, 2.0):
                val = eval_local(model, [x], [u], t, 14).value
                ref = riccati_cf(model, [x], [u], t).value
                worst = max(worst, abs(val - ref) / abs(ref))
        assert worst <= 1e-6

    @pytest.mark.parametrize("model_fn,x", [(vasicek, 0.1), (cir, 0.04)])
    def test_globalized_to_t5(self, model_fn, x):
        model = model_fn()
        worst = 0.0
        for t in (1.0, 3.0, 5.0):
            val = eval_globalized(model, [x], [1.0], t, 16).value
            ref = riccati_cf(model, [x], [1.0], t).value
            worst = max(worst, abs(val - ref) / abs(ref))
        assert worst <= 1e-4


class TestCriterion7Heston:
    def test_closed_form_vs_riccati_grid(self):
        model = heston_model(HESTON)
        for t in (0.25, 0.5, 1.0, 2.0):
            for u in (0.25, 0.5, 1.0, 2.0):
                a = heston_cf(HESTON, 0.0, 0.04, u, t)
                b = riccati_cf(model, [0.0, 0.04], [u, 0.0], t).value
                assert abs(a - b) / abs(b) <= 1e-7

    def test_generalized_mode_reproduces_heston(self):
        baseline = heston_baseline(HESTON)
        for t in (0.5, 1.0, 2.0):
            for u in (0.5, 1.0):
                gen = eval_generalized(heston(), baseline,
                                       [0.0, 0.04], [u, 0.0], t, 10).value
                ref = heston_cf(HESTON, 0.0, 0.04, u, t)
                assert abs(gen - ref) <= 1e-10


class TestCriterion8Nilpotency:
    @pytest.mark.parametrize("baseline_fn,target_fn", [
        (lambda: vasicek_baseline(VASICEK), vasicek),
        (lambda: heston_baseline(HESTON), heston),
    ])
    def test_exact_zero_polynomials(self, baseline_fn, target_fn):
        polys = correction_series(target_fn(), baseline_fn(), 10)
        for k in range(1, 11):
            assert polys[k].terms == {}


class TestCriterion9TransformAndOverlap:
    def test_round_trip_100_points(self):
        for beta in (0.5, 1.0, 2.0):
            tt = TimeTransform(beta)
            for tau in np.linspace(0.0, 0.99, 100):
                t = tt.forward(tau)
                assert abs(tt.inverse(t) - tau) <= 1e-13

    def test_local_globalized_overlap(self):
        checked = 0
        for model, x in ((vasicek(), 0.1), (cir(), 0.04),
                         (bm_model(0.4), 0.0)):
            for t in (0.05, 0.1, 0.2):
                for u in (0.5, 1.0):
                    loc = eval_local(model, [x], [u], t, 16)
                    glo = eval_globalized(model, [x], [u], t, 16)
                    if (loc.tail_estimate <= 1e-10
                            and glo.tail_estimate <= 1e-10):
                        checked += 1
                        assert abs(loc.value - glo.value) <= 1e-8
        assert checked >= 5


class TestCriterion10PropertySuite:
    def _sample(self, rng):
        kind = rng.integers(0, 3)
        if kind == 0:
            return bm_model(a0=float(rng.uniform(0.05, 0.8)),
                            drift=float(rng.uniform(-0.3, 0.3)))
        if kind == 1:
            return gauss_jump_model(intensity=float(rng.uniform(0.1, 0.8)),
                                    mean=float(rng.uniform(-0.2, 0.2)),
                                    var=float(rng.uniform(0.01, 0.09)),
                                    a0=float(rng.uniform(0.0, 0.4)))
        return AffineModel.from_arrays(
            a0=[[float(rng.uniform(0.02, 0.3))]],
            b0=[float(rng.uniform(-0.2, 0.2))],
            b_slope=[[float(rng.uniform(-0.6, -0.1))]])

    def test_randomized_properties(self):
        rng = np.random.default_rng(7)
        samples = 0
        while samples < 200:
            model = self._sample(rng)
            x = float(rng.uniform(-0.5, 0.5))
            u = float(rng.uniform(-2.5, 2.5))
            t = float(rng.uniform(0.05, 0.6))
            samples += 1

            # u = 0 normalization, exact
            assert eval_local(model, [x], [0.0], t, 10).value == 1.0 + 0.0j

            # Hermitian symmetry
            a = eval_local(model, [x], [u], t, 12).value
            b = eval_local(model, [x], [-u], t, 12).value
            assert abs(a - b.conjugate()) <= 1e-12

            # modulus bound in converged regions
            res = eval_local(model, [x], [u], t, 16)
            if res.tail_estimate <= 1e-8:
                assert abs(res.value) <= 1.0 + 1e-6

            # geometric decay for bounded symbols with t sup|sigma| <= 0.5
            sigma = abs(eval_symbol(model, [x], [u]))
            slopes_zero = not np.any(np.asarray(model.b_slope))
            if slopes_zero and sigma > 0 and t * sigma <= 0.5:
                mags = [abs(c) for c in res.order_contributions]
                for k in range(3, len(mags) - 1):
                    if mags[k] > 1e-300:
                        assert mags[k + 1] / mags[k] <= 0.75

            # first derivatives vs finite differences
            if samples % 10 == 0:
                h = 1e-5
                fd = (eval_symbol(model, [x], [u + h])
                      - eval_symbol(model, [x], [u - h])) / (2 * h) * -1j
                exact = atom_values(model, [x], [1j * u], 1)[S1D]
                assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))
