"""Generalized-symbol expansions around solvable baselines."""
import cmath
import json
import random
from dataclasses import FrozenInstanceError, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from affine_cf.gensym import (
    BASELINE_REGISTRY,
    BaselineSolution,
    correction_series,
    eval_baseline_cf,
    eval_generalized,
    heston_baseline,
    vasicek_baseline,
    zero_baseline,
)
from affine_cf.oracle import (HestonParams, VasicekParams, cir_cf, heston_cf,
                              heston_model, heston_params, riccati_cf,
                              vasicek_model)
from affine_cf.series_eval import eval_globalized, eval_local
from affine_cf.symalg import (BASE, DBASE, DSLOPE, SLOPE, AtomKey, SymPoly,
                              d_series, monomial)
from affine_cf.symbols import (UNIT_BALL, AffineModel, GaussianJumps, NoJumps,
                               eval_symbol, load_model, model_from_json,
                               model_to_json)

from helpers import (CIR, HESTON, VASICEK, atom_values, bm_model, cir,
                     gauss_jump_model, heston, vasicek)

MODELS = Path(__file__).resolve().parent.parent / "models"


def _shifted(baseline: BaselineSolution, phi_shift) -> BaselineSolution:
    """The baseline's closed form with phi_shift(t) added to phi0."""

    def exponent(t, u):
        phi, psi = baseline.exponent(t, u)
        return phi + phi_shift(t), psi

    return BaselineSolution("shifted", baseline.model, exponent)


class TestBaselines:
    def test_registry_names(self):
        assert set(BASELINE_REGISTRY) == {"zero", "vasicek", "heston"}

    @pytest.mark.parametrize("baseline_fn", [
        lambda: zero_baseline(1),
        lambda: vasicek_baseline(VASICEK),
        lambda: heston_baseline(HESTON),
    ])
    def test_u0_normalization(self, baseline_fn):
        baseline = baseline_fn()
        d = baseline.model.dimension
        u = [0.0] * d if d > 1 else 0.0
        assert abs(eval_baseline_cf(baseline, [0.2] * d, u, 0.8) - 1.0) <= 1e-12

    def test_heston_t0_phase(self):
        baseline = heston_baseline(HESTON)
        x = [0.3, 0.04]
        val = eval_baseline_cf(baseline, x, [1.5, 0.0], 0.0)
        assert abs(val - cmath.exp(1j * 1.5 * 0.3)) <= 1e-12
        # the variance component of psi0 starts at zero
        assert abs(baseline.exponent(0.0, [1.5, 0.0])[1][1]) <= 1e-14

    def test_vasicek_vs_riccati(self):
        baseline = vasicek_baseline(VASICEK)
        a = eval_baseline_cf(baseline, [0.1], 1.0, 0.5)
        b = riccati_cf(vasicek_model(VASICEK), [0.1], [1.0], 0.5).value
        assert abs(a - b) <= 1e-8

    def test_residual_checks_pass(self):
        # each built-in baseline passes the residual check it is built
        # through, here from the registry as the CLI builds it
        for name, model in [("zero", "cir.json"), ("zero", "heston.json"),
                            ("vasicek", "vasicek.json"),
                            ("heston", "heston.json")]:
            baseline = BASELINE_REGISTRY[name](load_model(MODELS / model))
            assert baseline.name == name

    def test_residual_checks_pass_the_exact_cold_heston_region(self):
        # every perfbench exact-cold nilpotency request builds one Heston
        # baseline with parameters drawn from this region
        rng = random.Random(34)
        for _ in range(300):
            heston_baseline(HestonParams(
                b00=0.0, b10=0.0, b11=0.0, b20=rng.uniform(0.02, 0.08),
                b21=rng.uniform(0.5, 3.0), s=rng.uniform(0.1, 0.6),
                rho=rng.uniform(-0.9, 0.0)))

    @pytest.mark.parametrize("b1", [-20.0, -50.0])
    def test_residual_checks_pass_a_fast_baseline(self, b1):
        # a step of 0.05 would leave a jet truncation error of 1.6e-11 at
        # b1 = -20 and 5.5e-5 at b1 = -50, so the step shrinks to the jet
        vasicek_baseline(VasicekParams(a0=0.5, b0=2.0, b1=b1))

    def test_residual_check_rejects_wrong_closed_form(self):
        # psi0 = 2iu does not solve the Vasicek flow psi' = b1 psi
        right = vasicek_baseline(VASICEK).exponent
        with pytest.raises(ValueError, match="residual"):
            BaselineSolution("wrong", vasicek_model(VASICEK),
                             lambda t, u: (right(t, u)[0], (2j * u[0],)))

    @pytest.mark.parametrize("e", [1e-5, 1e-7, 1e-9])
    def test_residual_check_rejects_a_phi0_off_by_e_t2(self, e):
        # a central difference at h = 1e-6 with a 1e-6 tolerance passes
        # e = 1e-7
        with pytest.raises(ValueError, match="residual"):
            _shifted(vasicek_baseline(VASICEK), lambda t: e * t * t)

    @pytest.mark.parametrize("exponent,message", [
        (lambda t, u: (0.1 + 0j, (1j * u[0],)), "residual"),
        (lambda t, u: (0j, (1j * u[0], 0j)), "2 psi0 components, not 1"),
    ], ids=["phi0-at-t0", "psi0-length"])
    def test_residual_check_rejects_a_wrong_start_or_shape(self, exponent,
                                                          message):
        # phi0 = 0.1 solves phi0' = 0 but misses phi0(0, u) = 0
        with pytest.raises(ValueError, match=message):
            BaselineSolution("wrong", AffineModel.from_arrays(dimension=1),
                             exponent)

    def test_a_built_baseline_is_frozen(self):
        baseline = vasicek_baseline(VASICEK)
        with pytest.raises(FrozenInstanceError):
            baseline.exponent = lambda t, u: (0j, (2j * u[0],))


class TestCorrectionSeries:
    @pytest.mark.parametrize("baseline_fn,target_fn", [
        (lambda: vasicek_baseline(VASICEK), vasicek),
        (lambda: heston_baseline(HESTON), heston),
    ])
    def test_exact_nilpotency(self, baseline_fn, target_fn):
        polys = correction_series(target_fn(), baseline_fn(), 10)
        for k in range(1, 11):
            assert not polys[k].terms  # exact zero polynomial

    def test_zero_baseline_reduces_to_plain_series(self):
        model = vasicek()
        for t in (0.1, 0.3):
            gen = eval_generalized(model, zero_baseline(1), [0.1], 1.0, t, 12)
            loc = eval_local(model, [0.1], [1.0], t, 12)
            assert abs(gen.value - loc.value) <= 1e-12

    @pytest.mark.parametrize("target_fn,K,zero_slopes",
                             [(cir, 8, ()), (heston, 5, (1,))],
                             ids=["cir", "heston"])
    def test_zero_baseline_series_is_d_series(self, target_fn, K,
                                                  zero_slopes):
        # Around the zero generator Delta sigma is sigma, so reading the
        # difference atoms back as base/slope gives d_series term for term,
        # less the eps = 0 slope atoms that vanish (Heston's x-slope).
        target = target_fn()
        d = target.dimension
        zero = (0,) * d
        plain = {DBASE: BASE, DSLOPE: SLOPE}
        vanishing = {AtomKey(SLOPE, l, zero): 0 for l in zero_slopes}
        polys = correction_series(target, zero_baseline(d), K)
        for p, q in zip(polys, d_series(d, K), strict=True):
            assert all(mono == monomial(mono) for mono in p.terms)  # sorted
            read_back = {
                monomial((AtomKey(plain.get(a.kind, a.kind), a.l, a.deriv), e)
                         for a, e in mono): c
                for mono, c in p.terms.items()}
            assert read_back == q.substitute(vanishing).terms

    def test_diffusion_only_correction_atoms(self):
        # target differs from the baseline only in the constant diffusion
        # block, so every difference atom is a constant-block derivative
        target = AffineModel.from_arrays(
            a0=[[2.0 * VASICEK.a0 + 0.05]], b0=[VASICEK.b0],
            b_slope=[[VASICEK.b1]])
        polys = correction_series(target, vasicek_baseline(VASICEK), 6)
        seen = set()
        for p in polys[1:]:
            for mono in p.terms:
                for atom, _ in mono:
                    seen.add(atom.kind)
        assert DBASE in seen
        assert DSLOPE not in seen

    def test_normalization_u0(self):
        val = eval_generalized(heston(), heston_baseline(HESTON),
                               [0.0, 0.04], [0.0, 0.0], 0.7, 8).value
        assert abs(val - 1.0) <= 1e-12


class TestEvalGeneralized:
    @pytest.mark.parametrize("u", [[1.0, 0.5], [0.0, 1.0]])
    def test_baseline_missing_the_initial_condition_is_refused(self, u):
        # the Heston baseline reads only u[0], so psi0(0, u) != iu
        with pytest.raises(ValueError, match="baseline 'heston'.*psi0"):
            eval_generalized(heston(), heston_baseline(HESTON),
                             [0.0, 0.04], u, 0.2, 10)

    # mode (the id's prefix; none for generalized) -> eval(t, K) on CIR
    MODES = {
        "": lambda t, K: eval_generalized(cir(), zero_baseline(1), [0.1],
                                          [2.0], t, K),
        "local-": lambda t, K: eval_local(cir(), [0.1], [2.0], t, K),
        "globalized-": lambda t, K: eval_globalized(cir(), [0.1], [2.0], t,
                                                    K),
    }
    # (t, K, message): the order is an int >= 1, not a float, a string or a
    # bool, which range() or < would otherwise meet as a bare TypeError or
    # take as K = 1
    REFUSED = {
        "negative-t": (-0.2, 10, "t must be >= 0"),
        "order-0": (0.2, 0, "truncation order must be >= 1"),
        "order-2.5": (0.2, 2.5, "truncation order must be an int, got 2.5"),
        "order-4.0": (0.2, 4.0, "truncation order must be an int, got 4.0"),
        "order-str": (0.2, "8", "truncation order must be an int, got '8'"),
        "order-True": (0.2, True, "truncation order must be an int, got True"),
    }

    @pytest.mark.parametrize("mode,case", list(product(MODES, REFUSED)),
                             ids=[m + c for m, c in product(MODES, REFUSED)])
    def test_negative_t_and_order_below_one_are_refused(self, mode, case):
        # K = 0 would return the bare baseline with a rounding-floor tail
        t, K, message = self.REFUSED[case]
        with pytest.raises(ValueError, match=message):
            self.MODES[mode](t, K)

    @pytest.mark.parametrize("mode", MODES,
                             ids=lambda mode: mode[:-1] or "generalized")
    def test_a_numpy_int_order_is_a_python_int(self, mode):
        res = self.MODES[mode](0.2, np.int64(4))
        assert res.truncation_order == 4
        assert type(res.truncation_order) is int
        assert res.value == self.MODES[mode](0.2, 4).value

    def test_target_equals_baseline_is_baseline_cf(self):
        x, u, t = [0.0, 0.04], [1.0, 0.0], 1.0
        gen = eval_generalized(heston(), heston_baseline(HESTON), x, u, t, 10)
        ref = heston_cf(HESTON, 0.0, 0.04, 1.0, t)
        assert abs(gen.value - ref) <= 1e-10

    def test_heston_baseline_of_a_loaded_model_is_bit_identical(self):
        # the baseline read from a built model and from its JSON round trip
        # gives the same bits at every point
        target = heston_model(replace(HESTON, b21=2.0, s=0.5))
        model = heston_model(HESTON)
        again = model_from_json(model_to_json(model))
        baselines = [heston_baseline(heston_params(m)) for m in (model, again)]
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = [rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.2)]
            u = [rng.uniform(-3.0, 3.0), 0.0]
            t = rng.uniform(0.0, 1.0)
            a, b = (eval_generalized(target, base, x, u, t, 8)
                    for base in baselines)
            assert (a.value, a.tail_estimate) == (b.value, b.tail_estimate)

    def test_unit_ball_target_around_zero(self):
        # the two models' jets each read their own compensated symbol, so
        # the truncation conventions of target and baseline need not agree
        spec = json.loads((MODELS / "bm_jumps.json").read_text())
        target = model_from_json({**spec, "truncation": UNIT_BALL})
        for x, u, t in [([0.1], [1.5], 0.8), ([-0.3], [3.0], 0.4)]:
            gen = eval_generalized(target, zero_baseline(1), x, u, t, 16)
            ref = riccati_cf(target, x, u, t).value
            assert abs(gen.value - ref) <= 1e-13 * abs(ref)

    def test_unit_ball_target_around_an_uncompensated_jump_baseline(self):
        # a Levy baseline, Gaussian jumps under no compensation: phi0 =
        # t sigma(0, iu), psi0 = iu; the target adds mean reversion and
        # compensates the same jumps on the unit ball
        levy = gauss_jump_model(intensity=0.3, mean=0.1, var=0.04, a0=0.4,
                                drift=0.2)
        baseline = BaselineSolution(
            "levy", levy,
            lambda t, u: (t * eval_symbol(levy, [0.0], u), (1j * u[0],)))
        target = AffineModel.from_arrays(
            a0=levy.a0, b0=levy.b0, b_slope=[[-0.5]], jumps=levy.jumps,
            truncation=UNIT_BALL)
        for x, u, t in [([0.1], [1.5], 0.3), ([-0.3], [2.0], 0.2)]:
            gen = eval_generalized(target, baseline, x, u, t, 16)
            ref = riccati_cf(target, x, u, t).value
            assert abs(gen.value - ref) <= 1e-13 * abs(ref)

    def test_heston_plus_jumps_vs_riccati(self):
        m = heston()
        jump = GaussianJumps(intensity=0.05, mean=[0.05, 0.0],
                             cov=[[0.01, 0.0], [0.0, 0.0]])
        target = AffineModel.from_arrays(
            a0=m.a0, a_slope=m.a_slope, b0=m.b0, b_slope=m.b_slope,
            jumps=(jump, NoJumps(), NoJumps()),
            state_domain=m.state_domain, dimension=2)
        x, u, t = [0.0, 0.04], [1.0, 0.0], 0.2
        gen = eval_generalized(target, heston_baseline(HESTON), x, u, t, 12)
        ref = riccati_cf(target, x, u, t).value
        assert abs(gen.value - ref) / abs(ref) <= 1e-5


class TestErrorFallsWithK:
    """Around a baseline that moves along its path, the correction converges
    to the closed form: the error falls with K, inside the tail estimate."""

    @pytest.mark.parametrize("case,t,last", [
        ("cir-vasicek", 0.5, 1e-13),
        ("heston-b21", 0.2, 1e-14),
        ("heston-b21", 0.5, 1e-12),
    ], ids=["cir-vasicek-t0.5", "heston-b21-t0.2", "heston-b21-t0.5"])
    def test_against_closed_form(self, case, t, last):
        if case == "cir-vasicek":
            target = cir()
            baseline = vasicek_baseline(VasicekParams(a0=0.0, b0=CIR.b0,
                                                      b1=CIR.b1))
            x, u = [0.1], [2.0]
            ref = cir_cf(CIR, 0.1, 2.0, t)
        else:
            params = replace(HESTON, b21=2.0, s=0.5)
            target, baseline = heston_model(params), heston_baseline(HESTON)
            x, u = [0.0, 0.04], [1.0, 0.0]
            ref = heston_cf(params, 0.0, 0.04, 1.0, t)
        errors = []
        for K in (4, 8, 12, 16):
            res = eval_generalized(target, baseline, x, u, t, K)
            errors.append(abs(res.value - ref))
            assert errors[-1] <= res.tail_estimate
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= last


def _heston_with_jumps() -> AffineModel:
    m = heston()
    jump = GaussianJumps(intensity=0.05, mean=[0.05, 0.0],
                         cov=[[0.01, 0.0], [0.0, 0.0]])
    return AffineModel.from_arrays(
        a0=m.a0, a_slope=m.a_slope, b0=m.b0, b_slope=m.b_slope,
        jumps=(jump, NoJumps(), NoJumps()),
        state_domain=m.state_domain, dimension=2)


_EXPANSIONS = {
    "vasicek-perturbed": (
        lambda: AffineModel.from_arrays(
            a0=[[2.0 * VASICEK.a0 + 0.05]], b0=[VASICEK.b0 + 0.01],
            b_slope=[[VASICEK.b1 - 0.1]]),
        lambda: vasicek_baseline(VASICEK), [0.1], 1.0, 0.2, 8),
    "heston-jumps": (_heston_with_jumps, lambda: heston_baseline(HESTON),
                     [0.0, 0.04], [1.0, 0.0], 0.2, 6),
    "cir-zero": (cir, lambda: zero_baseline(1), [0.04], 1.5, 0.3, 8),
    # Delta sigma keeps its v-slope and loses its x-slope
    "heston-b21": (
        lambda: heston_model(replace(HESTON, b21=2.0)),
        lambda: heston_baseline(HESTON), [0.0, 0.04], [1.0, 0.0], 0.2, 8),
}


def _quotient(num, den):
    """[t^k] num / den to the length of num, den[0] = 1."""
    q = []
    for k, n in enumerate(num):
        q.append(n - sum(den[j] * q[k - j] for j in range(1, k + 1)))
    return q


class TestFlowJetMatchesExactSeries:
    """Corrections read from the two flow jets against the exact quotient
    of the target's and the baseline model's series at the same point:
    w_k = [t^k] D / D0, D = 1 + sum_k d_k t^k of the exact d_series read at
    the atom values at (x, iu)."""

    @staticmethod
    def _d_values(model, x, iu, K):
        """d_0 .. d_K and their magnitudes |d_k|, the exact polynomial read
        with absolute coefficients at the absolute atom values."""
        vals = atom_values(model, x, iu, K - 1)
        abs_vals = {a: abs(v) for a, v in vals.items()}
        polys = d_series(model.dimension, K)
        return ([p.eval(vals) for p in polys],
                [SymPoly({m: abs(c) for m, c in p.terms.items()})
                 .eval(abs_vals).real for p in polys])

    @pytest.mark.parametrize("case", sorted(_EXPANSIONS),
                             ids=lambda case: f"generalized-{case}")
    def test_d_k(self, case):
        target_fn, baseline_fn, x, u, t, K = _EXPANSIONS[case]
        target, baseline = target_fn(), baseline_fn()
        res = eval_generalized(target, baseline, x, u, t, K)
        iu = 1j * np.atleast_1d(np.asarray(u, dtype=float))
        dk, abs_dk = self._d_values(target, x, iu, K)
        dk0, abs_dk0 = self._d_values(baseline.model, x, iu, K)
        exact = _quotient(dk, dk0)
        # the float reading of the exact quotient is good to rounding of
        # its majorant |D| / (1 - sum_k |d0_k| t^k)
        scale = _quotient(abs_dk, [1.0] + [-a for a in abs_dk0[1:]])
        for k in range(1, K + 1):
            assert abs(res.order_contributions[k - 1] - exact[k] * t ** k) \
                <= 1e-13 * scale[k] * t ** k

    def test_heston_around_itself_is_the_baseline_exactly(self):
        baseline = heston_baseline(HESTON)
        x, u, t = [0.0, 0.04], [1.0, 0.0], 0.7
        res = eval_generalized(heston(), baseline, x, u, t, 10)
        assert all(c == 0.0 for c in res.order_contributions)
        assert res.value == eval_baseline_cf(baseline, x, u, t)


class TestExpressionBaselines:
    """Closed forms written by hand as Python callables exponent(t, u),
    built through the same check as the built-in baselines."""

    def test_zero_generator_expressions(self):
        model = AffineModel.from_arrays(dimension=1)
        baseline = BaselineSolution(
            "expression", model, lambda t, u: (0j, (1j * u[0],)))
        target = bm_model(a0=0.4)
        gen = eval_generalized(target, baseline, [0.1], 1.0, 0.4, 12)
        loc = eval_local(target, [0.1], [1.0], 0.4, 12)
        assert abs(gen.value - loc.value) <= 1e-10

    def test_componentwise_expressions_in_d2(self):
        zero2 = AffineModel.from_arrays(dimension=2)
        baseline = BaselineSolution(
            "expression", zero2, lambda t, u: (0j, (1j * u[0], 1j * u[1])))
        x, u, t = [0.1, 0.04], [1.0, 0.5], 0.3
        gen = eval_generalized(heston(), baseline, x, u, t, 8)
        ref = eval_generalized(heston(), zero_baseline(2), x, u, t, 8)
        assert abs(gen.value - ref.value) <= 1e-14 * abs(ref.value)

    def test_a_closed_form_that_misses_its_model_is_refused(self):
        # phi0 = t does not solve the zero generator's Cauchy problem
        # (d phi0 / dt = 1, sigma = 0); the zero generator around it would
        # read 1.640+0.165j at (x, u, t) = (0.1, 1, 0.5), where its CF is
        # exp(0.1 i) = 0.995+0.0998j
        with pytest.raises(ValueError, match="residual"):
            _shifted(zero_baseline(1), lambda t: t)
