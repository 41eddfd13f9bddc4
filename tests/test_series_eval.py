"""The time transform, and local/globalized series evaluation."""
import cmath
import math
import sys

import numpy as np
import pytest

from affine_cf import series_eval
from affine_cf.gensym import (eval_generalized, heston_baseline,
                              vasicek_baseline, zero_baseline)
from affine_cf.oracle import (CIRParams, MomentExplosionError, VasicekParams,
                              cir_cf, cir_model, heston_cf,
                              levy_khintchine_cf, riccati_cf)
from affine_cf.series_eval import (
    GLOBALIZED,
    LOCAL,
    TimeTransform,
    eval_globalized,
    eval_local,
    time_forward,
    time_inverse,
)
from affine_cf.symalg import d_series
from affine_cf.symbols import (AffineModel, GaussianJumps, NoJumps,
                                eval_symbol, eval_symbol_table,
                                eval_symbol_table_xi)

from helpers import (CIR, HESTON, bm_model, cir, exponential_jumps,
                     gauss_jump_model, heston, unit_ball_gaussian, vasicek)


class TestTimeTransform:
    def test_tau0_maps_to_t0(self):
        assert time_forward(TimeTransform(2.0), 0.0) == 0.0

    def test_t0_maps_to_tau0(self):
        assert time_inverse(TimeTransform(2.0), 0.0) == pytest.approx(0.0)

    def test_beta1_half(self):
        tt = TimeTransform(1.0)
        t = time_forward(tt, 0.5)
        assert t == pytest.approx(math.log(math.tan(3 * math.pi / 8)))
        assert time_inverse(tt, t) == pytest.approx(0.5, abs=1e-14)

    def test_round_trip_100_points(self):
        tt = TimeTransform(0.7)
        for tau in np.linspace(0.0, 0.99, 100):
            assert abs(time_inverse(tt, time_forward(tt, tau)) - tau) <= 1e-13

    def test_domain_errors(self):
        tt = TimeTransform(1.0)
        with pytest.raises(ValueError):
            time_forward(tt, 1.0)
        with pytest.raises(ValueError):
            time_inverse(tt, -0.1)
        with pytest.raises(ValueError):
            TimeTransform(0.0)


class TestEvalLocal:
    @pytest.mark.parametrize("model_fn", [bm_model, gauss_jump_model, vasicek])
    def test_u0_normalization_exact(self, model_fn):
        model = model_fn()
        res = eval_local(model, [0.3], [0.0], 0.7, 10)
        assert res.value == 1.0 + 0.0j
        assert res.mode == LOCAL

    def test_bm_closed_form(self):
        model = bm_model(a0=1.0)
        res = eval_local(model, [0.4], [1.0], 0.5, 20)
        expected = cmath.exp(1j * 0.4 - 0.25)
        assert abs(res.value - expected) <= 1e-12

    def test_vasicek_vs_riccati(self):
        model = AffineModel.from_arrays(a0=[[0.08]], b0=[0.1],
                                        b_slope=[[-0.5]])
        res = eval_local(model, [0.2], [1.0], 0.25, 12)
        ref = riccati_cf(model, [0.2], [1.0], 0.25).value
        assert abs(res.value - ref) / abs(ref) <= 1e-8

    def test_levy_reduction_per_order(self):
        model = gauss_jump_model(a0=0.3, drift=0.1)
        t, u = 0.4, 1.2
        res = eval_local(model, [0.0], [u], t, 12)
        sigma = eval_symbol(model, [0.0], [u])
        for k, contrib in enumerate(res.order_contributions, start=1):
            expected = (t * sigma) ** k / math.factorial(k)
            assert abs(contrib - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_hermitian_symmetry(self):
        model = vasicek()
        a = eval_local(model, [0.1], [1.5], 0.3, 12).value
        b = eval_local(model, [0.1], [-1.5], 0.3, 12).value
        assert abs(a - b.conjugate()) <= 1e-12

    def test_modulus_bound_in_converged_region(self):
        model = vasicek()
        for u in (0.5, 1.0, 2.0):
            res = eval_local(model, [0.1], [u], 0.3, 16)
            if res.tail_estimate <= 1e-8:
                assert abs(res.value) <= 1.0 + 1e-6

    def test_geometric_decay_bounded_symbol(self):
        model = gauss_jump_model(a0=0.3, drift=0.1)
        # |sigma(u)| <= a0 U^2 / 2 + |drift| U + 2 intensity for |u| <= U = 2
        sup = 0.3 * 2.0 ** 2 / 2 + 0.1 * 2.0 + 2 * 0.5
        t = 0.5 / sup
        res = eval_local(model, [0.0], [1.5], t, 14)
        mags = [abs(c) for c in res.order_contributions]
        for k in range(3, len(mags) - 1):
            if mags[k] > 1e-300:
                assert mags[k + 1] / mags[k] <= 0.75

    def test_tail_estimate_present(self):
        res = eval_local(vasicek(), [0.1], [1.0], 0.2, 10)
        assert res.tail_estimate >= 0.0
        assert res.truncation_order == 10

    def test_tail_estimate_has_a_rounding_floor(self):
        x, u = 0.04, 1.0
        res = eval_local(cir(), [x], [u], 0.05, 16)
        # converged: the last term lies far below the value's rounding error
        assert abs(res.order_contributions[-1]) < 1e-20 * abs(res.value)
        assert res.tail_estimate >= series_eval.ROUNDING_FLOOR * abs(res.value)
        # the floor changes no value: still the phase times the reverse sum
        series = 0.0 + 0.0j
        for c in reversed(res.order_contributions):
            series += c
        assert res.value == np.exp(1j * x * u) * (1.0 + series)
        # unconverged: the last-term estimate stands as it was
        rough = eval_local(cir(), [x], [u], 0.5, 4)
        c = [abs(v) for v in rough.order_contributions]
        assert rough.tail_estimate == c[-1] / (1.0 - min(c[-1] / c[-2], 0.9))
        assert rough.tail_estimate > series_eval.ROUNDING_FLOOR * abs(rough.value)


def three_factor() -> AffineModel:
    """A 3-d model with cross-diffusion, slopes on the first two axes and a
    Gaussian jump in the constant part."""
    nu0 = GaussianJumps(intensity=0.3, mean=[0.1, -0.2, 0.05],
                        cov=[[0.04, 0.01, 0.0], [0.01, 0.02, 0.0],
                             [0.0, 0.0, 0.03]])
    return AffineModel.from_arrays(
        a0=[[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.1]],
        a_slope=[[[0.2, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.0]],
                 [[0.0, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.1, 0.2]],
                 [[0.0] * 3] * 3],
        b0=[0.1, -0.05, 0.2],
        b_slope=[[-0.5, 0.1, 0.0], [0.2, -0.3, 0.0], [0.0, 0.4, 0.0]],
        jumps=(nu0, NoJumps(), NoJumps(), NoJumps()))


# the CIR factor on axis l has parameters FACTORS[l]
FACTORS = [CIRParams(b0=0.04 + 0.01 * l, b1=-0.5 - 0.1 * l, s=0.2 + 0.03 * l)
           for l in range(5)]


def independent_cirs(d: int) -> AffineModel:
    """d independent CIR factors: the cir_model blocks of FACTORS on the
    diagonal of a_slope and b_slope, so the CF is the product of cir_cf."""
    blocks = [cir_model(p) for p in FACTORS[:d]]
    a_slope = np.zeros((d, d, d))
    b_slope = np.zeros((d, d))
    for l, block in enumerate(blocks):
        a_slope[l, l, l] = block.a_slope[0][0][0]
        b_slope[l, l] = block.b_slope[0][0]
    return AffineModel.from_arrays(
        a_slope=a_slope, b0=[block.b0[0] for block in blocks],
        b_slope=b_slope, state_domain=[(0.0, None)] * d)


class TestIndependentFactors:
    @pytest.mark.parametrize("d,K", [(3, 16), (4, 16), (5, 12)])
    @pytest.mark.parametrize("evaluate,t", [(eval_local, 0.3),
                                            (eval_globalized, 2.0)])
    def test_product_of_cir_closed_forms(self, d, K, evaluate, t):
        x = [0.04, 0.1, 0.02, 0.06, 0.08][:d]
        u = [1.0, -0.5, 0.3, 0.8, -0.2][:d]
        res = evaluate(independent_cirs(d), x, u, t, K)
        ref = math.prod(cir_cf(p, xl, ul, t)
                        for p, xl, ul in zip(FACTORS, x, u))
        assert abs(res.value - ref) <= 1e-12 * abs(ref)


class TestJumpsInThreeDimensions:
    @pytest.mark.parametrize("K", [12, 16])
    @pytest.mark.parametrize("evaluate", [eval_local, eval_globalized])
    def test_three_factor_matches_riccati(self, evaluate, K):
        # Gaussian jumps on the constant part make every eps up to K - 1
        # live in the table at d = 3
        x, u, t = [0.2, 0.1, -0.3], [0.7, -1.1, 0.4], 0.3
        res = evaluate(three_factor(), x, u, t, K)
        ref = riccati_cf(three_factor(), x, u, t).value
        assert abs(res.value - ref) <= 1e-12 * abs(ref)


class TestJetDValues:
    def test_matches_the_exact_series(self):
        # d_k read from the flow jet against the exact atom-algebra series,
        # read at the symbol table of the same point; the jump model is the
        # models/bm_jumps.json example
        cases = [
            (cir(), np.array([0.04]), np.array([1.5]), 12),
            (gauss_jump_model(intensity=0.3, a0=0.4, drift=0.2),
             np.array([0.1]), np.array([2.0]), 12),
            (heston(), np.array([0.0, 0.04]), np.array([1.25, 0.0]), 8),
            # the shortest jets
            (cir(), np.array([0.04]), np.array([1.5]), 1),
            (cir(), np.array([0.04]), np.array([1.5]), 2),
            (three_factor(), np.array([0.2, 0.1, -0.3]),
             np.array([0.7, -1.1, 0.4]), 5),
            # jumps in two components: every eps live at d = 2
            (unit_ball_gaussian(), np.array([0.3, -0.2]),
             np.array([1.1, -0.6]), 6),
            (exponential_jumps(), np.array([0.2]), np.array([1.7]), 8),
        ]
        for model, x, u, K in cases:
            numeric = series_eval._exp_jet(
                series_eval._flow_jet(model, 1j * u, K), x)
            values = eval_symbol_table(model, x, u, K - 1).atom_values()
            exact = [p.eval(values) for p in d_series(model.dimension, K)[1:]]
            assert np.allclose(numeric, exact, rtol=1e-13, atol=0.0)

    def test_jet_plans_are_integer_keyed_and_do_not_grow(self):
        # the flow jet's plans are keyed on the tables' integer eps pattern
        # and an integer order: one plan per (pattern, K) however many
        # points are evaluated
        series_eval._jet_plan.cache_clear()
        grids = [(cir(), [0.04], 16), (heston(), [0.0, 0.04], 8)]
        for _ in range(50):
            for model, x, K in grids:
                for u in np.linspace(-2.5, 2.5, 16):
                    eval_local(model, x, [u] + [0.0] * (len(x) - 1), 0.3, K)
        plans = series_eval._jet_plan.cache_info()
        assert plans.currsize == plans.misses == len(grids)
        for model, x, K in grids:
            table = eval_symbol_table(model, [0.0] * len(x),
                                      [1.0] + [0.0] * (len(x) - 1), K - 1)
            assert all(type(e) is int for eps in table.base for e in eps)

    @pytest.mark.parametrize("evaluate", [eval_local, eval_globalized])
    def test_order_16_matches_heston_closed_form(self, evaluate):
        x, v, u, t = 0.0, 0.04, 1.25, 0.3
        res = evaluate(heston(), [x, v], [u, 0.0], t, 16)
        ref = heston_cf(HESTON, x, v, u, t)
        assert abs(res.value - ref) <= 1e-12 * abs(ref)


class TestEvalGlobalized:
    def test_t0_is_phase(self):
        res = eval_globalized(bm_model(), [0.7], [1.3], 0.0, 10)
        assert abs(res.value - cmath.exp(1j * 0.7 * 1.3)) <= 1e-14
        assert res.mode == GLOBALIZED
        assert res.order_contributions == []
        assert res.tail_estimate == series_eval.ROUNDING_FLOOR * abs(res.value)

    def test_short_horizons_at_k8(self):
        # a short horizon is a few semiflow steps, each good to rounding
        for t in (0.01, 0.05, 0.1, 0.2):
            for u in (-2.5, 1.0, 3.0):
                res = eval_globalized(cir(), [0.1], [u], t, 8)
                ref = cir_cf(CIR, 0.1, u, t)
                assert abs(res.value - ref) <= 1e-11 * abs(ref)
                res = eval_globalized(heston(), [0.1, 0.04], [u, 0.0], t, 8)
                ref = heston_cf(HESTON, 0.1, 0.04, u, t)
                assert abs(res.value - ref) <= 1e-11 * abs(ref)

    def test_bm_long_horizon(self):
        model = bm_model(a0=1.0)
        t, u, x = 3.0, 2.0, 0.1
        res = eval_globalized(model, [x], [u], t, 24)
        expected = cmath.exp(1j * u * x + t * eval_symbol(model, [x], [u]))
        assert abs(res.value - expected) / abs(expected) <= 1e-6

    def test_overlap_with_local(self):
        for model in (vasicek(), cir()):
            x = [0.05]
            for t in (0.05, 0.1, 0.2):
                loc = eval_local(model, x, [1.0], t, 16)
                glo = eval_globalized(model, x, [1.0], t, 16)
                if loc.tail_estimate <= 1e-10 and glo.tail_estimate <= 1e-10:
                    assert abs(loc.value - glo.value) <= 1e-8

    def test_long_horizon_vs_riccati(self):
        for model in (vasicek(), cir()):
            res = eval_globalized(model, [0.05], [1.0], 5.0, 16)
            ref = riccati_cf(model, [0.05], [1.0], 5.0).value
            assert abs(res.value - ref) / abs(ref) <= 1e-4

    @pytest.mark.parametrize("tau", [0.29, 0.31, 0.69, 0.71])
    def test_both_sides_of_the_step_thresholds(self, tau):
        # horizons around tau = 0.3 and 0.7 of the transform at beta = 0.25
        x, u = 0.05, 1.0
        t = TimeTransform(0.25).forward(tau)
        res = eval_globalized(cir(), [x], [u], t, 16)
        ref = cir_cf(CIR, x, u, t)
        assert abs(res.value - ref) / abs(ref) <= 1e-8

    def test_each_step_builds_one_table_and_one_jet(self, monkeypatch):
        # every semiflow step builds one set of derivative rows and one
        # flow jet
        counts = {"tables": 0, "jets": 0}
        build_table = series_eval.component_rows
        build_jet = series_eval._flow_jet

        def counting(key, build):
            def wrapped(*args):
                counts[key] += 1
                return build(*args)
            return wrapped

        monkeypatch.setattr(series_eval, "component_rows",
                            counting("tables", build_table))
        monkeypatch.setattr(series_eval, "_flow_jet",
                            counting("jets", build_jet))
        res = eval_globalized(cir(), [0.05], [1.0], 4.0, 12)
        assert counts["tables"] == counts["jets"] >= 2
        ref = cir_cf(CIR, 0.05, 1.0, 4.0)
        assert abs(res.value - ref) / abs(ref) <= 1e-4

    def test_heston_long_horizon_matches_closed_form(self):
        res = eval_globalized(heston(), [0.1, 0.04], [1.0, 0.0], 5.0, 16)
        ref = heston_cf(HESTON, 0.1, 0.04, 1.0, 5.0)
        assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_tail_covers_a_short_semiflow_point(self):
        t, x, u = 0.189, 0.188, -0.934
        res = eval_globalized(cir(), [x], [u], t, 16)
        err = abs(res.value - cir_cf(CIR, x, u, t))
        assert err <= 2.0 * res.tail_estimate + 1e-15

    @pytest.mark.parametrize("K", [2, 4, 6, 8])
    def test_summed_tail_covers_low_orders(self, K):
        # below K = 12 the steps leave last terms far above the rounding
        # floor; the tail adds up every step's, not only the last one's
        res = eval_globalized(cir(), [0.05], [2.0], 5.0, K)
        assert abs(res.value - cir_cf(CIR, 0.05, 2.0, 5.0)) <= res.tail_estimate
        res = eval_globalized(heston(), [0.1, 0.04], [2.0, 0.0], 5.0, K)
        ref = heston_cf(HESTON, 0.1, 0.04, 2.0, 5.0)
        assert abs(res.value - ref) <= res.tail_estimate

    def test_fast_drift_stays_on_the_unit_circle(self):
        # psi = iu e^{30 t}: the CF is exp(iux e^{30 t}), of modulus 1
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0], b_slope=[[30.0]])
        x, u, t = 0.1, 1.0, 0.3
        res = eval_globalized(model, [x], [u], t, 16)
        assert abs(res.value - cmath.exp(1j * u * x * math.exp(30.0 * t))) <= 1e-9

    def test_tail_covers_the_rounding_of_a_fast_drift(self):
        # |xi . x| reaches 810: each xi update loses ulps the tail must count
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0], b_slope=[[30.0]])
        x, u, t = 0.1, 1.0, 0.3
        res = eval_globalized(model, [x], [u], t, 16)
        err = abs(res.value - cmath.exp(1j * u * x * math.exp(30.0 * t)))
        assert err <= res.tail_estimate

    def test_blow_up_raises_near_the_oracle_time(self):
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0], b_slope=[[30.0]])
        with pytest.raises(MomentExplosionError) as oracle_info:
            riccati_cf(model, [0.1], [1.0], 1.0)
        with pytest.raises(MomentExplosionError) as info:
            eval_globalized(model, [0.1], [1.0], 1.0, 16)
        assert abs(info.value.t_blowup - oracle_info.value.t_blowup) <= 0.05

    def test_unbounded_symbol_warning_attached(self):
        res = eval_globalized(vasicek(), [0.05], [1.0], 5.0, 16)
        assert isinstance(res.warnings, list)

    @pytest.mark.parametrize("model,x,u", [
        (exponential_jumps(), [0.2], [1.7]),
        (unit_ball_gaussian(), [0.3, -0.2], [1.1, -0.6]),
    ], ids=["exponential-jumps", "unit-ball-gaussian"])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_jump_models_match_riccati(self, model, x, u, t):
        # jumps make every eps up to K - 1 live in the flow jet
        res = eval_globalized(model, x, u, t, 16)
        ref = riccati_cf(model, x, u, t).value
        assert abs(res.value - ref) <= 1e-12 * abs(ref)


# Every _flow_jet entry of six cases, recorded as repr strings with the
# jet that ran every Cauchy product (degree-1 powers included), at the xi of
# PINNED_POINTS; row 0 phi, row 1 + l delta_l.
PINNED_POINTS = {
    "cir": (cir, [-0.3 + 1.2j]),
    "heston": (heston, [-0.1 + 1.25j, -0.3 + 0.2j]),
    "expj": (exponential_jumps, [-0.4 + 1.7j]),
    "ubg": (unit_ball_gaussian, [-0.2 + 1.1j, 0.1 - 0.6j]),
}
PINNED_JETS = {
    ("cir", 16): [
        ["0j", "(-0.012+0.048j)", "(0.00246-0.012287999999999999j)",
         "(-0.000223232+0.002136512j)",
         "(-2.1221672e-05-0.00028622847999999995j)",
         "(1.2632185241600002e-05+3.15057366016e-05j)",
         "(-2.9590549169066663e-06-2.8487401035093334e-06j)",
         "(5.116201378010453e-07+1.748709516603489e-07j)",
         "(-7.32788176268253e-08+5.2486843154276015e-09j)",
         "(8.920528005567884e-09-4.439810328584243e-09j)",
         "(-8.862186212507666e-10+1.0309869163323352e-09j)",
         "(5.679692447542716e-11-1.794538537863033e-10j)",
         "(2.497975830254508e-12+2.6235647191842396e-11j)",
         "(-1.762253985742479e-12-3.2672843921317266e-12j)",
         "(4.098805851813866e-13+3.287870631251467e-13j)",
         "(-7.195105901846402e-14-2.032681072738226e-14j)",
         "(1.0606012530149795e-14-1.3365950676414546e-15j)"],
        ["0j", "(0.123-0.6144j)", "(-0.0167424+0.1602384j)",
         "(-0.0021221672-0.028622847999999996j)",
         "(0.0015790231552000001+0.0039382170752j)",
         "(-0.000443858237536-0.0004273110155264j)",
         "(8.953352411518293e-05+3.060241654056106e-05j)",
         "(-1.4655763525365059e-05+1.0497368630855203e-06j)",
         "(2.0071188012527743e-06-9.989573239314546e-07j)",
         "(-2.2155465531269166e-07+2.577467290830838e-07j)",
         "(1.5619154230742467e-08-4.934980979123341e-08j)",
         "(7.493927490763524e-10+7.870694157552719e-09j)",
         "(-5.727325453663057e-10-1.0618674274428112e-09j)",
         "(1.434582048134853e-10+1.1507547209380135e-10j)",
         "(-2.698164713192401e-11-7.622554022768348e-12j)",
         "(4.242405012059918e-12-5.346380270565818e-13j)",
         "(-5.640197437379419e-13+3.273385741917719e-13j)"],
    ],
    ("cir", 1): [
        ["0j", "(-0.012+0.048j)"],
        ["0j", "(0.123-0.6144j)"],
    ],
    ("cir", 2): [
        ["0j", "(-0.012+0.048j)", "(0.00246-0.012287999999999999j)"],
        ["0j", "(0.123-0.6144j)", "(-0.0167424+0.1602384j)"],
    ],
    ("heston", 8): [
        ["0j", "(-0.012+0.008j)",
         "(-0.005556000000000001-0.006949000000000001j)",
         "(0.0022227685000000006+0.003941212j)",
         "(-0.0006024980561250002-0.0015907765595625004j)",
         "(0.00011383394251359379+0.0004833972649642501j)",
         "(-1.7072929916879155e-05-0.00011224310725663072j)",
         "(4.382867694427534e-06+1.908246370665138e-05j)",
         "(-2.264622674654306e-06-1.834254620952874e-06j)"],
        ["0j", "0j", "0j", "0j", "0j", "0j", "0j", "0j", "0j"],
        ["0j", "(-0.27780000000000005-0.34745000000000004j)",
         "(0.16670763750000003+0.29559090000000005j)",
         "(-0.06024980561250002-0.15907765595625004j)",
         "(0.014229242814199223+0.06042465812053126j)",
         "(-0.0025609394875318733-0.01683646608849461j)",
         "(0.0007670018465248185+0.003339431148663991j)",
         "(-0.00045292453493086117-0.0003668509241905748j)",
         "(0.00023438497088780353-3.7046152938321455e-05j)"],
    ],
    ("expj", 10): [
        ["0j", "(-0.2741470588235294+0.1581764705882353j)",
         "(0.0858724525098651-0.039906804166284296j)",
         "(-0.019911693508642216+0.016230276168611734j)",
         "(0.0021290786712397894-0.006575308298600061j)",
         "(0.0007828117917155968+0.0018113560718917006j)",
         "(-0.000529088073844265-0.00023227452783260288j)",
         "(0.00015817886350609698-5.673988688853869e-05j)",
         "(-2.1415759586579973e-05+4.34238603895369e-05j)",
         "(-4.342500671465302e-06-1.3174666235678749e-05j)",
         "(3.5316294122197684e-06+1.7941850180308028e-06j)"],
        ["0j", "(-0.14451326053042118-0.7629578783151326j)",
         "(0.16935658182867142+0.14749507435161177j)",
         "(-0.06290535586850479+0.004641313687795818j)",
         "(0.011541117253549699-0.013652165901030498j)",
         "(0.00047558779282699923+0.0050139232633685j)",
         "(-0.001105412593727069-0.0008878885613372891j)",
         "(0.000396287416452294-4.935090629132329e-05j)",
         "(-6.772777835134549e-05+8.986054550016683e-05j)",
         "(-4.905229124538757e-06-3.133553053265824e-05j)",
         "(7.306196745560502e-06+5.1547365627134874e-06j)"],
    ],
    ("ubg", 8): [
        ["0j", "(-0.21140832562132447+0.1605227969403125j)",
         "(0.10415065416408328-0.12478530428559104j)",
         "(-0.015094641166958522+0.07856908912996198j)",
         "(-0.02118109781864581-0.03174068308394367j)",
         "(0.019969281969457388+0.0023450516847115348j)",
         "(-0.008121226919335763+0.006901002917876855j)",
         "(0.0002529429378064764-0.005311101922558723j)",
         "(0.0018522493017902567+0.0017643390511242944j)"],
        ["0j", "(-0.4189418711754924-0.622436226573032j)",
         "(0.4418992314075006+0.061711406116065085j)",
         "(-0.18558882576144786+0.13115059142201368j)",
         "(0.011643453638573055-0.10041159077065467j)",
         "(0.03397925478979676+0.03071432502376293j)",
         "(-0.02158000977081696+0.004892741124440567j)",
         "(0.00439372585054192-0.009856116152213119j)",
         "(0.002499533390500462+0.004562379651129137j)"],
        ["0j", "(-0.09+0.53j)", "(0.010552906441225376-0.2166218113286516j)",
         "(0.0122676295439641+0.052602136180554204j)",
         "(-0.006786555814229914-0.005926609046046643j)",
         "(0.001182986886763649-0.0011785065489665636j)",
         "(0.0004283057763741871+0.0006493978477754812j)",
         "(-0.00035111643150623244+4.956517000174266e-06j)",
         "(8.564426088856934e-05-0.00012363514714017925j)"],
    ],
}


class TestFlowJet:
    @pytest.mark.parametrize("model,x,xi,K", [
        (cir(), [0.04], [-0.3 + 1.2j], 12),
        (heston(), [0.1, 0.04], [-0.1 + 1.25j, -0.3 + 0.2j], 10),
        (gauss_jump_model(intensity=0.3, a0=0.4, drift=0.2), [0.1],
         [0.2 - 2.0j], 12),
        (exponential_jumps(), [0.2], [-0.4 + 1.7j], 10),
        (unit_ball_gaussian(), [0.3, -0.2], [-0.2 + 1.1j, 0.1 - 0.6j], 8),
        (three_factor(), [0.2, 0.1, -0.3],
         [0.1 + 0.7j, -0.2 - 1.1j, 0.05 + 0.4j], 6),
    ], ids=["cir", "heston", "gauss-jumps", "exponential-jumps",
            "unit-ball-gaussian", "three-factor"])
    def test_the_jet_is_the_local_series(self, model, x, xi, K):
        # exp(phi(h) + delta(h) . x) = 1 + sum_k d_k(x, xi) h^k: the jet
        # expanded through the exponential is the paper's series L^k 1 / k!,
        # here the exact atom-algebra series read at the table of (x, xi)
        jet = series_eval._flow_jet(model, xi, K)
        assert len(jet) == 1 + len(x) and \
            all(len(row) == K + 1 for row in jet)
        exponent = np.concatenate(([1.0], x)) @ jet
        series = [1.0 + 0.0j]
        for k in range(1, K + 1):
            series.append(sum(j * exponent[j] * series[k - j]
                              for j in range(1, k + 1)) / k)
        values = eval_symbol_table_xi(model, x, xi, K - 1).atom_values()
        exact = [p.eval(values) for p in d_series(len(x), K)[1:]]
        assert np.allclose(series[1:], exact, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("case", list(PINNED_JETS),
                             ids=[f"{name}-K{K}" for name, K in PINNED_JETS])
    def test_pinned_coefficients(self, case):
        # the skipped products are exact zeros: every entry is bit for bit
        # the one the full products gave
        name, K = case
        model, xi = PINNED_POINTS[name]
        jet = series_eval._flow_jet(model(), xi, K)
        assert jet == [[complex(v) for v in row] for row in PINNED_JETS[case]]

    def test_jet_plans_are_integer_keyed(self):
        series_eval._jet_plan.cache_clear()
        for u in np.linspace(-2.0, 2.0, 9):
            eval_globalized(heston(), [0.1, 0.04], [u, 0.0], 2.0, 12)
        plans = series_eval._jet_plan.cache_info()
        assert plans.currsize == plans.misses == 1


class TestNonFinitePoints:
    @pytest.mark.parametrize("evaluate", [
        eval_local, eval_globalized,
        lambda model, x, u, t, K: eval_generalized(model, zero_baseline(1),
                                                   x, u, t, K),
    ], ids=["local", "globalized", "generalized"])
    @pytest.mark.parametrize("x,u,t", [
        ([0.1], [1.0], math.inf), ([0.1], [1.0], math.nan),
        ([math.nan], [1.0], 0.5), ([0.1], [math.inf], 0.5),
    ], ids=["t-inf", "t-nan", "x-nan", "u-inf"])
    def test_refused(self, evaluate, x, u, t):
        # an infinite horizon would step forever, and a NaN would come back
        # as a silent NaN (or as 0 at an infinite x)
        with pytest.raises(ValueError, match="finite"):
            evaluate(cir(), x, u, t, 8)


class TestNonRealPoints:
    """A complex u (or x) is refused with a ValueError naming the vector,
    by the series modes and by both oracles."""

    @pytest.mark.parametrize("evaluate", [
        lambda model, x, u, t: eval_local(model, x, u, t, 8),
        lambda model, x, u, t: eval_globalized(model, x, u, t, 8),
        lambda model, x, u, t: eval_generalized(model, zero_baseline(1),
                                                x, u, t, 8),
        riccati_cf,
        levy_khintchine_cf,
    ], ids=["local", "globalized", "generalized", "riccati",
            "levy-khintchine"])
    @pytest.mark.parametrize("x,u,name", [
        ([0.1], [2 - 1j], "u"), ([0.1], 2 - 1j, "u"),
        ([0.1], np.array([2 - 1j]), "u"), ([0.1 + 0j], [2.0], "x"),
    ], ids=["u-list", "u-scalar", "u-ndarray", "x-list"])
    def test_refused(self, evaluate, x, u, name):
        # the Levy-Khintchine form needs vanishing slopes: Brownian motion
        model = bm_model() if evaluate is levy_khintchine_cf else cir()
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            evaluate(model, x, u, 0.5)


def _generalized(model, x, u, t, K):
    """Generalized mode around a baseline that moves along its path: CIR
    around the Vasicek process of its drift, Heston around itself."""
    if model.dimension == 1:
        baseline = vasicek_baseline(VasicekParams(a0=0.0, b0=CIR.b0,
                                                  b1=CIR.b1))
    else:
        baseline = heston_baseline(HESTON)
    return eval_generalized(model, baseline, x, u, t, K)


class TestTailCoversSeededPoints:
    @pytest.mark.parametrize("evaluate,t_max,n", [(eval_local, 0.1, 300),
                                                  (eval_globalized, 1.0, 200),
                                                  (_generalized, 0.5, 200)],
                             ids=["local", "globalized", "generalized"])
    def test_err_within_tail(self, evaluate, t_max, n):
        # converged points, whose only error is rounding: the tail must
        # cover the rounding of the summed terms, not one ulp of the value
        rng = np.random.default_rng(4242)
        for K in (8, 12, 16):
            for _ in range(n):
                t, u = rng.uniform(0.0, t_max), rng.uniform(-3.0, 3.0)
                x = rng.uniform(0.0, 0.2)
                res = evaluate(cir(), [x], [u], t, K)
                assert abs(res.value - cir_cf(CIR, x, u, t)) <= res.tail_estimate
                x, v = rng.uniform(-0.2, 0.2), rng.uniform(0.01, 0.1)
                res = evaluate(heston(), [x, v], [u, 0.0], t, K)
                assert abs(res.value - heston_cf(HESTON, x, v, u, t)) \
                    <= res.tail_estimate


class TestTailCoversThePrefactor:
    """Far from x = 0 the prefactor exp(iux) (local) or exp(phi0 + psi0 . x)
    (generalized) rounds at eps |exponent| relative, above the rounding of
    the summed terms: the tail must count it."""

    @pytest.mark.parametrize("evaluate,K", [
        (eval_local, 32),
        (lambda model, x, u, t, K: eval_generalized(model, zero_baseline(1),
                                                    x, u, t, K), 16),
    ], ids=["local", "generalized"])
    def test_err_within_tail(self, evaluate, K):
        rng = np.random.default_rng(4343)
        for _ in range(300):
            x, t = rng.uniform(1.0, 100.0), rng.uniform(0.005, 0.05)
            u = rng.uniform(-5.0, 5.0)
            res = evaluate(cir(), [x], [u], t, K)
            ref = cir_cf(CIR, x, u, t)
            # the oracle rounds its own exponent at the same scale
            oracle = sys.float_info.epsilon * abs(cmath.log(ref)) * abs(ref)
            assert abs(res.value - ref) <= res.tail_estimate + oracle
