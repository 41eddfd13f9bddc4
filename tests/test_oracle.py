"""Independent oracles: Riccati RK4 vs the closed forms, and their contracts."""
import cmath
import math
import random
from pathlib import Path

import numpy as np
import pytest

from affine_cf import oracle
from affine_cf.oracle import (
    BLOWUP_LIMIT,
    ROUNDING_FLOOR,
    CIRParams,
    HestonParams,
    MomentExplosionError,
    VasicekParams,
    _rk4_program,
    cir_cf,
    cir_model,
    heston_cf,
    heston_model,
    levy_khintchine_cf,
    riccati_cf,
    vasicek_cf,
    vasicek_model,
)
from affine_cf.symbols import (AffineModel, component_rows, eval_symbol,
                               load_model)

from helpers import (CIR, HESTON, VASICEK, bm_model, cir, exponential_jumps,
                     gauss_jump_model, heston, unit_ball_gaussian)

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


class TestRiccati:
    def test_levy_matches_closed_form(self):
        model = gauss_jump_model(a0=0.3, drift=0.1)
        x, u, t = [0.2], [1.4], 0.8
        ref = cmath.exp(1j * 1.4 * 0.2 + t * eval_symbol(model, x, u))
        res = riccati_cf(model, x, u, t)
        assert abs(res.value - ref) <= 1e-10
        # psi stays frozen at iu when all slope symbols vanish
        assert abs(res.psi[0] - 1.4j) <= 1e-12

    def test_u0_is_one(self):
        res = riccati_cf(vasicek_model(VASICEK), [0.3], [0.0], 1.0)
        assert abs(res.value - 1.0) <= 1e-13

    def test_cir_closed_form(self):
        model = cir_model(CIR)
        for t in (0.5, 1.0):
            ref = cir_cf(CIR, 0.04, 1.0, t)
            res = riccati_cf(model, [0.04], [1.0], t)
            assert abs(res.value - ref) <= 1e-9

    def test_step_halving_convergence_order(self):
        model = vasicek_model(VASICEK)
        coarse = fixed_pair(model, [0.1], [1.0], 1.0, 100)[3]
        fine = fixed_pair(model, [0.1], [1.0], 1.0, 200)[3]
        ratio = coarse / fine
        assert 16 * 0.7 <= ratio <= 16 * 1.3

    def test_blow_up_detected(self):
        # explosive linear drift: psi ~ iu e^{b1 t} with b1 = 30
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        b_slope=[[30.0]])
        with pytest.raises(MomentExplosionError):
            riccati_cf(model, [0.0], [1.0], 1.0)

    def test_hermitian(self):
        model = vasicek_model(VASICEK)
        a = riccati_cf(model, [0.1], [1.3], 0.7).value
        b = riccati_cf(model, [0.1], [-1.3], 0.7).value
        assert abs(a - b.conjugate()) <= 1e-12


def _bm_jumps():
    return load_model(MODEL_DIR / "bm_jumps.json")


def _exponent(res, x):
    """phi + psi . x of a Riccati result."""
    return res.phi + sum(p * v for p, v in zip(res.psi, x))


class TestPinnedValues:
    """Values of the integrator.  The cases on the cap reproduce the
    per-component numpy right-hand side the scalar loop replaced bit for
    bit; ``bm_jumps`` stops on the first rung."""

    # (model, x, u, t, value, step_error, steps of the fine run returned,
    #  closed form) at the default first rung and 2000/4000-step cap
    RICCATI = {
        "cir": (cir, [0.04], [1.3], 0.5,
                0.997388138300966 + 0.06341539249656683j,
                2.7755575615628914e-16, 4000,
                lambda: cir_cf(CIR, 0.04, 1.3, 0.5)),
        "heston": (heston, [0.0, 0.04], [1.0, 0.0], 1.0,
                   0.9834658305817257 + 0.0011444693283891082j,
                   1.110299254973338e-16, 4000,
                   lambda: heston_cf(HESTON, 0.0, 0.04, 1.0, 1.0)),
        "bm_jumps": (_bm_jumps, [0.1], [1.5], 0.8,
                     0.6275170486628628 + 0.28346474866203647j,
                     8.671119018262734e-16, 250,
                     lambda: levy_khintchine_cf(_bm_jumps(), [0.1], [1.5],
                                                0.8)),
        "cir-t5": (cir, [0.04], [2.0], 5.0,
                   0.9825256417245474 + 0.1516461464303234j,
                   5.4672143489065705e-16, 4000,
                   lambda: cir_cf(CIR, 0.04, 2.0, 5.0)),
    }

    @pytest.mark.parametrize("case", sorted(RICCATI))
    def test_riccati_value_and_step_error(self, case):
        model_fn, x, u, t, value, step_error, steps, _ = self.RICCATI[case]
        res = riccati_cf(model_fn(), x, u, t)
        assert abs(res.value - value) <= 1e-15 * abs(value)
        assert abs(res.step_error - step_error) <= 1e-15 * step_error
        assert isinstance(res.psi, tuple) and len(res.psi) == len(u)
        assert res.steps == steps

    @pytest.mark.parametrize("case", sorted(RICCATI))
    def test_riccati_within_the_rounding_floor_of_the_closed_form(self, case):
        model_fn, x, u, t, _, _, _, closed_form = self.RICCATI[case]
        res = riccati_cf(model_fn(), x, u, t)
        ref = closed_form()
        assert abs(res.value - ref) <= ROUNDING_FLOOR * abs(ref) * (
            1.0 + abs(_exponent(res, x)))

    def test_blow_up_time(self):
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        b_slope=[[30.0]])
        with pytest.raises(MomentExplosionError) as info:
            riccati_cf(model, [0.0], [1.0], 1.0)
        assert info.value.t_blowup == 0.61425


def textbook_rk4(model, u, t, steps):
    """Classical RK4 on phi' = sigma_0(psi), psi_l' = sigma_l(psi) from
    (0, iu), written over the generic per-component right-hand side, the
    order-0 entries of ``component_rows``, with the oracle's blow-up rule;
    returns (phi, psi)."""
    def rhs(xi):
        return [row[0] for row in component_rows(model, xi, 0)[1]]

    h = t / steps
    phi, psi = 0.0 + 0.0j, [1j * v for v in u]
    for n in range(steps):
        if max(map(abs, psi), default=0.0) > BLOWUP_LIMIT:
            raise MomentExplosionError(n * h)
        k1 = rhs(psi)
        k2 = rhs([p + 0.5 * h * k for p, k in zip(psi, k1[1:])])
        k3 = rhs([p + 0.5 * h * k for p, k in zip(psi, k2[1:])])
        k4 = rhs([p + h * k for p, k in zip(psi, k3[1:])])
        inc = [(h / 6.0) * (a + 2 * b + 2 * c + e)
               for a, b, c, e in zip(k1, k2, k3, k4)]
        phi += inc[0]
        psi = [p + q for p, q in zip(psi, inc[1:])]
    return phi, np.array(psi)


def cross_diffusion3() -> AffineModel:
    """A 3-d diffusion with cross terms in the constant and slope diffusion
    blocks and a coupled drift."""
    return AffineModel.from_arrays(
        a0=[[0.3, 0.1, -0.05], [0.1, 0.2, 0.05], [-0.05, 0.05, 0.1]],
        a_slope=[[[0.2, 0.05, 0.0], [0.05, 0.1, 0.02], [0.0, 0.02, 0.0]],
                 [[0.0, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.1, 0.2]],
                 [[0.1, 0.0, 0.03], [0.0, 0.0, 0.0], [0.03, 0.0, 0.15]]],
        b0=[0.1, -0.05, 0.2],
        b_slope=[[-0.5, 0.1, 0.0], [0.2, -0.3, 0.05], [0.0, 0.4, -0.6]],
        state_domain=[(0.0, None)] * 3)


class TestGeneratedLoop:
    """The unrolled RK4 loop against the textbook integrator above."""

    # (model, x, u, t)
    CASES = {
        "cir": (cir, [0.04], [1.3], 0.5),
        "heston": (heston, [0.0, 0.04], [2.0, -0.3], 1.0),
        "cross-diffusion-3d": (cross_diffusion3, [0.04, 0.1, 0.02],
                               [1.0, -0.5, 0.3], 0.5),
        "unit-ball-jumps": (unit_ball_gaussian, [0.3, -0.2], [1.1, -0.6],
                            0.5),
        "exponential-jumps": (exponential_jumps, [0.2], [-1.7], 0.5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_textbook_integrator(self, case):
        model_fn, x, u, t = self.CASES[case]
        model = model_fn()
        # the loop does not depend on the step count; 500 keeps this quick
        res_value, res_phi, res_psi, res_step_error = fixed_pair(
            model, x, u, t, 500)
        phi, psi = textbook_rk4(model, u, t, 1000)
        value = np.exp(phi + psi @ x)
        phi_c, psi_c = textbook_rk4(model, u, t, 500)
        step_error = abs(value - np.exp(phi_c + psi_c @ x))
        assert abs(res_phi - phi) <= 1e-14 * abs(phi)
        assert np.all(np.abs(res_psi - psi) <= 1e-14 * np.abs(psi))
        assert abs(res_value - value) <= 1e-14 * abs(value)
        assert abs(res_step_error - step_error) <= 1e-14 * abs(value)

    def test_blow_up_time_matches_the_textbook_integrator(self):
        model = AffineModel.from_arrays(
            a0=[[0.1, 0.0], [0.0, 0.2]], b0=[0.0, 0.1],
            b_slope=[[12.0, 0.5], [0.0, 30.0]])
        with pytest.raises(MomentExplosionError) as ref:
            textbook_rk4(model, [1.0, 0.5], 1.0, 2000)
        with pytest.raises(MomentExplosionError) as info:
            riccati_cf(model, [0.0, 0.0], [1.0, 0.5], 1.0)
        assert info.value.t_blowup == ref.value.t_blowup

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loop_is_the_textbook_integrator_bit_for_bit(self, case):
        model_fn, _, u, t = self.CASES[case]
        model = model_fn()
        source, namespace = _rk4_program(model)
        exec(source, namespace)
        phi, psi = namespace["rk4"]([1j * v for v in u], t, 64)
        ref_phi, ref_psi = textbook_rk4(model, u, t, 64)
        assert phi == ref_phi
        assert psi == list(ref_psi)

    def test_no_model_number_reaches_the_source(self):
        """The source depends only on which coefficients are nonzero: two
        models of one pattern give one source, holding none of their
        numbers."""
        first = cross_diffusion3()
        scaled = AffineModel.from_arrays(
            a0=np.asarray(first.a0) * math.pi,
            a_slope=np.asarray(first.a_slope) * math.e,
            b0=np.asarray(first.b0) * 1.7,
            b_slope=np.asarray(first.b_slope) * 3.1)
        source, namespace = _rk4_program(first)
        assert _rk4_program(scaled)[0] == source
        for model in (first, scaled):
            for block in (model.a0, model.a_slope, model.b0, model.b_slope):
                for v in np.ravel(block):
                    if v not in (0.0, 0.5, 2.0, 6.0):
                        assert repr(float(v)) not in source
        assert len([v for v in namespace.values()
                    if isinstance(v, float)]) > 10


def fixed_pair(model, x, u, t, steps):
    """(value, phi, psi, step_error) of two fixed runs of the generated loop,
    at 2 * steps and at steps: the integrations of the cap."""
    source, namespace = _rk4_program(model)
    exec(source, namespace)
    psi0 = [1j * v for v in u]
    phi, psi = namespace["rk4"](psi0, t, 2 * steps)
    phi_c, psi_c = namespace["rk4"](psi0, t, steps)
    value = cmath.exp(phi + sum(p * v for p, v in zip(psi, x)))
    coarse = cmath.exp(phi_c + sum(p * v for p, v in zip(psi_c, x)))
    return value, phi, tuple(psi), abs(value - coarse)


def sweep(case, n=15):
    """n seeded (model, x, u, t, closed-form value) of one model, t log-
    uniform in [0.01, 5], u uniform in [-6, 6]."""
    rng = random.Random(f"riccati-ladder:{case}")
    for _ in range(n):
        t = 10.0 ** rng.uniform(-2.0, math.log10(5.0))
        u = rng.uniform(-6.0, 6.0)
        if case == "cir":
            x = rng.uniform(0.0, 0.3)
            yield cir(), [x], [u], t, cir_cf(CIR, x, u, t)
        elif case == "heston":
            x = [rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.1)]
            yield heston(), x, [u, 0.0], t, heston_cf(HESTON, *x, u, t)
        else:
            model, x = _bm_jumps(), [rng.uniform(-0.5, 0.5)]
            yield model, x, [u], t, levy_khintchine_cf(model, x, [u], t)


class TestStepHalving:
    """The first rung and the cap on a seeded sweep against the closed
    forms."""

    # |value - closed form| <= BOUND floors, ROUNDING_FLOOR |ref| (1 + |phi
    # + psi.x|), on the first rung: the rounding of a few hundred RK4 steps
    # on the exponent.  A point on the cap is the two fixed runs.
    BOUND = 32

    @pytest.mark.parametrize("case", ["bm_jumps", "cir", "heston"])
    def test_sweep_within_the_bound_of_the_closed_forms(self, case,
                                                        monkeypatch):
        runs = []
        program = oracle._rk4_program

        def counted(model):
            """The RK4 program, recording the step count of every run."""
            source, namespace = program(model)
            namespace["RUNS"] = runs
            return source + ("_rk4 = rk4\n"
                             "def rk4(psi0, t, steps):\n"
                             "    RUNS.append(steps)\n"
                             "    return _rk4(psi0, t, steps)\n"), namespace
        monkeypatch.setattr(oracle, "_rk4_program", counted)
        for model, x, u, t, ref in sweep(case):
            runs.clear()
            res = riccati_cf(model, x, u, t)
            if res.steps == 250:
                assert runs == [125, 250]
                assert abs(res.value - ref) <= self.BOUND * ROUNDING_FLOOR * \
                    abs(ref) * (1.0 + abs(_exponent(res, x)))
            else:
                assert res.steps == 4000 and runs == [125, 250, 4000, 2000]
                assert (res.value, res.phi, res.psi, res.step_error) == \
                    fixed_pair(model, x, u, t, 2000)

    @pytest.mark.parametrize("point", [
        (cir, [0.04], [2.0], 5.0),
        (heston, [0.1, 0.04], [4.0, 0.0], 4.0),
        (lambda: cir_model(CIRParams(b0=0.04, b1=-60.0, s=0.2)), [0.1],
         [3.0], 1.0),
    ], ids=["cir-t5", "heston-t4", "stiff-cir"])
    def test_a_point_on_the_cap_is_the_two_fixed_runs(self, point):
        model_fn, x, u, t = point
        model = model_fn()
        res = riccati_cf(model, x, u, t)
        assert res.steps == 4000
        assert (res.value, res.phi, res.psi, res.step_error) == fixed_pair(
            model, x, u, t, 2000)


class TestRefusals:
    """Both oracles refuse what the series modes refuse."""

    POINTS = {
        "negative-t": ([0.04], [1.0], -0.5, "t must be >= 0"),
        "nan-t": ([0.04], [1.0], math.nan, "t must be finite"),
        "inf-t": ([0.04], [1.0], math.inf, "t must be finite"),
        "nan-x": ([math.nan], [1.0], 0.5, "x and u must be finite"),
        "inf-u": ([0.04], [-math.inf], 0.5, "x and u must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(POINTS))
    def test_riccati(self, case):
        x, u, t, message = self.POINTS[case]
        with pytest.raises(ValueError, match=message):
            riccati_cf(cir(), x, u, t)

    @pytest.mark.parametrize("case", sorted(POINTS))
    def test_levy_khintchine(self, case):
        x, u, t, message = self.POINTS[case]
        with pytest.raises(ValueError, match=message):
            levy_khintchine_cf(bm_model(), x, u, t)


class TestLevyKhintchine:
    def test_drifted_bm(self):
        model = bm_model(a0=1.0, drift=0.3)
        x, u, t = 0.5, 1.2, 0.9
        expected = cmath.exp(1j * u * x + t * (1j * 0.3 * u - u * u / 2))
        assert abs(levy_khintchine_cf(model, [x], [u], t) - expected) <= 1e-14

    def test_gaussian_jump_cp(self):
        lam, m, var = 0.5, 0.1, 0.04
        model = gauss_jump_model(intensity=lam, mean=m, var=var)
        u, t = 1.5, 0.7
        expected = cmath.exp(
            t * lam * (cmath.exp(1j * u * m - u * u * var / 2) - 1))
        assert abs(levy_khintchine_cf(model, [0.0], [u], t) - expected) <= 1e-13

    def test_u0(self):
        assert levy_khintchine_cf(bm_model(), [0.0], [0.0], 1.0) == 1.0

    def test_rejects_slopes(self):
        with pytest.raises(ValueError):
            levy_khintchine_cf(vasicek_model(VASICEK), [0.0], [1.0], 1.0)

    def test_consistency_with_riccati(self):
        model = gauss_jump_model(a0=0.3, drift=0.1)
        for u in (0.5, 1.5, 3.0):
            a = levy_khintchine_cf(model, [0.1], [u], 0.8)
            b = riccati_cf(model, [0.1], [u], 0.8).value
            assert abs(a - b) <= 1e-9


class TestVasicek:
    def test_t0(self):
        assert vasicek_cf(VASICEK, 0.3, 1.2, 0.0) == pytest.approx(
            cmath.exp(1j * 1.2 * 0.3))

    def test_pure_mean_reversion(self):
        params = VasicekParams(a0=0.0, b0=0.0, b1=-0.4)
        x, u, t = 0.5, 1.1, 0.9
        expected = cmath.exp(1j * u * x * cmath.exp(-0.4 * t).real)
        assert vasicek_cf(params, x, u, t) == pytest.approx(expected)

    def test_vs_riccati(self):
        model = vasicek_model(VASICEK)
        for t in (0.3, 1.0, 2.0):
            a = vasicek_cf(VASICEK, 0.1, 1.0, t)
            b = riccati_cf(model, [0.1], [1.0], t).value
            assert abs(a - b) <= 1e-9

    def test_b1_zero_limit(self):
        params = VasicekParams(a0=0.02, b0=0.05, b1=0.0)
        model = vasicek_model(params)
        a = vasicek_cf(params, 0.1, 1.0, 1.0)
        b = riccati_cf(model, [0.1], [1.0], 1.0).value
        assert abs(a - b) <= 1e-9

    def test_b1_continuity_at_zero(self):
        near = VasicekParams(a0=0.02, b0=0.05, b1=1e-9)
        at = VasicekParams(a0=0.02, b0=0.05, b1=0.0)
        assert abs(vasicek_cf(near, 0.1, 1.0, 1.0)
                   - vasicek_cf(at, 0.1, 1.0, 1.0)) <= 1e-8


class TestHeston:
    def test_u0(self):
        assert abs(heston_cf(HESTON, 0.0, 0.04, 0.0, 1.0) - 1.0) <= 1e-14

    def test_t0(self):
        x = 0.3
        assert abs(heston_cf(HESTON, x, 0.04, 1.5, 0.0)
                   - cmath.exp(1j * 1.5 * x)) <= 1e-14

    def test_vs_riccati_grid(self):
        model = heston_model(HESTON)
        for t in (0.25, 1.0, 3.0):
            for u in (0.5, 1.0, 2.0):
                a = heston_cf(HESTON, 0.0, 0.04, u, t)
                b = riccati_cf(model, [0.0, 0.04], [u, 0.0], t).value
                assert abs(a - b) / abs(b) <= 1e-7

    def test_long_maturity_stable(self):
        # the stabilized (trap) form must not hit the log branch cut
        val = heston_cf(HESTON, 0.0, 0.04, 1.0, 30.0)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) <= 1.0 + 1e-9
