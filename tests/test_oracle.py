"""Independent oracles: Riccati RK4 vs the closed forms, and their contracts."""
import cmath
from pathlib import Path

import numpy as np
import pytest

from affine_cf.oracle import (
    CIRParams,
    HestonParams,
    IntegratorConfig,
    MomentExplosionError,
    VasicekParams,
    cir_cf,
    cir_model,
    heston_cf,
    heston_model,
    levy_khintchine_cf,
    riccati_cf,
    vasicek_cf,
    vasicek_model,
)
from affine_cf.symbols import AffineModel, eval_symbol, load_model

from helpers import CIR, HESTON, VASICEK, bm_model, cir, gauss_jump_model, heston

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
        coarse = riccati_cf(model, [0.1], [1.0], 1.0,
                            config=IntegratorConfig(steps=100))
        fine = riccati_cf(model, [0.1], [1.0], 1.0,
                          config=IntegratorConfig(steps=200))
        ratio = coarse.step_error / fine.step_error
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


class TestPinnedValues:
    """Values of the integrator recorded from the per-component numpy
    right-hand side it replaced, which the compiled scalar symbol reproduces
    bit for bit."""

    # (model, x, u, t, value, step_error) at the default 2000/4000 steps
    RICCATI = {
        "cir": (cir, [0.04], [1.3], 0.5,
                0.997388138300966 + 0.06341539249656683j,
                2.7755575615628914e-16),
        "heston": (heston, [0.0, 0.04], [1.0, 0.0], 1.0,
                   0.9834658305817257 + 0.0011444693283891082j,
                   1.110299254973338e-16),
        "bm_jumps": (_bm_jumps, [0.1], [1.5], 0.8,
                     0.6275170486628553 + 0.28346474866201443j,
                     1.9941487743625487e-14),
        "cir-t5": (cir, [0.04], [2.0], 5.0,
                   0.9825256417245474 + 0.1516461464303234j,
                   5.4672143489065705e-16),
    }

    @pytest.mark.parametrize("case", sorted(RICCATI))
    def test_riccati_value_and_step_error(self, case):
        model_fn, x, u, t, value, step_error = self.RICCATI[case]
        res = riccati_cf(model_fn(), x, u, t)
        assert abs(res.value - value) <= 1e-15 * abs(value)
        assert abs(res.step_error - step_error) <= 1e-15 * step_error
        assert isinstance(res.psi, np.ndarray) and res.psi.shape == (len(u),)

    def test_blow_up_time(self):
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        b_slope=[[30.0]])
        with pytest.raises(MomentExplosionError) as info:
            riccati_cf(model, [0.0], [1.0], 1.0)
        assert info.value.t_blowup == 0.61425


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
