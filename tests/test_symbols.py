"""Symbol evaluation, derivative rows, and model I/O."""
import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from affine_cf import symbols
from affine_cf.gensym import eval_generalized, zero_baseline
from affine_cf.multiindex import enumerate_indices
from affine_cf.oracle import levy_khintchine_cf, riccati_cf
from affine_cf.series_eval import eval_globalized, eval_local
from affine_cf.symalg import BASE, AtomKey
from affine_cf.symbols import (
    UNIT_BALL,
    AffineModel,
    ExponentialJumps,
    GaussianJumps,
    NoJumps,
    UserJump,
    component_rows,
    eval_symbol,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

from helpers import (atom_values, bm_model, cir, exponential_jumps,
                     gauss_jump_model, heston, unit_ball_gaussian, vasicek)


def gauss_density(z, mean, var):
    return np.exp(-((z - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


class TestEvalSymbol:
    def test_standard_bm(self):
        model = bm_model(a0=1.0)
        assert eval_symbol(model, [0.0], [2.0]) == pytest.approx(-2.0)

    def test_drifted_bm_x_independent(self):
        model = bm_model(a0=1.0, drift=0.7)
        u = 1.3
        expected = -u * u / 2 + 1j * 0.7 * u
        for x in (-1.0, 0.0, 2.5):
            assert eval_symbol(model, [x], [u]) == pytest.approx(expected)

    def test_gaussian_jump_closed_form(self):
        lam, m, var = 0.5, 0.1, 0.04
        model = gauss_jump_model(intensity=lam, mean=m, var=var)
        u = 1.7
        expected = lam * (cmath.exp(1j * u * m - u * u * var / 2) - 1)
        assert eval_symbol(model, [0.0], [u]) == pytest.approx(expected, abs=1e-14)

    def test_gaussian_jump_vs_quadrature(self):
        lam, m, var = 0.5, 0.1, 0.04
        model = gauss_jump_model(intensity=lam, mean=m, var=var)
        u = 1.7

        def integrand(z):
            return (np.exp(1j * u * z) - 1) * lam * gauss_density(z, m, var)

        re, _ = integrate.quad(lambda z: integrand(z).real, -3, 3, limit=200)
        im, _ = integrate.quad(lambda z: integrand(z).imag, -3, 3, limit=200)
        assert abs(eval_symbol(model, [0.0], [u]) - (re + 1j * im)) < 1e-10

    def test_exponential_jump_vs_quadrature(self):
        lam, theta = 0.4, 3.0
        jump = ExponentialJumps(intensity=lam, rates=[theta])
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        jumps=(jump, NoJumps()))
        u = 1.1

        def integrand(z):
            return (np.exp(1j * u * z) - 1) * lam * theta * np.exp(-theta * z)

        re, _ = integrate.quad(lambda z: integrand(z).real, 0, 40, limit=200)
        im, _ = integrate.quad(lambda z: integrand(z).imag, 0, 40, limit=200)
        assert abs(eval_symbol(model, [0.0], [u]) - (re + 1j * im)) < 1e-10

    @pytest.mark.parametrize("model_fn", [bm_model, gauss_jump_model,
                                          vasicek, cir])
    def test_sigma_vanishes_at_u0(self, model_fn):
        model = model_fn()
        x = [0.3] * model.dimension
        assert eval_symbol(model, x, [0.0] * model.dimension) == 0.0

    def test_hermitian_symmetry(self):
        model = gauss_jump_model(a0=0.3, drift=0.1)
        for u in (0.5, 1.0, 2.7):
            a = eval_symbol(model, [0.2], [u])
            b = eval_symbol(model, [0.2], [-u])
            assert abs(a - b.conjugate()) < 1e-12

    def test_affinity(self):
        model = heston()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, 2)
            u = rng.uniform(-3, 3, 2)
            rows = component_rows(model, 1j * u, 0)[1]
            lhs = eval_symbol(model, x, u) - eval_symbol(model, [0, 0], u)
            rhs = sum(x[l] * rows[l + 1][0] for l in range(2))
            assert abs(lhs - rhs) < 1e-12


MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


COMPONENT_CASES = [
    *(pytest.param(MODEL_DIR / f"{name}.json", id=name)
      for name in ("bm", "bm_jumps", "cir", "heston", "vasicek")),
    pytest.param(unit_ball_gaussian, id="unit-ball-gaussian"),
    pytest.param(exponential_jumps, id="exponential"),
]


def component_deriv(model: AffineModel, c: int, xi: np.ndarray) -> complex:
    """Order-0 value of symbol component c at xi from the module docstring's
    formula, written out in numpy: 1/2 xi^T a xi + b . xi + J(0, xi) - mass,
    less xi . comp under unit-ball truncation."""
    d = model.dimension
    if c == 0:
        a, b = np.asarray(model.a0, float), np.asarray(model.b0, float)
    else:
        a = np.asarray(model.a_slope[c - 1], float)
        b = np.asarray(model.b_slope, float)[:, c - 1]
    val = 0.5 * (xi @ a @ xi) + b @ xi
    jump = model.jumps[c]
    if not isinstance(jump, NoJumps):
        val += jump.moments([(0,) * d], xi.tolist())[0] - jump.total_mass
        if model.truncation == UNIT_BALL:
            val -= sum(xi[j] * jump.compensator(j) for j in range(d))
    return complex(val)


def component_case(source) -> AffineModel:
    return load_model(source) if isinstance(source, Path) else source()


class TestSymbolComponents:
    """The compiled components against the symbol's formula and its
    derivatives."""

    @pytest.mark.parametrize("source", COMPONENT_CASES)
    def test_matches_component_deriv(self, source):
        model = component_case(source)
        d = model.dimension
        rng = np.random.default_rng(20)
        for _ in range(40):
            # Re(xi) < 2 keeps the exponential transforms (rates 3, 5) finite.
            xi = rng.uniform(-2, 2, d) + 1j * rng.uniform(-3, 3, d)
            got = [row[0] for row in component_rows(model, xi, 0)[1]]
            assert len(got) == d + 1
            for c in range(d + 1):
                ref = component_deriv(model, c, xi)
                assert abs(got[c] - ref) <= 1e-14 * abs(ref), (c, xi)

    @pytest.mark.parametrize("source", COMPONENT_CASES)
    def test_orders_1_and_2_are_central_differences(self, source):
        # d/dxi_j of the row entry at eps is the entry at eps + e_j, for
        # the constant part's row and for every slope's row
        model = component_case(source)
        d = model.dimension
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(5):
            xi = rng.uniform(-1, 1, d) + 1j * rng.uniform(-3, 3, d)
            pattern, rows = component_rows(model, xi, 2)
            for j in range(d):
                step = h * np.eye(d)[j]
                keys, rows_up = component_rows(model, xi + step, 1)
                _, rows_down = component_rows(model, xi - step, 1)
                for row, row_up, row_down in zip(rows, rows_up, rows_down):
                    tab = dict(zip(pattern, row))
                    for eps, up, down in zip(keys, row_up, row_down):
                        fd = (up - down) / (2 * h)
                        exact = tab[tuple(e + (i == j) for i, e in enumerate(eps))]
                        assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact)), \
                            (eps, j, xi)

    @pytest.mark.parametrize("model_fn", [cir, heston, vasicek])
    def test_jump_free_table_is_exactly_zero_above_order_2(self, model_fn):
        # the rows hold only the live entries, every key to order 2; the
        # atom values give every key to max_order, exact zeros above 2
        model = model_fn()
        d = model.dimension
        xi = 1j * np.full(d, 0.8)
        pattern, rows = component_rows(model, xi, 6)
        keys = [eps for k in range(7) for eps in enumerate_indices(d, k)]
        live = [eps for eps in keys if sum(eps) <= 2]
        assert list(pattern) == live
        assert all(len(row) == len(live) for row in rows)
        values = atom_values(model, np.full(d, 0.3), xi, 6)
        for l in range(d + 1):
            row = [(atom.deriv, v) for atom, v in values.items() if atom.l == l]
            assert [eps for eps, _ in row] == keys
            assert all(v == 0.0 for eps, v in row if sum(eps) > 2)
        assert any(values[AtomKey(BASE, 0, eps)] != 0.0
                   for eps in live if sum(eps) == 2)

    def test_jump_components_hold_every_order(self):
        # only the component with jumps carries entries above order 2
        model = component_case(MODEL_DIR / "bm_jumps.json")
        pattern, rows = component_rows(model, [0.8j], 6)
        assert list(pattern) == [(k,) for k in range(7)]
        assert [len(row) for row in rows] == [7, 3]
        assert atom_values(model, [0.3], [0.8j], 6)[AtomKey(BASE, 0, (5,))] \
            == rows[0][5]


class TestSymbolTable:
    """The derivative rows of ``component_rows`` at single points."""

    def test_bm_first_derivative_is_i(self):
        # sigma = xi^2/2 under xi = iu, so d_xi sigma at u=1 equals i
        model = bm_model(a0=1.0)
        row = component_rows(model, [1j], 2)[1][0]
        assert row[1] == pytest.approx(1j)
        assert row[2] == pytest.approx(1.0)

    def test_slope_symbol_drift_only(self):
        model = AffineModel.from_arrays(b_slope=[[0.4, 0.0], [0.2, 0.0]],
                                        dimension=2)
        u = np.array([1.5, -0.5])
        rows = component_rows(model, 1j * u, 0)[1]
        expected = 1j * (0.4 * u[0] + 0.2 * u[1])
        assert rows[1][0] == pytest.approx(expected)
        assert rows[2][0] == pytest.approx(0.0)

    def test_gaussian_third_moment_vs_quadrature(self):
        lam, m, var = 0.5, 0.1, 0.04
        model = gauss_jump_model(intensity=lam, mean=m, var=var)
        u = 0.9
        row = component_rows(model, [1j * u], 3)[1][0]

        def integrand(z):
            return z ** 3 * np.exp(1j * u * z) * lam * gauss_density(z, m, var)

        re, _ = integrate.quad(lambda z: integrand(z).real, -3, 3, limit=200)
        im, _ = integrate.quad(lambda z: integrand(z).imag, -3, 3, limit=200)
        assert abs(row[3] - (re + 1j * im)) < 1e-10

    def test_gaussian_moment_order_20_closed_form(self):
        # J(n, xi) = lam mgf(xi) E[Y^n] with Y ~ N(m + var xi, var) by
        # exponential tilting; E[Y^n] = sum_{j even} C(n, j) mu^(n-j) var^(j/2) (j-1)!!
        lam, m, var, n = 0.5, 0.1, 0.04, 20
        xi = 0.9j
        mu = m + var * xi
        hermite = sum(math.comb(n, j) * mu ** (n - j) * var ** (j // 2)
                      * math.prod(range(j - 1, 0, -2))
                      for j in range(0, n + 1, 2))
        expected = lam * cmath.exp(xi * m + 0.5 * var * xi ** 2) * hermite
        jump = GaussianJumps(intensity=lam, mean=[m], cov=[[var]])
        got = jump.moments([(k,) for k in range(n + 1)], [xi])[n]
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("source", [MODEL_DIR / "bm_jumps.json",
                                        unit_ball_gaussian])
    def test_gaussian_moments_match_the_per_index_moment(self, source):
        # a key's moment from the full graded batch equals its moment from
        # a batch of only its own box: it does not depend on the other keys
        model = component_case(source)
        d = model.dimension
        keys = [eps for k in range(1, 13 // d + 1)
                for eps in enumerate_indices(d, k)]
        rng = np.random.default_rng(3)
        for jump in model.jumps:
            if not isinstance(jump, GaussianJumps):
                continue
            for _ in range(4):
                xi = (rng.uniform(-1, 1, d)
                      + 1j * rng.uniform(-3, 3, d)).tolist()
                batch = jump.moments(keys, xi)
                for eps, got in zip(keys, batch):
                    box = list(itertools.product(*(range(e + 1) for e in eps)))
                    ref = jump.moments(box, xi)[-1]
                    assert abs(got - ref) <= 1e-15 * abs(ref), (eps, xi)

    @pytest.mark.parametrize("model_fn", [gauss_jump_model, vasicek, heston])
    def test_finite_differences(self, model_fn):
        model = model_fn()
        d = model.dimension
        x = np.full(d, 0.3)
        u = np.full(d, 0.8)
        h = 1e-5
        values = atom_values(model, x, 1j * u, 2)
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            # d/d(xi_j) = -i d/d(u_j) under xi = iu
            fd = (eval_symbol(model, x, u + h * e)
                  - eval_symbol(model, x, u - h * e)) / (2 * h) * -1j
            exact = values[AtomKey(BASE, 0, tuple(int(v) for v in e))]
            assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))

    def test_jump_free_table_enumerates_to_order_two_only(self, monkeypatch):
        # above order 2 only jumps give entries, so jump-free rows never
        # enumerate the multi-indices of degree up to their order
        orders = []
        enumerate_to = symbols.flattened_indices

        def recording(d, max_order):
            orders.append(max_order)
            return enumerate_to(d, max_order)

        monkeypatch.setattr(symbols, "flattened_indices", recording)
        pattern, _ = component_rows(heston(), [1j, 0j], 15)
        assert max(orders) == 3
        assert max(map(sum, pattern)) == 2
        orders.clear()
        component_rows(gauss_jump_model(), [1j], 15)
        assert max(orders) == 16

    def test_user_jump_capability_error(self):
        jump = UserJump(transform=lambda eps, xi: 0.0, total_mass=0.0,
                        max_order=2)
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        jumps=(jump, NoJumps()))
        with pytest.raises(ValueError, match="order"):
            component_rows(model, [1j], 3)


class TestCompiledOnce:
    def test_each_model_compiles_its_symbol_once(self, monkeypatch):
        real = symbols._compile
        compiled = []
        monkeypatch.setattr(symbols, "_compile",
                            lambda model: compiled.append(model) or real(model))
        model, other = unit_ball_gaussian(), unit_ball_gaussian()
        for u in (0.5, 1.5):
            component_rows(model, [1j * u, 0j], 4)
        eval_symbol(model, [0.2, 0.1], [1.0, 0.0])
        assert len(compiled) == 1 and compiled[0] is model
        component_rows(other, [0.5j, 0j], 4)
        assert len(compiled) == 2 and compiled[1] is other

    def test_the_model_stays_equal_and_hashable(self):
        model = heston()
        before = hash(model)
        component_rows(model, [1j, 0j], 4)
        assert hash(model) == before and model == heston()


class TestModelIO:
    @pytest.mark.parametrize("model_fn", [bm_model, gauss_jump_model,
                                          vasicek, cir, heston])
    def test_round_trip(self, model_fn):
        model = model_fn()
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again == model
        # bit for bit, down to the float type of every entry
        assert repr(again) == repr(model)

    def test_exponential_round_trip(self):
        jump = ExponentialJumps(intensity=0.4, rates=[3.0])
        model = AffineModel.from_arrays(a0=[[0.1]], b0=[0.0],
                                        jumps=(jump, NoJumps()))
        assert model_from_json(model_to_json(model)) == model

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(heston(), path)
        assert load_model(path) == heston()

    def test_user_jump_not_serializable(self):
        jump = UserJump(transform=lambda eps, xi: 0.0, total_mass=0.0,
                        max_order=2)
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        jumps=(jump, NoJumps()))
        with pytest.raises((TypeError, ValueError)):
            model_to_json(model)

    def test_schema_error_names_field(self):
        with pytest.raises((KeyError, ValueError)):
            model_from_json({"dimension": 1, "a0": [[1.0]]})


class TestNonFiniteCoefficients:
    BLOCKS = {
        "a0": dict(a0=[[math.inf]]),
        "a_slope": dict(a_slope=[[[math.nan]]]),
        "b0": dict(b0=[math.nan]),
        "b_slope": dict(b_slope=[[-math.inf]]),
    }

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_refused_naming_the_block(self, block):
        with pytest.raises(ValueError, match=f"^{block} must be finite"):
            AffineModel.from_arrays(dimension=1, **self.BLOCKS[block])

    def test_a_json_file_holding_nan_is_refused(self, tmp_path):
        obj = model_to_json(cir())
        obj["b_slope"][0][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="b_slope must be finite"):
            load_model(path)


class TestJumpSpecs:
    """A jump spec whose dimension is not the model's, or whose intensity
    is not finite, is refused with a ValueError naming it."""

    @pytest.mark.parametrize("build,message", [
        (lambda: AffineModel.from_arrays(
            a0=[[0.1]], jumps=(ExponentialJumps(0.5, (3.0, 5.0)), NoJumps())),
         r"^jumps\[0\] has dimension 2, but the model has dimension 1"),
        (lambda: AffineModel.from_arrays(
            a0=np.eye(2), jumps=(NoJumps(), ExponentialJumps(0.5, (3.0,)),
                                 NoJumps())),
         r"^jumps\[1\] has dimension 1, but the model has dimension 2"),
        (lambda: AffineModel.from_arrays(
            a0=np.eye(2), jumps=(GaussianJumps(0.5, [0.1], [[0.04]]),
                                 NoJumps(), NoJumps())),
         r"^jumps\[0\] has dimension 1, but the model has dimension 2"),
        (lambda: GaussianJumps(math.nan, [0.1], [[0.04]]),
         "^intensity must be finite"),
        (lambda: ExponentialJumps(math.inf, [3.0]),
         "^intensity must be finite"),
        # a 1-d model read only cov[0][0] of a 2 x 2 cov
        (lambda: GaussianJumps(1.0, [0.1], [[0.5, 0.3], [0.3, 0.5]]),
         r"^cov must be 1 x 1 to match mean, got shape \(2, 2\)$"),
        (lambda: model_from_json({
            "dimension": 1, "a0": [[0.1]], "a_slope": [[[0.0]]], "b0": [0.0],
            "b_slope": [[0.0]], "jumps": [
                {"type": "gaussian", "intensity": 1.0, "mean": [0.1],
                 "cov": [[0.5, 0.3], [0.3, 0.5]]}, {"type": "none"}]}),
         r"^cov must be 1 x 1 to match mean, got shape \(2, 2\)$"),
        # and a 2-entry mean with a 1 x 1 cov met a bare IndexError
        (lambda: GaussianJumps(1.0, [0.1, 0.2], [[0.5]]),
         r"^cov must be 2 x 2 to match mean, got shape \(1, 1\)$"),
    ], ids=["two-rates-in-1d", "one-rate-in-2d", "1d-gaussian-in-2d",
            "nan-intensity", "inf-intensity", "2x2-cov-of-1d-mean",
            "2x2-cov-of-1d-mean-json", "1x1-cov-of-2d-mean"])
    def test_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestDimensionCheck:
    """Every entry refuses an x or u whose length is not the model's
    dimension, naming both lengths."""

    ENTRIES = {
        "eval_local": lambda m, x, u: eval_local(m, x, u, 0.5, 8),
        "eval_globalized": lambda m, x, u: eval_globalized(m, x, u, 0.5, 8),
        "eval_generalized": lambda m, x, u: eval_generalized(
            m, zero_baseline(1), x, u, 0.5, 8),
        "riccati_cf": lambda m, x, u: riccati_cf(m, x, u, 0.5),
        "levy_khintchine_cf": lambda m, x, u: levy_khintchine_cf(m, x, u, 0.5),
        "eval_symbol": eval_symbol,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("x,u,message", [
        ([0.1, 0.2], [1.0], "^x has length 2, but the model has dimension 1"),
        ([0.1], [1.0, 1.0],
         "^(u|xi) has length 2, but the model has dimension 1"),
    ], ids=["long-x", "long-u"])
    def test_refused_naming_the_lengths(self, entry, x, u, message):
        # a 1-d model without slopes, so the Levy-Khintchine form applies
        with pytest.raises(ValueError, match=message):
            self.ENTRIES[entry](bm_model(), x, u)


class TestSemiellipticity:
    def test_positive_models_pass(self):
        assert bm_model().check_semielliptic()
        assert heston().check_semielliptic()

    def test_negative_diffusion_fails(self):
        model = AffineModel.from_arrays(a0=[[-1.0]], dimension=1)
        assert not model.check_semielliptic()


@given(st.floats(-2, 2), st.floats(-3, 3))
@settings(deadline=None, max_examples=40)
def test_affinity_property_vasicek(x, u):
    model = vasicek()
    rows = component_rows(model, [1j * u], 0)[1]
    lhs = eval_symbol(model, [x], [u]) - eval_symbol(model, [0.0], [u])
    rhs = x * rows[1][0]
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
