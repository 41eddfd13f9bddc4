"""Symbol evaluation, derivative tables, and model I/O."""
import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from affine_cf import symbols
from affine_cf.multiindex import enumerate_indices
from affine_cf.symalg import BASE, AtomKey
from affine_cf.symbols import (
    UNIT_BALL,
    AffineModel,
    ExponentialJumps,
    GaussianJumps,
    NoJumps,
    UserJump,
    eval_symbol,
    eval_symbol_table,
    eval_symbol_table_xi,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    symbol_components,
)

from helpers import (bm_model, cir, exponential_jumps, gauss_jump_model,
                     heston, unit_ball_gaussian, vasicek)


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
            table = eval_symbol_table(model, x, u, 0)
            zero = (0, 0)
            lhs = eval_symbol(model, x, u) - eval_symbol(model, [0, 0], u)
            rhs = sum(x[l] * table.slope[l][zero] for l in range(2))
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
        val += jump.moment((0,) * d, xi) - jump.total_mass
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
        sigma = symbol_components(model)
        rng = np.random.default_rng(20)
        for _ in range(40):
            # Re(xi) < 2 keeps the exponential transforms (rates 3, 5) finite.
            xi = rng.uniform(-2, 2, d) + 1j * rng.uniform(-3, 3, d)
            got = sigma([complex(z) for z in xi])
            assert len(got) == d + 1
            for c in range(d + 1):
                ref = component_deriv(model, c, xi)
                assert abs(got[c] - ref) <= 1e-14 * abs(ref), (c, xi)

    @pytest.mark.parametrize("source", COMPONENT_CASES)
    def test_orders_1_and_2_are_central_differences(self, source):
        # d/dxi_j of the table entry at eps is the entry at eps + e_j, for
        # the base table at x and for every slope table
        model = component_case(source)
        d = model.dimension
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, d)
            xi = rng.uniform(-1, 1, d) + 1j * rng.uniform(-3, 3, d)
            table = eval_symbol_table_xi(model, x, xi, 2)
            for j in range(d):
                step = h * np.eye(d)[j]
                up = eval_symbol_table_xi(model, x, xi + step, 1)
                down = eval_symbol_table_xi(model, x, xi - step, 1)
                for tab, tab_up, tab_down in zip(
                        [table.base, *table.slope],
                        [up.base, *up.slope], [down.base, *down.slope]):
                    for eps in tab_up:
                        fd = (tab_up[eps] - tab_down[eps]) / (2 * h)
                        exact = tab[tuple(e + (i == j) for i, e in enumerate(eps))]
                        assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact)), \
                            (eps, j, xi)

    @pytest.mark.parametrize("model_fn", [cir, heston, vasicek])
    def test_jump_free_table_is_exactly_zero_above_order_2(self, model_fn):
        # the tables hold only the live entries, every key to order 2; the
        # atom values give every key to max_order, exact zeros above 2
        model = model_fn()
        d = model.dimension
        table = eval_symbol_table(model, np.full(d, 0.3), np.full(d, 0.8), 6)
        keys = [eps for k in range(7) for eps in enumerate_indices(d, k).indices]
        live = [eps for eps in keys if sum(eps) <= 2]
        for tab in (table.base, *table.slope):
            assert list(tab) == live
        values = table.atom_values()
        for l in range(d + 1):
            row = [(atom.deriv, v) for atom, v in values.items() if atom.l == l]
            assert [eps for eps, _ in row] == keys
            assert all(v == 0.0 for eps, v in row if sum(eps) > 2)
        assert any(table.base[eps] != 0.0 for eps in live if sum(eps) == 2)

    def test_jump_components_hold_every_order(self):
        # only the component with jumps carries entries above order 2
        model = component_case(MODEL_DIR / "bm_jumps.json")
        table = eval_symbol_table(model, [0.3], [0.8], 6)
        assert list(table.base) == [(k,) for k in range(7)]
        assert list(table.slope[0]) == [(0,), (1,), (2,)]
        assert table.atom_values()[AtomKey(BASE, 0, (5,))] == table.base[(5,)]


class TestSymbolTable:
    def test_bm_first_derivative_is_i(self):
        # sigma = xi^2/2 under xi = iu, so d_xi sigma at u=1 equals i
        model = bm_model(a0=1.0)
        table = eval_symbol_table(model, [0.0], [1.0], 2)
        assert table.base[(1,)] == pytest.approx(1j)
        assert table.base[(2,)] == pytest.approx(1.0)

    def test_slope_symbol_drift_only(self):
        model = AffineModel.from_arrays(b_slope=[[0.4, 0.0], [0.2, 0.0]],
                                        dimension=2)
        u = np.array([1.5, -0.5])
        table = eval_symbol_table(model, [0.0, 0.0], u, 0)
        expected = 1j * (0.4 * u[0] + 0.2 * u[1])
        assert table.slope[0][(0, 0)] == pytest.approx(expected)
        assert table.slope[1][(0, 0)] == pytest.approx(0.0)

    def test_gaussian_third_moment_vs_quadrature(self):
        lam, m, var = 0.5, 0.1, 0.04
        model = gauss_jump_model(intensity=lam, mean=m, var=var)
        u = 0.9
        table = eval_symbol_table(model, [0.0], [u], 3)

        def integrand(z):
            return z ** 3 * np.exp(1j * u * z) * lam * gauss_density(z, m, var)

        re, _ = integrate.quad(lambda z: integrand(z).real, -3, 3, limit=200)
        im, _ = integrate.quad(lambda z: integrand(z).imag, -3, 3, limit=200)
        assert abs(table.base[(3,)] - (re + 1j * im)) < 1e-10

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
        got = jump.moment((n,), np.array([xi]))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("source", [MODEL_DIR / "bm_jumps.json",
                                        unit_ball_gaussian])
    def test_gaussian_moments_match_the_per_index_moment(self, source):
        # the tables take every tilted moment at one xi from one recursion
        model = component_case(source)
        d = model.dimension
        keys = [eps for k in range(1, 13 // d + 1)
                for eps in enumerate_indices(d, k).indices]
        rng = np.random.default_rng(3)
        for jump in model.jumps:
            if not isinstance(jump, GaussianJumps):
                continue
            for _ in range(4):
                xi = rng.uniform(-1, 1, d) + 1j * rng.uniform(-3, 3, d)
                batch = jump.moments(keys, xi)
                for eps, got in zip(keys, batch):
                    ref = jump.moment(eps, xi)
                    assert abs(got - ref) <= 1e-15 * abs(ref), (eps, xi)

    @pytest.mark.parametrize("model_fn", [gauss_jump_model, vasicek, heston])
    def test_finite_differences(self, model_fn):
        model = model_fn()
        d = model.dimension
        x = np.full(d, 0.3)
        u = np.full(d, 0.8)
        h = 1e-5
        table = eval_symbol_table(model, x, u, 2)
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            # d/d(xi_j) = -i d/d(u_j) under xi = iu
            fd = (eval_symbol(model, x, u + h * e)
                  - eval_symbol(model, x, u - h * e)) / (2 * h) * -1j
            eps = tuple(int(v) for v in e)
            exact = table.base[eps]
            assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))

    def test_jump_free_table_enumerates_to_order_two_only(self, monkeypatch):
        # above order 2 only jumps give entries, so a jump-free table never
        # enumerates the multi-indices of degree up to its order
        orders = []
        enumerate_to = symbols.flattened_indices

        def recording(d, max_order):
            orders.append(max_order)
            return enumerate_to(d, max_order)

        monkeypatch.setattr(symbols, "flattened_indices", recording)
        table = eval_symbol_table(heston(), [0.0, 0.0], [1.0, 0.0], 15)
        assert max(orders) == 3
        assert max(map(sum, table.base)) == 2
        orders.clear()
        eval_symbol_table(gauss_jump_model(), [0.0], [1.0], 15)
        assert max(orders) == 16

    def test_user_jump_capability_error(self):
        jump = UserJump(transform=lambda eps, xi: 0.0, total_mass=0.0,
                        max_order=2)
        model = AffineModel.from_arrays(a0=[[0.0]], b0=[0.0],
                                        jumps=(jump, NoJumps()))
        with pytest.raises(ValueError, match="order"):
            eval_symbol_table(model, [0.0], [1.0], 3)


class TestCompiledOnce:
    def test_each_model_compiles_its_symbol_once(self, monkeypatch):
        real = symbols._compile
        compiled = []
        monkeypatch.setattr(symbols, "_compile",
                            lambda model: compiled.append(model) or real(model))
        model, other = unit_ball_gaussian(), unit_ball_gaussian()
        for u in (0.5, 1.5):
            eval_symbol_table(model, [0.2, 0.1], [u, 0.0], 4)
        symbol_components(model)([1j, 0j])
        assert len(compiled) == 1 and compiled[0] is model
        eval_symbol_table(other, [0.2, 0.1], [0.5, 0.0], 4)
        assert len(compiled) == 2 and compiled[1] is other

    def test_the_model_stays_equal_and_hashable(self):
        model = heston()
        before = hash(model)
        eval_symbol_table(model, [0.1, 0.04], [1.0, 0.0], 4)
        assert hash(model) == before and model == heston()


class TestModelIO:
    @pytest.mark.parametrize("model_fn", [bm_model, gauss_jump_model,
                                          vasicek, cir, heston])
    def test_round_trip(self, model_fn):
        model = model_fn()
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again == model

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
    table = eval_symbol_table(model, [x], [u], 0)
    lhs = eval_symbol(model, [x], [u]) - eval_symbol(model, [0.0], [u])
    rhs = x * table.slope[0][(0,)]
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
