"""Characteristic functions of affine jump-diffusions via symbol calculus.

The characteristic function of an affine process is computed as an explicit
power series in the symbol of the generator, with exact rational
coefficients.  The package also provides globalized evaluation along the
affine semiflow, generalized series around solvable baselines, and
independent Riccati / Levy-Khintchine oracles.

The exports below are imported on first use (PEP 562), so the exact engine
(``symalg``, ``multiindex``) starts without the numeric layers, and the
numeric layers start without ``symalg``.  No module imports numpy, except
where a user jump transform (``symbols.UserJump``) is handed its complex
ndarray argument.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "gensym": (
        "BASELINE_REGISTRY",
        "BaselineSolution",
        "correction_series",
        "eval_baseline_cf",
        "eval_generalized",
        "heston_baseline",
        "vasicek_baseline",
        "zero_baseline",
    ),
    "multiindex": ("enumerate_indices", "flattened_indices", "flattened_position"),
    "oracle": (
        "CIRParams",
        "HestonParams",
        "IntegratorConfig",
        "MomentExplosionError",
        "RiccatiResult",
        "VasicekParams",
        "cir_cf",
        "cir_model",
        "heston_cf",
        "heston_model",
        "levy_khintchine_cf",
        "riccati_cf",
        "vasicek_cf",
        "vasicek_model",
    ),
    "series_eval": (
        "GLOBALIZED",
        "LOCAL",
        "CFResult",
        "TimeTransform",
        "eval_globalized",
        "eval_local",
        "time_forward",
        "time_inverse",
    ),
    "symalg": (
        "AtomKey",
        "SymPoly",
        "cardinality_bound",
        "coefficient_recursion",
        "compare_counting",
        "counting_triangle",
        "cross_check",
        "d_series",
        "lambda_sum_cardinality",
        "literal_counting_rows",
    ),
    "symbols": (
        "AffineModel",
        "ExponentialJumps",
        "GaussianJumps",
        "NoJumps",
        "SymbolTable",
        "UserJump",
        "eval_symbol",
        "eval_symbol_table",
        "eval_symbol_table_xi",
        "eval_symbol_xi",
        "load_model",
        "model_from_json",
        "model_to_json",
        "save_model",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
