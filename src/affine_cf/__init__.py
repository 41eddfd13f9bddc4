"""Characteristic functions of affine jump-diffusions via symbol calculus.

The characteristic function of an affine process is computed as an explicit
power series in the symbol of the generator, with exact rational
coefficients.  The package also provides globalized evaluation through a
time transform, generalized series around solvable baselines, and
independent Riccati / Levy-Khintchine oracles.
"""

__version__ = "0.1.0"

from .gensym import (
    BASELINE_REGISTRY,
    BaselineSolution,
    brute_force_series,
    correction_series,
    eval_baseline_cf,
    eval_brute_force,
    eval_generalized,
    expression_baseline,
    heston_baseline,
    vasicek_baseline,
    zero_baseline,
)
from .kernels import USING_NUMBA, CompiledSeries, compile_series, evaluate_compiled
from .multiindex import (
    Enumeration,
    ExponentPair,
    enumerate_indices,
    flattened_indices,
    flattened_position,
    index_order,
    is_member,
    project,
    shift_alpha,
    shift_beta,
)
from .oracle import (
    CIRParams,
    HestonParams,
    IntegratorConfig,
    MomentExplosionError,
    RiccatiResult,
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
from .series_eval import (
    GLOBALIZED,
    LOCAL,
    BetaChoice,
    CFResult,
    TimeTransform,
    choose_beta,
    eval_globalized,
    eval_local,
    rho_jet,
    time_forward,
    time_inverse,
)
from .symalg import (
    AtomKey,
    SymPoly,
    cardinality_bound,
    coefficient_recursion,
    compare_counting,
    counting_triangle,
    cross_check,
    d_series,
    lambda_sum_cardinality,
    literal_counting_rows,
)
from .symbols import (
    AffineModel,
    BoundednessReport,
    ExponentialJumps,
    GaussianJumps,
    NoJumps,
    SymbolTable,
    UserJump,
    classify_boundedness,
    eval_symbol,
    eval_symbol_table,
    eval_symbol_table_xi,
    eval_symbol_xi,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    sup_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
