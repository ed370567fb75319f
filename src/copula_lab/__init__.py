"""Mixing coefficients of copula-driven stationary Markov chains.

Discretize bivariate copulas onto uniform grids, compose them with the
fold product, compute five mixing coefficients exactly over the grid
sigma-algebra, machine-check the density/mixture/divergence bounds that
govern their decay, and simulate the chains to compare.
"""

import os

# Cap BLAS/OpenMP parallelism before numpy loads its backend. The value
# overrides any OMP/OpenBLAS/MKL/numexpr thread variable already set, so
# the program's own setting wins. "0" or unset means auto (leave those
# variables and the backend defaults alone); only effective if numpy has
# not been imported elsewhere first.
_threads = os.environ.get("COPULA_LAB_THREADS")
if _threads and _threads.isdigit() and _threads != "0":
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = _threads
del os

__version__ = "0.1.0"

from .errors import NumericalError, OutputError, ValidationError
from .families import (
    ON_SINGULAR,
    CopulaSpec,
    Frechet,
    FrechetParams,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    canonical_spec_json,
    conditional_cdf,
    eval_ac_density,
    eval_cdf,
    frechet_fold_params,
    parse_spec,
    serialize_spec,
    spec_digest,
    spec_to_json,
)
from .grid import (
    GridCopula,
    coarsen,
    discretize,
    fold_power,
    fold_product,
    mix_grids,
    read_grid_csv,
    write_grid_csv,
)
from .coefficients import (
    MixingReport,
    MixingRow,
    beta,
    brute_force_coefficient,
    phi,
    psi,
    psi_prime,
    report,
    rho,
)
from .bounds import (
    BoundCheckResult,
    DivergenceRow,
    PsiDivergenceTable,
    RateTable,
    exponential_rate_table,
    min_ac_density,
    psi_divergence_table,
    tuple_decomposition_check,
    verify_density_bound,
    verify_mixture_bound,
)
from .chains import (
    ChainSample,
    EmpiricalLagStats,
    Marginal,
    empirical_lag_stats,
    marginal_invariance_check,
    sample_chain,
)

__all__ = [
    "__version__",
    "ValidationError",
    "NumericalError",
    "OutputError",
    "ON_SINGULAR",
    "CopulaSpec",
    "Independence",
    "HoeffdingLower",
    "HoeffdingUpper",
    "Frechet",
    "Mardia",
    "MarshallOlkin",
    "Mixture",
    "GridSpec",
    "FrechetParams",
    "eval_cdf",
    "eval_ac_density",
    "conditional_cdf",
    "frechet_fold_params",
    "parse_spec",
    "serialize_spec",
    "spec_to_json",
    "canonical_spec_json",
    "spec_digest",
    "GridCopula",
    "discretize",
    "fold_product",
    "fold_power",
    "mix_grids",
    "coarsen",
    "write_grid_csv",
    "read_grid_csv",
    "rho",
    "phi",
    "beta",
    "psi_prime",
    "psi",
    "brute_force_coefficient",
    "MixingRow",
    "MixingReport",
    "report",
    "BoundCheckResult",
    "RateTable",
    "DivergenceRow",
    "PsiDivergenceTable",
    "min_ac_density",
    "verify_density_bound",
    "tuple_decomposition_check",
    "verify_mixture_bound",
    "exponential_rate_table",
    "psi_divergence_table",
    "Marginal",
    "ChainSample",
    "EmpiricalLagStats",
    "sample_chain",
    "empirical_lag_stats",
    "marginal_invariance_check",
]
