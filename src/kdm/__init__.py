"""Kernel density machines.

Estimates the density ratio dQ/dP between two samples as a prior guess plus
an RKHS correction, fitted through a pivoted incomplete Cholesky
decomposition so the linear algebra stays low-rank.  On top of the estimator
sit a chi-square test of the prior ratio (independence testing as a special
case), conditional-distribution estimation from joint samples, simulation
benchmarks, and forecast scoring metrics.

Submodules are imported lazily so the console script can pin BLAS thread
pools before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # kernels
    "KernelSpec": "kernels",
    "Dataset": "kernels",
    "Standardizer": "kernels",
    "cross_kernel_matrix": "kernels",
    "kernel_diagonal": "kernels",
    "kernel_sup": "kernels",
    "kernel_sup_is_empirical": "kernels",
    # lowrank
    "CholeskyFactors": "lowrank",
    "KernelOracle": "lowrank",
    "NumericsError": "lowrank",
    "greedy_pivot": "lowrank",
    "omp_pivot": "lowrank",
    "pivoted_cholesky": "lowrank",
    # estimator
    "CvResult": "estimator",
    "KdmModel": "estimator",
    "PriorSpec": "estimator",
    "cross_validate": "estimator",
    "eval_density_ratio": "estimator",
    "eval_h": "estimator",
    "fit": "estimator",
    "h_norm": "estimator",
    "load_model": "estimator",
    "save_model": "estimator",
    # hypothesis
    "C_coefficients": "hypothesis",
    "TestResult": "hypothesis",
    "chi_square_upper_tail": "hypothesis",
    "finite_sample_bound": "hypothesis",
    "run_test": "hypothesis",
    # conditional
    "ConditionalModel": "conditional",
    "JointDataset": "conditional",
    "conditional_expectation": "conditional",
    "conditional_moments": "conditional",
    "conditional_weights": "conditional",
    "fit_conditional": "conditional",
    "split_joint_sample": "conditional",
    # simulate
    "DISTRIBUTIONS": "simulate",
    "MixtureConfig": "simulate",
    "MixtureModel": "simulate",
    "draw_mixture_model": "simulate",
    "random_correlation": "simulate",
    "sample_distribution": "simulate",
    "sample_gaussian_mixture": "simulate",
    # metrics
    "ForecastRecord": "metrics",
    "dawid_sebastiani": "metrics",
    "energy_score": "metrics",
    "energy_score_differential": "metrics",
    "excess_scoring_loss": "metrics",
    "r2_oos": "metrics",
    "r2_second_moment": "metrics",
    # bench
    "MixtureStudy": "bench",
    "RejectionStudy": "bench",
    "independence_test": "bench",
    "ks_to_uniform": "bench",
    "median_heuristic_rho": "bench",
    "mixture_energy_study": "bench",
    "null_bound_study": "bench",
    "rejection_study": "bench",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
