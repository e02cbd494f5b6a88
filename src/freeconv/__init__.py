"""Numerical free probability: free additive convolution via subordination,
spectral recovery by Stieltjes inversion, and experiment harnesses for
central-limit rates, support bounds, and functional-equation residuals.
"""

from .complexfn import cauchy, sqrt_cut
from .cumulants import (cumulants_to_moments, kargin_bound_check,
                        measure_cumulants, moments_to_cumulants, phi_theta)
from .errors import (BranchCutError, DegenerateMeasureError, DomainError,
                     FreeconvError, InversionError, IterationError,
                     OutOfDiscError)
from .experiments import (FunctionalEqTerms, RateReport, RateRow,
                          SupportReport, cubic_roots, detect_support,
                          fit_loglog_slope, functional_residuals,
                          nonid_experiment, rate_experiment,
                          recover_weighted_sum, superconvergence_radius,
                          support_experiment)
from .inversion import (GriddedDistribution, delta_eps,
                        delta_tilde, kolmogorov, levy, recover)
from .measures import (Measure, arcsine_cdf, semicircle_cdf,
                       semicircle_density)
from .sphere import (WeightVector, concentration_report, marginal_density,
                     sample, sample_matrix, vector_stats)
from .subordination import GridSolution, SolveOptions, solve, solve_grid

__version__ = "0.1.0"

__all__ = [
    "BranchCutError", "DegenerateMeasureError", "DomainError",
    "FreeconvError", "FunctionalEqTerms", "GridSolution",
    "GriddedDistribution", "InversionError", "IterationError", "Measure",
    "OutOfDiscError", "RateReport", "RateRow", "SolveOptions",
    "SupportReport", "WeightVector", "arcsine_cdf", "cauchy",
    "concentration_report", "cubic_roots", "cumulants_to_moments",
    "delta_eps", "delta_tilde", "detect_support", "fit_loglog_slope",
    "functional_residuals", "kargin_bound_check", "kolmogorov", "levy",
    "marginal_density", "measure_cumulants", "moments_to_cumulants",
    "nonid_experiment", "phi_theta",
    "rate_experiment", "recover", "recover_weighted_sum", "sample",
    "sample_matrix", "semicircle_cdf", "semicircle_density", "solve",
    "solve_grid", "sqrt_cut", "superconvergence_radius", "support_experiment",
    "vector_stats",
]
