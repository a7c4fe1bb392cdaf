"""Monte Carlo laboratory for anti-concentration of Gaussian maxima gaps.

The package samples correlated Gaussian vectors (degenerate covariances
included), estimates the concentration level of the difference of two block
maxima, evaluates the matching theoretical upper and lower bounds, and runs
the multiplier bootstrap for argmax inference.
"""

from .errors import (BadConfig, BadGeometry, ConditionFails, DimensionMismatch,
                     EmptySample, EmptySubset, HeterogeneousVariances, IoError,
                     MaxgapError, NoAdmissibleDelta, NotPSD, ParseError,
                     PerfectCrossCorrelation, SingularBlock, SingularCovariance,
                     SmallSampleWarning, ZeroResidualVariance, ZeroVariance)
from .cov import (ConditionReport, CovSpec, Partition, check_conditions,
                  residual_cov, rho_bar, sqrt_factor)
from .sampling import DiffSample, SampleBatch, max_diff, sample, sample_max_diff
from .levy import LevyEstimate, expected_max_many, levy_curve, levy_hat
from .bounds import (ALL_BOUNDS, BoundReport, DeltaTerm, ExchangeableLower,
                     Inapplicable, McConfig, bound_baseline_min_eig,
                     bound_conditional, bound_corr_threshold,
                     bound_heterogeneous, bound_homogeneous, bound_report,
                     bound_single_max, lower_bound_exchangeable)
from .bootstrap import (BootstrapResult, CltRateInputs, DataMatrix,
                        argmax_prob, clt_rate, load_csv, multiplier_replicates,
                        run_bootstrap)
from .designs import KINDS, DesignConfig, gen_design
from .experiments import (run_bootstrap_demo, run_bounds_compare,
                          run_levy_experiment, run_scaling_study)

__version__ = "1.0.0"

__all__ = [
    "ALL_BOUNDS", "BadConfig", "BadGeometry", "BootstrapResult", "BoundReport",
    "CltRateInputs", "ConditionFails", "ConditionReport", "CovSpec",
    "DataMatrix", "DeltaTerm", "DesignConfig", "DiffSample",
    "DimensionMismatch", "EmptySample", "EmptySubset", "ExchangeableLower",
    "HeterogeneousVariances", "Inapplicable", "IoError", "KINDS",
    "LevyEstimate", "MaxgapError", "McConfig", "NoAdmissibleDelta", "NotPSD",
    "ParseError", "Partition", "PerfectCrossCorrelation", "SampleBatch",
    "SingularBlock", "SingularCovariance", "SmallSampleWarning",
    "ZeroResidualVariance", "ZeroVariance", "argmax_prob",
    "bound_baseline_min_eig", "bound_conditional", "bound_corr_threshold",
    "bound_heterogeneous", "bound_homogeneous", "bound_report",
    "bound_single_max", "check_conditions", "clt_rate", "expected_max_many",
    "gen_design", "levy_curve", "levy_hat", "load_csv",
    "lower_bound_exchangeable", "max_diff", "multiplier_replicates",
    "residual_cov", "rho_bar", "run_bootstrap",
    "run_bootstrap_demo", "run_bounds_compare", "run_levy_experiment",
    "run_scaling_study", "sample", "sample_max_diff", "sqrt_factor",
]
