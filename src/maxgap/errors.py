"""Exception hierarchy for maxgap.

Every error raised on a documented failure path derives from MaxgapError and
carries a short machine-readable ``code`` so report builders can record why a
quantity was not computable instead of crashing.
"""

from __future__ import annotations


class MaxgapError(Exception):
    """Base class for all maxgap errors."""

    code = "error"


class DimensionMismatch(MaxgapError):
    code = "dimension_mismatch"


class ZeroVariance(MaxgapError):
    """A coordinate has non-positive variance."""

    code = "zero_variance"

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"coordinate {index} has non-positive variance")


class NotPSD(MaxgapError):
    """Matrix is not positive semidefinite within tolerance."""

    code = "not_psd"


class SingularBlock(MaxgapError):
    """A covariance block is numerically singular (rcond below cutoff)."""

    code = "singular_block"

    def __init__(self, which: str, rcond: float):
        self.which = which
        self.rcond = rcond
        super().__init__(f"block {which} is numerically singular (rcond={rcond:.3e})")


class EmptySample(MaxgapError):
    code = "empty_sample"


class EmptySubset(MaxgapError):
    code = "empty_subset"


class HeterogeneousVariances(MaxgapError):
    """Bound requires equal component variances."""

    code = "heterogeneous_variances"


class PerfectCrossCorrelation(MaxgapError):
    """Bound requires all cross correlations strictly below one in modulus."""

    code = "perfect_cross_correlation"


class ConditionFails(MaxgapError):
    """Neither direction of the separation condition holds."""

    code = "condition_fails"


class NoAdmissibleDelta(MaxgapError):
    """Every threshold in the grid absorbs an entire index set."""

    code = "no_admissible_delta"


class SingularCovariance(MaxgapError):
    """Smallest eigenvalue is not strictly positive; baseline undefined."""

    code = "singular_covariance"


class ZeroResidualVariance(MaxgapError):
    """A conditional (residual) variance vanishes."""

    code = "zero_residual_variance"


class BadGeometry(MaxgapError):
    """Overlap sizes are not realizable."""

    code = "bad_geometry"


class BadConfig(MaxgapError):
    """Design or run configuration is invalid."""

    code = "bad_config"


class ParseError(MaxgapError):
    """Malformed input file."""

    code = "parse_error"

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        where = ""
        if row is not None:
            where = f" at row {row}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


class IoError(MaxgapError):
    code = "io_error"


class SmallSampleWarning(UserWarning):
    """Sample size too small for the stated coupling rate to be meaningful."""
