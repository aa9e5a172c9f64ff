"""Fixed-point toolkit for arity-k operators on b-metric spaces.

Build a space (bmetric), an operator (operators), check contraction
conditions by sampling (contraction), iterate to a fixed point and attach
rate estimates and explicit error bounds (solver). The cli module exposes
the same machinery over JSON problem files.
"""

from .bmetric import (
    BMetricSpace,
    Box,
    chain_bound,
    check_axioms,
    custom,
    estimate_b,
    euclidean,
    lp_truncated,
    power,
    squared_euclidean,
)
from .contraction import (
    ConditionSpec,
    ContractionCertificate,
    PhiFunction,
    banach,
    ciric_max,
    diagonal_phi,
    diagonal_strict,
    estimate_constant,
    kannan,
    lambda_max,
    linear_phi,
    piecewise_phi,
    presic_sum,
    verify,
    verify_diagonal,
    weak_phi,
)
from .errors import (
    DegenerateDomainError,
    DomainError,
    NumericEvalError,
    PresicLabError,
    UsageError,
)
from .operators import PresicOperator, affine, averaging, constant, from_dsl, residual
from .solver import (
    BoundReport,
    IterationTrace,
    StopRule,
    cauchy_profile,
    estimate_rate,
    iterate,
    iterate_many,
    kannan_bounds,
    kannan_report,
    picard,
    presic_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
