"""Exception hierarchy shared across the package.

The CLI maps these onto disjoint exit codes: configuration problems exit 1,
data or population-spec validation problems exit 2, estimation failures
exit 3. Each error's message says what failed and where: the CLI prints it
after ``error:``, and after an estimation failure on a table each of the
table's warnings, which may say why it failed.
"""


class LafteError(Exception):
    """Base class for all package errors."""


class ConfigError(LafteError):
    """Invalid run configuration (unknown keys, bad values, bad mapping)."""


class ColumnMissingError(ConfigError):
    """A mapped column name is absent from the input file."""


class DataError(LafteError):
    """The input data violates the table contract; the message lists every
    finding, joined by "; "."""


class SpecError(LafteError):
    """A population spec violates a structural invariant."""


class EstimationError(LafteError):
    """Base class for failures inside an estimation routine."""


class RankDeficientError(EstimationError):
    """The design (or instrument) matrix is rank deficient."""


class RelevanceError(EstimationError):
    """The first stage is numerically zero; the IV ratio is undefined. The
    message names the treatment definition and its first stage."""


class DegenerateTestError(EstimationError):
    """A joint test covariance submatrix is singular."""


class BoundsError(EstimationError):
    """A response bound passed by the caller is violated by the data."""
