"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3.
"""


class UsageError(Exception):
    """Bad flags, malformed config keys, invalid parameter combinations."""


class DataError(Exception):
    """Malformed or inconsistent input data / on-disk artifacts."""


class NumericError(Exception):
    """A numeric contract was violated (oracle breach, divergence, non-finite score)."""


class SingularFactorError(NumericError):
    """An undamped factor inverse hit a non-positive eigenvalue product."""


class TrainingDivergedError(NumericError):
    """Optimizer loss blew past the divergence guard."""
