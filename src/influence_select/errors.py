"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2 (a
forked child that died, ChildDiedError, included), NumericError -> 3.
"""


class UsageError(Exception):
    """Bad flags, malformed config keys, invalid parameter combinations."""


class DataError(Exception):
    """Malformed or inconsistent input data / on-disk artifacts."""


class ChildDiedError(DataError):
    """A forked child ended (killed by a signal, or exited) before it sent its result."""


class NumericError(Exception):
    """A numeric contract was violated (oracle breach, divergence, non-finite score)."""


class SingularFactorError(NumericError):
    """An undamped factor inverse hit a non-positive eigenvalue product."""


class TrainingDivergedError(NumericError):
    """Optimizer loss blew past the divergence guard."""
