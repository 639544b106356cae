"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (config=2, data=3, numeric=4).
"""


class FlowCdeError(Exception):
    """Base class for all package errors."""


class StructuralError(FlowCdeError, ValueError):
    """Malformed inputs: bad shapes, unknown ids, layout mismatches."""


class NumericError(FlowCdeError, ArithmeticError):
    """Non-finite values or numeric breakdown.

    Carries optional context: the tape node id or the dataset row that
    produced the bad value.
    """

    def __init__(self, message, node_id=None, index=None):
        super().__init__(message)
        self.node_id = node_id
        self.index = index


class DataError(FlowCdeError, ValueError):
    """Dataset ingestion or schema problems."""


class ConfigError(FlowCdeError, ValueError):
    """Invalid run configuration (unknown keys, bad values)."""
