"""Exception types shared across the package.

A check on the caller's input raises InputError (CLI exit 2); a computation
that fails its own check raises plain RegnetsError (exit 1).
"""


class RegnetsError(Exception):
    """Base class for all package errors; raised as such when a computation
    fails a check of its own."""


class InputError(RegnetsError):
    """Input the caller can fix: a value outside its documented range, data
    that break a documented rule, or a scale the grid or box cannot hold.
    The CLI exits 2 on it and 1 on any other RegnetsError."""


class ConfigError(InputError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
