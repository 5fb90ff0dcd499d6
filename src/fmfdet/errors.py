"""Exception types shared across the package.

CLI exit codes: ConfigError -> 2, DataError/FormatError -> 3,
DivergenceError -> 4 (see cli.py).
"""


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent config pair."""


class ShapeError(ValueError):
    """Tensor shapes do not conform to an operation's contract."""


class FormatError(ValueError):
    """A file does not follow the expected binary/JSON layout."""


class DataError(IOError):
    """A payload is truncated or a data directory is unusable."""


class StateError(RuntimeError):
    """State was used inconsistently (e.g. a map shape changed mid-run, or a
    backward ran through a graph an earlier backward already freed)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or gradient."""
