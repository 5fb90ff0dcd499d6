"""Exception types shared across the package.

CLI exit codes, one class each (see cli.py): ConfigError -> 2, DataError -> 3,
DivergenceError -> 4, WorkerError -> 5. ShapeError and StateError mean a bug.
"""
import contextlib
import os
import pathlib


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent config pair."""


class ShapeError(ValueError):
    """Tensor shapes do not conform to an operation's contract."""


class DataError(IOError):
    """An input file or data directory is unreadable, malformed or inconsistent."""


class StateError(RuntimeError):
    """State was used inconsistently (e.g. a map shape changed mid-run, or a
    backward ran through a graph an earlier backward already freed)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or gradient."""


class WorkerError(RuntimeError):
    """A forked training worker exited mid-run (killed, say)."""


@contextlib.contextmanager
def writing(path):
    """Turn an OSError inside the block into a DataError naming `path`, the
    output being written."""
    try:
        yield
    except DataError:
        raise
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from e


@contextlib.contextmanager
def atomic_file(path, mode="w", **open_kwargs):
    """Open a sibling temporary file of `path` for writing, and move it onto
    `path` with os.replace once the block ends. If the block or the move
    fails, the temporary file is removed, so `path` keeps its old bytes or
    stays absent, never a prefix. An OSError is a DataError naming `path`,
    as in `writing`."""
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with writing(path):
        try:
            with open(tmp, mode, **open_kwargs) as f:
                yield f
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
