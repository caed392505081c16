"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PipetuneError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # rebuilt from its args and attributes without calling __init__, whose
        # signature subclasses extend, so an error raised in a worker process
        # unpickles in the parent
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls: type, args: tuple) -> PipetuneError:
    return cls.__new__(cls, *args)


class InvalidArgumentError(PipetuneError, ValueError):
    """A caller-supplied argument violates a precondition."""


class InsufficientDataError(PipetuneError, ValueError):
    """Too few observations to fit a model."""


class NumericalFailureError(PipetuneError, ArithmeticError):
    """A numerical routine failed beyond recovery (e.g. after jitter escalation)."""


class StorageError(PipetuneError, RuntimeError):
    """Cache storage I/O failed.  Carries the offending path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message}: {path}")
        self.path = path


class StageExecutionError(PipetuneError, RuntimeError):
    """A pipeline stage failed to execute.  Carries the stage index, which
    the message starts with."""

    def __init__(self, message: str, stage_index: int, output: str = ""):
        super().__init__(f"stage {stage_index}: {message}")
        self.stage_index = stage_index
        self.output = output


class ProtocolError(PipetuneError, RuntimeError):
    """An external stage violated the output protocol."""


class TraceParseError(PipetuneError, ValueError):
    """A trace CSV could not be parsed.  Carries the offending file name."""

    def __init__(self, message: str, filename: str):
        super().__init__(f"{filename}: {message}")
        self.filename = filename
