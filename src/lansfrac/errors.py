"""Exception types shared across the package."""


class LansfracError(Exception):
    """Base class for all package errors."""


class GridError(LansfracError):
    """Invalid torus discretization (odd N, too few modes, bad dimension)."""


class MeanModeError(LansfracError):
    """Negative Stokes power requested on a field with nonzero mean mode."""


class DivergedError(LansfracError):
    """Time integration produced non-finite values or unbounded growth. The
    records made up to then are in the list the caller gave the march
    (``integrator.march``)."""

    def __init__(self, message: str, step: int | None = None, t: float | None = None):
        super().__init__(message)
        self.step = step
        self.t = t


class NoContractionError(LansfracError):
    """Picard increments failed to decrease repeatedly; data too large for the fixed point."""


class ConfigError(LansfracError):
    """Problem with a run configuration file or its values."""


class MissingKeyError(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"missing required config key: {key}")
        self.key = key


class BadValueError(ConfigError):
    def __init__(self, key: str, line: int, detail: str):
        super().__init__(f"bad value for '{key}' (line {line}): {detail}")
        self.key = key
        self.line = line


class RegimeViolationError(ConfigError):
    """Requested operation needs a fractional order outside the admissible range."""


class SnapshotError(LansfracError):
    """Problem reading or writing a binary snapshot."""


class BadMagicError(SnapshotError):
    pass


class VersionMismatchError(SnapshotError):
    pass


class CorruptPayloadError(SnapshotError):
    pass


class SnapshotMismatchError(SnapshotError):
    """A restart snapshot's grid or header (alpha, nu, s) differs from the config."""


class EmptyOutputError(LansfracError):
    """CSV emission called with nothing to write."""


class OutputError(LansfracError):
    """An output file could not be written."""


class WorkerError(LansfracError):
    """A forked process of the command (``forks``) ended before its work was done."""
