"""Exception types shared across the package."""


class DomainError(ValueError):
    """A time or log-SNR argument fell outside the schedule's domain."""


class DivergenceError(RuntimeError):
    """A solve produced a non-finite state; carries the offending step index."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index


class StateError(RuntimeError):
    """A stepping routine was called without the history it requires."""


class AccuracyError(RuntimeError):
    """A teacher solve could not meet its requested tolerance."""


class ConfigError(ValueError):
    """A configuration file failed validation; names the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class CompatibilityError(RuntimeError):
    """A file is unusable: wrong format, version or length, or another config."""
