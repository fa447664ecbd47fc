"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter set violates a physical or structural constraint."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(ValidationError):
    """A configuration file failed to parse or contains unknown/invalid entries."""


class NumericalError(RuntimeError):
    """A numerical routine failed: non-finite values, a singular system, or a
    tolerance that could not be met."""


class WorkerError(RuntimeError):
    """A worker process running independent scenarios died before it returned
    its result (killed, out of memory, or exited)."""
