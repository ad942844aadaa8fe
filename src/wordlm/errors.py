"""Exception types shared across the package."""


class WordlmError(Exception):
    """Base class for all package errors."""


class ContractError(WordlmError, ValueError):
    """A documented precondition of an operation was violated."""


class IntegrityError(WordlmError, RuntimeError):
    """A serialized artifact is inconsistent with its manifest."""


class ConfigError(WordlmError, ValueError):
    """Run configuration is invalid. Carries the list of violated keys."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))
