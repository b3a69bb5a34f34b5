"""Exception types shared across the package."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by sfwmsim."""


class ConfigError(SimulationError):
    """Invalid configuration value, schema violation, or precondition failure.

    `violations` holds the individual messages when several problems were
    collected in one pass.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]


class ModelCompatibilityError(ConfigError):
    """A closed-form model tier was requested for a lossy waveguide."""


class AccuracyError(SimulationError):
    """A numerical self-consistency check failed.

    Carries both estimates so callers can inspect how far apart they are.
    """

    def __init__(self, message: str, coarse=None, fine=None):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


class DegenerateInputError(SimulationError):
    """Input is identically zero (or otherwise carries no usable signal)."""
