"""Exception types shared across the engine."""

__all__ = [
    "ConfigError",
    "DomainError",
    "EngineError",
    "EstimatorError",
    "ParameterError",
    "ScheduleError",
    "SchemaError",
    "ShapeError",
]


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(EngineError):
    """Invalid model, strategy or solver parameters (non-PSD correlations, bad grids, ...)."""


class DomainError(EngineError):
    """An input left the mathematical domain of an operation (t out of range, z <= 0, ...)."""


class SchemaError(EngineError):
    """A data file does not match the expected schema."""


class ShapeError(SchemaError):
    """Tabular data is ragged or otherwise mis-shaped."""


class ScheduleError(EngineError):
    """Career-schedule lookup outside the covered age range, or an inconsistent schedule."""


class EstimatorError(EngineError):
    """A fitted estimator produced values outside its admissible range."""


class ConfigError(EngineError):
    """A run-configuration file is invalid."""
