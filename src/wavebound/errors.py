"""Exception types shared across the package.

Each maps to a CLI exit code through one table, ``cli._EXIT_CODES``,
looked up along the class hierarchy so the most specific entry wins:

* 2 -- ModelError, ConfigError, ExprSyntaxError, and the model-outside-
  the-method's-domain errors DivergentIntegralError and
  DegenerateDiffusionError;
* 3 -- QuadratureError, StepFailureError, NonConvergenceError;
* 4 -- InstabilityError;
* 5 -- FrontTrackingError.

A new subclass needs an entry of its own or an ancestor with one;
``tests/test_cli.py`` checks every class defined here.
"""

__all__ = [
    "WaveboundError",
    "ExprSyntaxError",
    "ModelError",
    "ConfigError",
    "QuadratureError",
    "DivergentIntegralError",
    "DegenerateDiffusionError",
    "StepFailureError",
    "InstabilityError",
    "NonConvergenceError",
    "FrontTrackingError",
]


class WaveboundError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(WaveboundError, ValueError):
    """Raised by the expression parser; carries the 0-based source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos
        self.reason = message


class ModelError(WaveboundError, ValueError):
    """Invalid model definition (bad parameters, failed well-posedness checks)."""


class ConfigError(WaveboundError, ValueError):
    """Invalid simulation configuration."""


class QuadratureError(WaveboundError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class DivergentIntegralError(QuadratureError):
    """The weighted integral does not converge for the requested exponent."""


class DegenerateDiffusionError(WaveboundError, ArithmeticError):
    """D evaluated below the positivity floor where a positive value is required."""


class StepFailureError(WaveboundError, ArithmeticError):
    """The profile ODE integrator could not meet its tolerance."""


class NonConvergenceError(WaveboundError, ArithmeticError):
    """Implicit speed iteration did not converge; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple | None = None):
        if bracket is not None:
            message = f"{message} (last bracket: [{bracket[0]:.8g}, {bracket[1]:.8g}])"
        super().__init__(message)
        self.bracket = bracket


class InstabilityError(WaveboundError, ArithmeticError):
    """A simulated density left the trusted range (blow-up guard)."""


class FrontTrackingError(WaveboundError, ValueError):
    """Level-set front tracking failed (no crossing, or a non-monotone profile)."""
