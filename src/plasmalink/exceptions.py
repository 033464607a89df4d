"""Exception types shared across the package, and the numeric-setting rule."""

import math


class ConfigError(ValueError):
    """Invalid user-facing configuration (bad profile, interval, unit, ...)."""


class NonFiniteError(FloatingPointError):
    """A forward/backward pass or loss produced NaN or Inf."""


def check_fields(settings, at_least=(), positive=()):
    """Raise ConfigError naming the first field of ``settings`` that breaks
    its rule: ``<field> must be >= <minimum>, got <value>`` for each
    (field, minimum) of ``at_least``, then ``<field> must be finite and > 0,
    got <value>`` for each field of ``positive``."""
    for name, minimum in at_least:
        value = getattr(settings, name)
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    for name in positive:
        value = getattr(settings, name)
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
