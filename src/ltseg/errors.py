"""Exception types shared across the package, and the integer, number
and bound checks that config validation raises them from."""

import dataclasses
import math
import operator


class LtsegError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LtsegError, ValueError):
    """A configuration value is out of its allowed range or inconsistent."""


class ParseError(LtsegError, ValueError):
    """An on-disk artifact could not be parsed.

    Messages name the offending file and, where it makes sense, the line
    or byte offset.
    """


class RangeError(LtsegError, ValueError):
    """A parsed value is structurally fine but outside the declared range."""


class EmptySequenceError(LtsegError, ValueError):
    """An operation that needs at least one frame got an empty sequence."""


class TrainingDivergedError(LtsegError, RuntimeError):
    """Mean training loss became non-finite; names the epoch it happened."""

    def __init__(self, epoch, mean_loss):
        self.epoch = epoch
        self.mean_loss = mean_loss
        super().__init__(
            "training diverged at epoch %d (mean loss %r is not finite)"
            % (epoch, mean_loss)
        )


def require_int(name, value, error=ConfigError):
    """Raise ``error`` naming ``name`` unless ``value`` is an int; a
    bool is not one, although Python counts it as such."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def require_finite(name, value):
    """Raise ConfigError naming ``name`` unless ``value`` is a finite
    number; bools, and the NaN and infinities that JSON accepts, are not."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


_BOUND_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_TYPE_CHECKS = {int: require_int, float: require_finite}


def require_bound(name, value, op, limit):
    """Raise ConfigError naming ``name`` unless ``value op limit`` holds."""
    if not _BOUND_OPS[op](value, limit):
        raise ConfigError(f"{name} must be {op} {limit}, got {value}")


def check_fields(config, bounds):
    """Return a config dataclass whose ``int`` and ``float`` fields, as
    annotated, are integers and finite numbers, and satisfy each ``(name,
    op, limit)`` row of ``bounds``; else raise ConfigError naming the first
    field at fault, as in ``epsilon must be <= 1, got 1.5``."""
    for field in dataclasses.fields(config):
        check = _TYPE_CHECKS.get(field.type)
        if check:
            check(field.name, getattr(config, field.name))
    for name, op, limit in bounds:
        require_bound(name, getattr(config, name), op, limit)
    return config
