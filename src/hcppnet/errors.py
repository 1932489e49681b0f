"""Exception types shared across the package, and the one check of a bounded number."""

import math
import operator
from dataclasses import field, fields


class ParameterError(ValueError):
    """A function argument or model parameter is outside its valid range."""


class DivergenceError(ParameterError):
    """The requested quantity is mathematically divergent for these parameters."""


class ConfigurationError(ValueError):
    """An experiment configuration is inconsistent or not runnable."""


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def violation(value, bounds) -> str | None:
    """Why ``value`` is not a finite number meeting each ``(op, bound)`` of ``bounds``, or None if it is."""
    # a Python int is always finite, and one past the double range overflows math.isfinite
    if not (isinstance(value, int) or math.isfinite(value)):
        return f"must be a finite number, got {value}"
    for op, bound in bounds:
        if not _COMPARE[op](value, bound):
            return f"must be {op} {bound}, got {value}"
    return None


def check(name: str, value, *bounds) -> None:
    """Raise :class:`ParameterError` unless ``value`` is finite and meets each ``(op, bound)``."""
    problem = violation(value, bounds)
    if problem:
        raise ParameterError(f"{name} {problem}")


def bounded(*bounds, **kwargs):
    """A dataclass field whose value must meet each ``(op, bound)``, checked by :func:`check_fields`."""
    return field(metadata={"bounds": bounds}, **kwargs)


def check_fields(obj) -> None:
    """:func:`check` each bounded field of the dataclass instance ``obj`` that is not None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "bounds" in f.metadata and value is not None:
            check(f.name, value, *f.metadata["bounds"])
