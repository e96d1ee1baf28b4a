"""Exception hierarchy shared by all zpflab modules, the ``frozen_record`` decorator
that makes their frozen value classes, the one rule for a result's float range,
and the memory they check sizes against."""

import os
import sys


class ZpfLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZpfLabError, ValueError):
    """An input is outside the physical or mathematical domain of an operation."""


class DimensionError(DomainError):
    """Dimensions (or unit systems) of quantities are incompatible."""


class ConfigurationError(ZpfLabError, ValueError):
    """A configuration object or system tag is invalid."""


class InvariantError(ZpfLabError, RuntimeError):
    """An internal consistency check failed; indicates a bug or corrupt data."""


class ConvergenceError(ZpfLabError, RuntimeError):
    """A numerical extrapolation or iteration failed to converge."""


def frozen_record(cls):
    """Make cls a frozen value class over the fields its body annotates, in order.

    A field's class-level value is its default.  The class gains an
    ``__init__`` taking the fields by position or keyword and then calling
    ``__post_init__`` if it has one, which may normalise a field with
    ``object.__setattr__``; equality and hashing on the tuple of fields; a
    ``Name(field=value, ...)`` repr; ``__match_args__``; and a
    ``__setattr__``/``__delattr__`` that raise ``AttributeError``.  It
    stands in for ``dataclasses.dataclass(frozen=True)``, whose import
    (through ``inspect``) and per-class code generation cost more than a
    pure run's computation.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or kwargs and not kwargs.keys() <= set(names[len(args):])
                or len(values) < len(names)):
            raise TypeError(
                f"{cls.__name__} takes the fields ({', '.join(names)}); "
                f"got {len(args)} positional and the keywords {sorted(kwargs)}"
            )
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {cls.__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {cls.__name__} is frozen")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def normal_float(value: float, what: str) -> float:
    """``value`` if it is a normal float, else a DomainError naming ``what``.

    A subnormal keeps too few digits to compute or compare with, and 0, an
    infinity or NaN none; a caller for whom 0 is exact tests it first.
    """
    if not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise DomainError(f"{what} at {value!r}, outside the normal float range")
    return value


def physical_memory_bytes() -> float:
    """Physical memory of this machine, or inf where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return float("inf")
