"""Exception hierarchy shared by all zpflab modules, and the memory they check sizes against."""

import os


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


def physical_memory_bytes() -> float:
    """Physical memory of this machine, or inf where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return float("inf")
