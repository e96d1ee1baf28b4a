"""Dimensioned quantities and pinned physical constants.

Gaussian-CGS is the canonical internal system; SI values convert at the
boundary; natural units (hbar = c = 1, electron-mass scale) drive the
field simulation.  Dimension exponents are exact rationals so that
half-integer powers such as sqrt(hbar*c) stay auditable: in Gaussian and
natural units charge carries the M^(1/2) L^(3/2) T^(-1) dimension, which
is what makes the sqrt(hbar*c) <-> e comparison meaningful at all.

Constant values come from a pinned CODATA-2018 snapshot shipped as
``data/codata2018.txt``; nothing is fetched at runtime.  Each system's
table is built from one ordered list of its constants and their
dimensions, which is also the order its rows print in, and every
snapshot entry, a particle's mass too, is read through one lookup that
refuses a missing entry as a corrupt snapshot.

A ``Quantity`` has the multiplicative algebra only: ``*``, ``/``, ``**``
and ``sqrt``, the operations every dimensioned estimate here is built
from.  Its value is 0 or a normal float, by construction: one that is
subnormal, infinite or NaN is refused, and so is a 0 that ``*``, ``/``
or ``**`` made from nonzero operands, which underflowed.  A power that
overflows is refused as inf, as an overflowing product or quotient is.
So every intermediate of a dimensioned result keeps its digits, or the
result is refused where the digits were lost.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

# kept at the package root, where the CLI parser reads them without loading this module
from . import PARTICLES, SNAPSHOT, SYSTEMS
from .errors import (
    ConfigurationError, DimensionError, DomainError, InvariantError, frozen_record, normal_float,
)

# setuptools installs package data as plain files beside the modules
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data", f"{SNAPSHOT}.txt")

# 1 eV in erg (from the exact SI elementary charge); display conversion only.
ERG_PER_EV = 1.602176634e-12


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"dimension exponents must be int or Fraction, got {type(x).__name__}")


@frozen_record
class Dimension:
    """Exponents of length, mass, time and (SI-only) charge, as exact rationals."""

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)
    charge: Fraction = Fraction(0)

    def __post_init__(self):
        for name in self.__match_args__:
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def _exponents(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(*(a + b for a, b in zip(self._exponents(), other._exponents())))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(*(a - b for a, b in zip(self._exponents(), other._exponents())))

    def __pow__(self, exponent) -> "Dimension":
        p = _frac(exponent)
        return Dimension(*(e * p for e in self._exponents()))

    def __str__(self) -> str:
        parts = [sym if e == 1 else f"{sym}^{e}" for sym, e in zip("LMTQ", self._exponents()) if e]
        return " ".join(parts) or "1"


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=Fraction(1))
MASS = Dimension(mass=Fraction(1))
TIME = Dimension(time=Fraction(1))
AREA = LENGTH**2
VOLUME = LENGTH**3
VELOCITY = LENGTH / TIME
FREQUENCY = DIMENSIONLESS / TIME
ACTION = MASS * AREA / TIME
ENERGY = MASS * AREA / TIME**2
FORCE = MASS * LENGTH / TIME**2

# Charge in the L, M, T basis (Gaussian/natural) or as an independent axis (SI).
CHARGE_GAUSSIAN = Dimension(length=Fraction(3, 2), mass=Fraction(1, 2), time=Fraction(-1))
CHARGE_SI = Dimension(charge=Fraction(1))


def _require_system(system: str) -> str:
    if system not in SYSTEMS:
        raise ConfigurationError(f"unknown unit system {system!r}; expected one of {SYSTEMS}")
    return system


def charge_dimension(system: str) -> Dimension:
    return CHARGE_SI if _require_system(system) == "si" else CHARGE_GAUSSIAN


def resistance_dimension(system: str) -> Dimension:
    if _require_system(system) == "si":
        return ENERGY * TIME / CHARGE_SI**2  # ohm: M L^2 T^-1 Q^-2
    return TIME / LENGTH  # s/cm


@frozen_record
class Quantity:
    """A real value with a Dimension, tagged by the unit system it lives in.

    Its algebra is the one the formulas use: ``*`` by a Quantity or a
    number, on either side, ``/`` by a Quantity, ``**`` and ``sqrt``, each
    composing the dimensions.  A product or quotient of two Quantities from
    different systems raises DimensionError: conversions happen explicitly
    at the boundary, never implicitly.  The value is 0 or a normal float,
    and a product, quotient or power of nonzero operands is not 0; a power
    that overflows is refused as inf, like a product or quotient that does.
    """

    value: float
    dim: Dimension = DIMENSIONLESS
    system: str = "gaussian"

    def __post_init__(self):
        value = float(self.value)
        if value:  # 0 is exact
            normal_float(value, "a dimensioned quantity")
        object.__setattr__(self, "value", value)
        _require_system(self.system)

    def _made(self, value: float, dim: Dimension, *operands) -> "Quantity":
        """The result of ``*``, ``/`` or ``**``; a 0 made from nonzero ``operands`` underflowed."""
        if not value and all(operands):
            normal_float(value, f"a [{dim}] result of nonzero operands")
        return Quantity(value, dim, self.system)

    def _check_partner(self, other: "Quantity") -> None:
        if self.system != other.system:
            raise DimensionError(
                f"mixed unit systems: {self.system!r} vs {other.system!r}"
            )

    def __mul__(self, other):
        if isinstance(other, Quantity):
            self._check_partner(other)
            product = self.value * other.value
            return self._made(product, self.dim * other.dim, self.value, other.value)
        if isinstance(other, (int, float)):
            return self._made(self.value * other, self.dim, self.value, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            self._check_partner(other)
            return self._made(self.value / other.value, self.dim / other.dim, self.value)
        return NotImplemented

    def __pow__(self, exponent):
        p = _frac(exponent)
        if p.denominator != 1 and self.value < 0:
            raise DomainError(f"fractional power of negative quantity {self.value}")
        try:
            value = self.value ** float(p)
        except OverflowError:  # where * and / make inf, ** raises; both are refused as inf
            value = math.inf
        return self._made(value, self.dim**p, self.value)

    def sqrt(self) -> "Quantity":
        return self ** Fraction(1, 2)


# Each system's table in print order, the snapshot's: name -> dimension, None for
# the dimensionless alpha; epsilon0 closes the fine-structure relation in SI only.
_TABLE_DIMENSIONS = {
    system: {
        "hbar": ACTION, "c": VELOCITY, "e": charge_dimension(system), "m_e": MASS, "alpha": None,
        **({"epsilon0": CHARGE_SI**2 / (ENERGY * LENGTH)} if system == "si" else {}),
        "a0": LENGTH, "lambda_C": LENGTH, "tau_C": TIME,
    }
    for system in SYSTEMS
}


@frozen_record
class ConstantsTable:
    """Pinned physical constants for one unit system.

    ``epsilon0`` is populated only for SI, where it is needed to close the
    fine-structure relation; ``labels`` carries the unit strings from the
    snapshot file for display purposes.
    """

    system: str
    hbar: Quantity
    c: Quantity
    e: Quantity
    m_e: Quantity
    alpha: float
    a0: Quantity
    lambda_C: Quantity
    tau_C: Quantity
    epsilon0: Quantity | None = None
    labels: dict  # name -> unit label; required, so no instance shares a mutable default

    @property
    def h(self) -> Quantity:
        return 2.0 * math.pi * self.hbar

    def rows(self):
        """(name, value, unit-label) rows for the CSV/JSON table output."""
        for name, dim in _TABLE_DIMENSIONS[self.system].items():
            value = getattr(self, name)
            yield name, value if dim is None else value.value, self.labels.get(name, "")


def _parse_snapshot(text: str) -> dict:
    entries: dict[tuple[str, str], tuple[float, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, comment = line.partition("#")
        key, eq, value = body.partition("=")
        if not eq:
            raise InvariantError(f"malformed constants line {lineno}: {raw!r}")
        system, dot, name = key.strip().partition(".")
        if not dot:
            raise InvariantError(f"missing system prefix on constants line {lineno}: {raw!r}")
        try:
            number = float(value)
        except ValueError:
            raise InvariantError(f"non-numeric value on constants line {lineno}: {raw!r}") from None
        entries[(system, name)] = (number, comment.strip())
    return entries


@lru_cache(maxsize=1)
def _snapshot_entries() -> dict:
    try:
        with open(SNAPSHOT_PATH, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvariantError(f"cannot read the constants snapshot {SNAPSHOT_PATH}: {exc}") from exc
    return _parse_snapshot(text)


def _entry(system: str, name: str) -> float:
    """The snapshot's value of system.name; a missing entry is a corrupt snapshot."""
    try:
        return _snapshot_entries()[(system, name)][0]
    except KeyError:
        raise InvariantError(f"constants snapshot missing {system}.{name}") from None


def _verify(table: ConstantsTable) -> ConstantsTable:
    if table.system == "si":
        assert table.epsilon0 is not None
        alpha_back = table.e.value**2 / (
            4.0 * math.pi * table.epsilon0.value * table.hbar.value * table.c.value
        )
    else:
        alpha_back = table.e.value**2 / (table.hbar.value * table.c.value)
    if abs(alpha_back - table.alpha) > 1e-6 * table.alpha:
        raise InvariantError(
            f"{table.system}: alpha recomputed from e, hbar, c is {alpha_back!r}, "
            f"stored {table.alpha!r}"
        )
    tau_back = table.hbar.value / (table.m_e.value * table.c.value**2)
    if abs(tau_back - table.tau_C.value) > 1e-12 * table.tau_C.value:
        raise InvariantError(f"{table.system}: tau_C inconsistent with hbar/(m_e c^2)")
    lam_back = table.c.value * table.tau_C.value
    if abs(lam_back - table.lambda_C.value) > 1e-12 * table.lambda_C.value:
        raise InvariantError(f"{table.system}: lambda_C inconsistent with c*tau_C")
    if table.system == "natural" and (table.hbar.value != 1.0 or table.c.value != 1.0):
        raise InvariantError("natural system must set hbar = c = 1 exactly")
    return table


@lru_cache(maxsize=None)
def constants_for(system: str) -> ConstantsTable:
    """Build the pinned ConstantsTable for one of gaussian, si, natural."""
    values = {
        name: _entry(system, name) if dim is None else Quantity(_entry(system, name), dim, system)
        for name, dim in _TABLE_DIMENSIONS[_require_system(system)].items()
    }
    labels = {n: label for (sys_, n), (_, label) in _snapshot_entries().items() if sys_ == system}
    return _verify(ConstantsTable(system=system, labels=labels, **values))


def particle_mass(name: str, system: str) -> Quantity:
    """Mass of a named particle (electron or proton) in the given system."""
    _require_system(system)
    key = PARTICLES.get(name)
    if key is None:
        raise DomainError(f"unknown particle {name!r}; expected {' or '.join(PARTICLES)}")
    return Quantity(_entry(system, key), MASS, system)


def compton_time(mass: Quantity) -> Quantity:
    """hbar / (m c^2) for a positive mass-dimensioned quantity."""
    if mass.dim != MASS:
        raise DomainError(f"compton_time needs a mass, got dimension [{mass.dim}]")
    if not mass.value > 0:
        raise DomainError(f"compton_time needs a positive mass, got {mass.value}")
    table = constants_for(mass.system)
    return table.hbar / (mass * table.c**2)
