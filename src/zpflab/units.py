"""Dimensioned quantities and pinned physical constants.

Gaussian-CGS is the canonical internal system; SI values convert at the
boundary; natural units (hbar = c = 1, electron-mass scale) drive the
field simulation.  Dimension exponents are exact rationals so that
half-integer powers such as sqrt(hbar*c) stay auditable: in Gaussian and
natural units charge carries the M^(1/2) L^(3/2) T^(-1) dimension, which
is what makes the sqrt(hbar*c) <-> e comparison meaningful at all.

Constant values come from a pinned CODATA-2018 snapshot shipped as
``data/codata2018.txt``; nothing is fetched at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .errors import ConfigurationError, DimensionError, DomainError, InvariantError

SYSTEMS = ("gaussian", "si", "natural")
SNAPSHOT = "codata2018"

# 1 eV in erg (from the exact SI elementary charge); display conversion only.
ERG_PER_EV = 1.602176634e-12


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"dimension exponents must be int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Dimension:
    """Exponents of length, mass, time and (SI-only) charge, as exact rationals."""

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)
    charge: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("length", "mass", "time", "charge"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length + other.length,
            self.mass + other.mass,
            self.time + other.time,
            self.charge + other.charge,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length - other.length,
            self.mass - other.mass,
            self.time - other.time,
            self.charge - other.charge,
        )

    def __pow__(self, exponent) -> "Dimension":
        p = _frac(exponent)
        return Dimension(self.length * p, self.mass * p, self.time * p, self.charge * p)

    def __str__(self) -> str:
        parts = []
        for sym, exp in (("L", self.length), ("M", self.mass), ("T", self.time), ("Q", self.charge)):
            if exp:
                parts.append(f"{sym}^{exp}" if exp != 1 else sym)
        return " ".join(parts) if parts else "1"


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


@dataclass(frozen=True)
class Quantity:
    """A real value with a Dimension, tagged by the unit system it lives in.

    Multiplicative arithmetic composes dimensions; addition and subtraction
    require identical dimension and system.  Mixing systems always errors:
    conversions happen explicitly at the boundary, never implicitly.
    """

    value: float
    dim: Dimension = DIMENSIONLESS
    system: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require_system(self.system)

    def _check_partner(self, other: "Quantity") -> None:
        if self.system != other.system:
            raise DimensionError(
                f"mixed unit systems: {self.system!r} vs {other.system!r}"
            )

    def __add__(self, other):
        if not isinstance(other, Quantity):
            raise DimensionError(f"cannot add Quantity and {type(other).__name__}")
        self._check_partner(other)
        if self.dim != other.dim:
            raise DimensionError(f"cannot add dimensions [{self.dim}] and [{other.dim}]")
        return Quantity(self.value + other.value, self.dim, self.system)

    def __sub__(self, other):
        if not isinstance(other, Quantity):
            raise DimensionError(f"cannot subtract {type(other).__name__} from Quantity")
        self._check_partner(other)
        if self.dim != other.dim:
            raise DimensionError(f"cannot subtract dimensions [{self.dim}] and [{other.dim}]")
        return Quantity(self.value - other.value, self.dim, self.system)

    def __neg__(self):
        return Quantity(-self.value, self.dim, self.system)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            self._check_partner(other)
            return Quantity(self.value * other.value, self.dim * other.dim, self.system)
        if isinstance(other, (int, float)):
            return Quantity(self.value * other, self.dim, self.system)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            self._check_partner(other)
            return Quantity(self.value / other.value, self.dim / other.dim, self.system)
        if isinstance(other, (int, float)):
            return Quantity(self.value / other, self.dim, self.system)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Quantity(other / self.value, DIMENSIONLESS / self.dim, self.system)
        return NotImplemented

    def __pow__(self, exponent):
        p = _frac(exponent)
        if p.denominator != 1 and self.value < 0:
            raise DomainError(f"fractional power of negative quantity {self.value}")
        return Quantity(self.value ** float(p), self.dim**p, self.system)

    def sqrt(self) -> "Quantity":
        return self ** Fraction(1, 2)


@dataclass(frozen=True)
class ConstantsTable:
    """Pinned physical constants for one unit system.

    ``epsilon0`` is populated only for SI, where it is needed to close the
    fine-structure relation; ``labels`` carries the unit strings from the
    snapshot file for display purposes.
    """

    system: str
    snapshot: str
    hbar: Quantity
    c: Quantity
    e: Quantity
    m_e: Quantity
    alpha: float
    a0: Quantity
    lambda_C: Quantity
    tau_C: Quantity
    epsilon0: Quantity | None = None
    labels: dict = field(default_factory=dict, repr=False)

    @property
    def h(self) -> Quantity:
        return 2.0 * math.pi * self.hbar

    def rows(self):
        """(name, value, unit-label) rows for the CSV/JSON table output."""
        names = ["hbar", "c", "e", "m_e", "alpha", "a0", "lambda_C", "tau_C"]
        if self.epsilon0 is not None:
            names.insert(5, "epsilon0")
        for name in names:
            attr = getattr(self, name)
            value = attr.value if isinstance(attr, Quantity) else attr
            yield name, value, self.labels.get(name, "")


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
        entries[(system, name)] = (float(value.strip()), comment.strip())
    return entries


@lru_cache(maxsize=1)
def _snapshot_entries() -> dict:
    text = resources.files("zpflab").joinpath("data/codata2018.txt").read_text(encoding="utf-8")
    return _parse_snapshot(text)


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
    _require_system(system)
    entries = _snapshot_entries()

    def pick(name: str) -> tuple[float, str]:
        try:
            return entries[(system, name)]
        except KeyError as exc:
            raise InvariantError(f"constants snapshot missing {system}.{name}") from exc

    def q(name: str, dim: Dimension) -> Quantity:
        return Quantity(pick(name)[0], dim, system)

    labels = {
        name: entries[(sys_, name)][1]
        for (sys_, name) in entries
        if sys_ == system
    }
    table = ConstantsTable(
        system=system,
        snapshot=SNAPSHOT,
        hbar=q("hbar", ACTION),
        c=q("c", VELOCITY),
        e=q("e", charge_dimension(system)),
        m_e=q("m_e", MASS),
        alpha=pick("alpha")[0],
        a0=q("a0", LENGTH),
        lambda_C=q("lambda_C", LENGTH),
        tau_C=q("tau_C", TIME),
        epsilon0=(
            Quantity(pick("epsilon0")[0], CHARGE_SI**2 / (ENERGY * LENGTH), "si")
            if system == "si"
            else None
        ),
        labels=labels,
    )
    return _verify(table)


def particle_mass(name: str, system: str) -> Quantity:
    """Mass of a named particle (electron or proton) in the given system."""
    _require_system(system)
    key = {"electron": "m_e", "proton": "m_p"}.get(name)
    if key is None:
        raise DomainError(f"unknown particle {name!r}; expected electron or proton")
    entries = _snapshot_entries()
    return Quantity(entries[(system, key)][0], MASS, system)


def compton_time(mass: Quantity) -> Quantity:
    """hbar / (m c^2) for a positive mass-dimensioned quantity."""
    if mass.dim != MASS:
        raise DomainError(f"compton_time needs a mass, got dimension [{mass.dim}]")
    if not mass.value > 0:
        raise DomainError(f"compton_time needs a positive mass, got {mass.value}")
    table = constants_for(mass.system)
    return table.hbar / (mass * table.c**2)
