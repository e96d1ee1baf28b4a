"""Induced coil current in the fluctuating field: the proposed tap.

The field magnitude at fluctuation extent l is the headline estimate
B = sqrt(hbar c) / l^2 (``predicted_rms``), plain ``Quantity`` arithmetic.
Two estimates are always computed side by side: the shortcut that
substitutes the elementary charge, i = (N A / R) e / (l^2 tau), and the
exact composition of i = N B A/(R dt) with B = sqrt(hbar c)/l^2 and
dt = tau.  In Gaussian-form units these
differ by exactly sqrt(hbar c)/e = 1/sqrt(alpha) ~ 11.7, and that ratio
is surfaced in every result rather than silently absorbed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InvariantError
from .units import (
    AREA,
    LENGTH,
    TIME,
    ConstantsTable,
    Quantity,
    resistance_dimension,
)

RATIO_GUARD_REL = 1e-10


@dataclass(frozen=True)
class CoilSpec:
    turns: int
    area: float
    resistance: float

    def __post_init__(self):
        if not (isinstance(self.turns, int) and self.turns >= 1):
            raise DomainError(f"turns must be an integer >= 1, got {self.turns!r}")
        if not self.area > 0:
            raise DomainError(f"area must be > 0, got {self.area}")
        if not self.resistance > 0:
            raise DomainError(f"resistance must be > 0, got {self.resistance}")


@dataclass(frozen=True)
class TapEstimate:
    current_via_charge: Quantity  # (N A / R) e / (l^2 tau)
    current_exact: Quantity  # N B A / (R tau) with B = sqrt(hbar c)/l^2
    ratio: float  # current_exact / current_via_charge = 1/sqrt(alpha)
    scale: Quantity
    fluctuation_time: Quantity
    coil: CoilSpec


def predicted_rms(scale: Quantity, constants: ConstantsTable) -> Quantity:
    """The headline fluctuation estimate sqrt(hbar c) / l^2 at extent l."""
    if scale.dim != LENGTH:
        raise DomainError(f"scale must carry length dimension, got [{scale.dim}]")
    if not scale.value > 0:
        raise DomainError(f"scale must be > 0, got {scale.value}")
    if scale.system != constants.system:
        raise DomainError(
            f"scale system {scale.system!r} does not match constants {constants.system!r}"
        )
    return (constants.hbar * constants.c).sqrt() / scale**2


def coil_current(B: Quantity, spec: CoilSpec, dt: Quantity) -> Quantity:
    """i = N B A / (R dt) for field magnitude B over fluctuation time dt."""
    if B.value < 0:
        raise DomainError(f"field magnitude must be >= 0, got {B.value}")
    if dt.dim != TIME:
        raise DomainError(f"dt must carry time dimension, got [{dt.dim}]")
    if not dt.value > 0:
        raise DomainError(f"dt must be > 0, got {dt.value}")
    area_q = Quantity(spec.area, AREA, B.system)
    resistance_q = Quantity(spec.resistance, resistance_dimension(B.system), B.system)
    return spec.turns * B * area_q / (resistance_q * dt)


def zpf_tap_estimate(
    spec: CoilSpec, scale: Quantity, tau: Quantity, constants: ConstantsTable
) -> TapEstimate:
    """Both tap-current estimates for a coil at fluctuation extent l, time tau."""
    if constants.system == "si":
        raise DomainError(
            "the sqrt(hbar c) <-> e comparison needs Gaussian-form charge; "
            "use gaussian or natural constants"
        )
    if scale.dim != LENGTH or not scale.value > 0:
        raise DomainError(f"scale must be a positive length, got {scale.value} [{scale.dim}]")
    if tau.dim != TIME or not tau.value > 0:
        raise DomainError(f"tau must be a positive time, got {tau.value} [{tau.dim}]")
    if scale.system != constants.system or tau.system != constants.system:
        raise DomainError("scale, tau and constants must share one unit system")

    field = predicted_rms(scale, constants)
    current_exact = coil_current(field, spec, tau)
    area_q = Quantity(spec.area, AREA, constants.system)
    resistance_q = Quantity(
        spec.resistance, resistance_dimension(constants.system), constants.system
    )
    charge = spec.turns * area_q / resistance_q * constants.e
    extent_time = scale**2 * tau
    current_via_charge = charge / extent_time
    # Every factor of both routes must be a normal float before the ratio guard:
    # a subnormal one keeps too few digits to compare, an infinite one none.
    factors = (
        field, spec.turns * field * area_q, resistance_q * tau, current_exact,
        charge, extent_time, current_via_charge,
    )
    if not all(sys.float_info.min <= q.value <= sys.float_info.max for q in factors):
        raise DomainError("the inputs put a tap-current factor outside the normal float range")
    ratio = current_exact.value / current_via_charge.value
    expected = 1.0 / math.sqrt(constants.alpha)
    if abs(ratio - expected) > RATIO_GUARD_REL * expected:
        raise InvariantError(
            f"exact/charge current ratio {ratio!r} deviates from 1/sqrt(alpha) {expected!r}"
        )
    return TapEstimate(
        current_via_charge=current_via_charge,
        current_exact=current_exact,
        ratio=ratio,
        scale=scale,
        fluctuation_time=tau,
        coil=spec,
    )
