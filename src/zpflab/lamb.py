"""Level shift from positional jitter smearing the potential.

The smeared potential is Delta_V = (1/2) <(dr)^2> laplacian(V), where
<(dr)^2> is the mean-square displacement per Cartesian component (for
isotropic jitter the cross terms vanish and each axis contributes its
own variance, so the 1/2 is exact with the per-component convention;
the 3-component total is three times larger).  For the hydrogen Coulomb
potential the Laplacian is a delta function at the origin, so only
s-states shift: Delta_E = (1/2) <(dr)^2> 4 pi e^2 |psi_n(0)|^2, upward.

The jitter itself is either supplied directly or estimated from the
logarithmic fluctuation integral between two angular-frequency cutoffs
(defaults: binding scale alpha^2 m c^2 / hbar up to the relativistic
breakdown m c^2 / hbar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .units import AREA, ENERGY, VOLUME, ConstantsTable, Quantity


@dataclass(frozen=True)
class JitterVariance:
    """Per-component mean-square displacement <(dr)^2>, length^2 units."""

    value: float
    source: str = "user-supplied"
    omega_min: float | None = None
    omega_max: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise DomainError(f"jitter variance must be finite and >= 0, got {self.value}")
        if self.value == 0:  # -0.0 passes the check above; store the zero as +0.0
            object.__setattr__(self, "value", 0.0)

    def provenance(self) -> str:
        if self.omega_min is None:
            return self.source
        return f"{self.source}(omega_min={self.omega_min!r}, omega_max={self.omega_max!r})"


@dataclass(frozen=True)
class HydrogenState:
    n: int
    ell: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"principal quantum number must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.ell, int) and 0 <= self.ell < self.n):
            raise DomainError(f"need 0 <= ell < n, got ell={self.ell!r}, n={self.n!r}")

    def density_at_origin(self, a0: float) -> float:
        """|psi_n(0)|^2 = 1/(pi n^3 a0^3) for s-states, 0 otherwise."""
        if self.ell > 0:
            return 0.0
        return 1.0 / (math.pi * self.n**3 * a0**3)


def hydrogen_s_shift(
    state: HydrogenState, jitter: JitterVariance, constants: ConstantsTable
) -> Quantity:
    """Jitter-induced shift of a hydrogen level; exactly zero unless ell = 0.

    Uses the Gaussian-form Coulomb potential -e^2/r, so the constants
    table must be gaussian or natural.  A positive jitter whose s-state
    shift underflows to 0 is refused with ``DomainError``.
    """
    if constants.system == "si":
        raise DomainError(
            "hydrogen_s_shift uses the Gaussian-form Coulomb potential; "
            "use gaussian or natural constants"
        )
    if state.ell > 0 or jitter.value == 0.0:
        return Quantity(0.0, ENERGY, constants.system)
    jitter_q = Quantity(jitter.value, AREA, constants.system)
    density_q = Quantity(
        state.density_at_origin(constants.a0.value), VOLUME**-1, constants.system
    )
    shift = 0.5 * jitter_q * (4.0 * math.pi) * constants.e**2 * density_q
    assert shift.dim == ENERGY
    if shift.value == 0.0:  # a positive jitter whose product fell below the float range
        raise DomainError(
            f"the n={state.n} s-state shift of jitter {jitter.value!r} underflowed to 0"
        )
    return shift


def welton_jitter(
    omega_min: float, omega_max: float, constants: ConstantsTable
) -> JitterVariance:
    """Logarithmic estimate of the per-component jitter between two cutoffs.

    (2 alpha / 3 pi) * (hbar / m_e c)^2 * ln(omega_max / omega_min); the
    1/3 makes the estimate the per-axis share of the isotropic total,
    matching the 1/2 convention in the smearing formula.
    """
    if not (omega_min > 0 and omega_max > 0):
        raise DomainError("cutoff frequencies must be positive")
    if not omega_min < omega_max:
        raise DomainError(
            f"need omega_min < omega_max, got {omega_min!r} >= {omega_max!r}"
        )
    value = (
        (2.0 * constants.alpha / (3.0 * math.pi))
        * constants.lambda_C.value**2
        * math.log(omega_max / omega_min)
    )
    return JitterVariance(
        value=value, source="welton-estimate", omega_min=omega_min, omega_max=omega_max
    )


def default_cutoffs(constants: ConstantsTable) -> tuple[float, float]:
    """(omega_min, omega_max) = (alpha^2 m c^2/hbar, m c^2/hbar)."""
    omega_max = (constants.m_e * constants.c**2 / constants.hbar).value
    return constants.alpha**2 * omega_max, omega_max


def shift_to_frequency(dE: Quantity, constants: ConstantsTable) -> Quantity:
    """Convert an energy shift to a frequency: dE / h with h = 2 pi hbar."""
    if dE.dim != ENERGY:
        raise DomainError(f"expected an energy, got dimension [{dE.dim}]")
    return dE / constants.h
