"""Parallel-plate Casimir force: closed form plus a regularized mode-sum.

The closed form is -(pi^2/240) hbar c A / l^4.  The mode-sum route
recovers the same coefficient independently: the transverse-integrated
vacuum energy between plates reduces to the cubic sum over normal modes,
regulated as sum_{n>=1} n^3 exp(-eps n) minus its continuum integral
6/eps^4.  Extrapolating eps -> 0 (the error series is even in eps) gives
1/120, and the energy per area is E/A = -(pi^2/6) * limit * hbar c / l^3,
i.e. a coefficient pi^2/720 whose l-derivative reproduces pi^2/240.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

from .errors import ConfigurationError, ConvergenceError, DomainError
from .units import AREA, FORCE, LENGTH, ConstantsTable, Quantity

DEFAULT_EPSILONS = (0.4, 0.2, 0.1, 0.05)
ENERGY_COEFFICIENT_EXACT = math.pi**2 / 720.0
FORCE_COEFFICIENT_EXACT = math.pi**2 / 240.0
RESIDUAL_TOLERANCE = 1e-3
_SUM_DPS = 30  # working digits at eps >= 1; regulated_cubic_sum adds 5 per decade below


@dataclass(frozen=True)
class CasimirConfig:
    plate_area: float
    separation: float
    regulator_epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    extrapolation_order: int = 3

    def __post_init__(self):
        if not self.plate_area > 0:
            raise DomainError(f"plate_area must be > 0, got {self.plate_area}")
        if not self.separation > 0:
            raise DomainError(f"separation must be > 0, got {self.separation}")
        object.__setattr__(self, "regulator_epsilons", _checked_ladder(self.regulator_epsilons))


def _checked_ladder(epsilons) -> tuple[float, ...]:
    """The regulator ladder as floats: at least two, strictly decreasing, in (0, 2*pi).

    The regulated sum's poles at eps = 2*pi*i*k put the radius of
    convergence of its eps-series, which the extrapolation assumes, at 2*pi.
    """
    eps = tuple(float(e) for e in epsilons)
    if len(eps) < 2:
        raise ConfigurationError("need at least two regulator epsilons to extrapolate")
    if not all(0 < e < 2 * math.pi for e in eps):
        raise ConfigurationError(f"regulator epsilons must lie in (0, 2*pi), got {eps}")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigurationError(f"regulator epsilons must be strictly decreasing, got {eps}")
    return eps


@dataclass(frozen=True)
class CasimirDiagnostics:
    epsilons: tuple[float, ...]
    regulated_values: tuple[float, ...]
    extrapolants: tuple[float, ...]  # successive extrapolation-depth estimates
    residuals: tuple[float, ...]  # relative change between successive extrapolants


@dataclass(frozen=True)
class CasimirResult:
    force_closed: Quantity
    energy_coefficient: float  # c_E in E/A = -c_E hbar c / l^3
    zeta_check: float  # extrapolated regulated sum, expect 1/120
    diagnostics: CasimirDiagnostics


def casimir_force_closed(area: float, separation: float, constants: ConstantsTable) -> Quantity:
    """-(pi^2/240) hbar c A / l^4 as a force-dimensioned Quantity."""
    if not area > 0:
        raise DomainError(f"area must be > 0, got {area}")
    if not separation > 0:
        raise DomainError(f"separation must be > 0, got {separation}")
    a_q = Quantity(area, AREA, constants.system)
    l_q = Quantity(separation, LENGTH, constants.system)
    force = -(FORCE_COEFFICIENT_EXACT) * constants.hbar * constants.c * a_q / l_q**4
    assert force.dim == FORCE
    if not -math.inf < force.value < 0:  # underflowed to -0.0 or overflowed to -inf
        raise DomainError(f"Casimir force {force.value!r} is not finite and attractive (< 0)")
    return force


def regulated_cubic_sum(epsilon: float) -> float:
    """sum_{n>=1} n^3 e^(-eps n) minus the continuum integral 6/eps^4.

    The sum has the closed form x(1 + 4x + x^2)/(1 - x)^4 with x = e^(-eps),
    so the cost does not depend on eps; as eps -> 0 the value approaches
    1/120.  Subtracting 6/eps^4 cancels about 4 log10(1/eps) + 3 leading
    digits, and 1 - x, formed from x itself, loses log10(1/eps) more, so
    the decimal working precision grows by 5 digits per decade of eps
    below 1.  A fresh context keeps the caller's decimal settings out of
    the result.  Only the final difference is rounded back to a float.
    """
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")
    extra = 5 * max(0, math.ceil(-math.log10(epsilon)))
    with decimal.localcontext(decimal.Context(prec=_SUM_DPS + extra)):
        eps = decimal.Decimal(epsilon)
        x = (-eps).exp()
        return float(x * (1 + 4 * x + x * x) / (1 - x) ** 4 - 6 / eps**4)


def extrapolate_to_zero(
    epsilons: tuple[float, ...], values: tuple[float, ...], order: int
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Polynomial extrapolation in eps^2 to eps = 0 (Neville scheme).

    Returns (limit, successive depth-d estimates, relative residuals
    between successive estimates).  ``order`` caps the polynomial degree.
    """
    if len(epsilons) != len(values) or len(epsilons) < 2:
        raise ConfigurationError("need matching epsilon/value lists of length >= 2")
    if order < 1:
        raise ConfigurationError(f"extrapolation_order must be >= 1, got {order}")
    x = [e * e for e in epsilons]
    depth = min(order, len(x) - 1)
    tableau = [list(values)]
    extrapolants = [values[-1]]
    for j in range(1, depth + 1):
        prev = tableau[-1]
        row = []
        for i in range(len(prev) - 1):
            denom = x[i] - x[i + j]
            row.append((x[i] * prev[i + 1] - x[i + j] * prev[i]) / denom)
        tableau.append(row)
        extrapolants.append(row[-1])
    residuals = tuple(
        abs(b - a) / max(abs(b), 1e-300) for a, b in zip(extrapolants, extrapolants[1:])
    )
    return extrapolants[-1], tuple(extrapolants), residuals


def _extrapolated_sum(epsilons: tuple[float, ...], order: int):
    values = tuple(regulated_cubic_sum(e) for e in epsilons)
    limit, extrapolants, residuals = extrapolate_to_zero(epsilons, values, order)
    if not residuals[-1] <= RESIDUAL_TOLERANCE:  # a NaN residual fails too
        raise ConvergenceError(
            f"regulator extrapolation residual {residuals[-1]:.3e} "
            f"exceeds {RESIDUAL_TOLERANCE:.1e}; refine the epsilon ladder"
        )
    return limit, values, extrapolants, residuals


def modesum_energy_per_area(
    separation: float,
    constants: ConstantsTable,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
    order: int = 3,
) -> Quantity:
    """Vacuum energy per plate area from the regulated mode sum."""
    if not separation > 0:
        raise DomainError(f"separation must be > 0, got {separation}")
    limit, _, _, _ = _extrapolated_sum(_checked_ladder(epsilons), order)
    l_q = Quantity(separation, LENGTH, constants.system)
    coefficient = (math.pi**2 / 6.0) * limit
    return -coefficient * constants.hbar * constants.c / l_q**3


def casimir_energy_modesum(config: CasimirConfig, constants: ConstantsTable) -> CasimirResult:
    """Recover the Casimir energy coefficient from the regulated mode sum."""
    limit, values, extrapolants, residuals = _extrapolated_sum(
        config.regulator_epsilons, config.extrapolation_order
    )
    return CasimirResult(
        force_closed=casimir_force_closed(config.plate_area, config.separation, constants),
        energy_coefficient=(math.pi**2 / 6.0) * limit,
        zeta_check=limit,
        diagnostics=CasimirDiagnostics(
            epsilons=config.regulator_epsilons,
            regulated_values=values,
            extrapolants=extrapolants,
            residuals=residuals,
        ),
    )
