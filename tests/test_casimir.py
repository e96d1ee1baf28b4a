"""Closed-form Casimir force and the regulated mode-sum cross-check."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zpflab.casimir import (
    DEFAULT_EPSILONS,
    ENERGY_COEFFICIENT_EXACT,
    FORCE_COEFFICIENT_EXACT,
    CasimirConfig,
    casimir_energy_modesum,
    casimir_force_closed,
    extrapolate_to_zero,
    modesum_energy_per_area,
    regulated_cubic_sum,
)
from zpflab.errors import ConfigurationError, ConvergenceError, DomainError
from zpflab.units import FORCE, constants_for

NATURAL = constants_for("natural")
SI = constants_for("si")


def closed_form_regulated(eps: float, dps: int = 40) -> float:
    """Geometric-series derivative minus continuum term at ``dps`` digits.

    The default 40 digits cover the ~9 digits the continuum subtraction
    cancels at eps = 0.05.
    """
    import mpmath

    with mpmath.workdps(dps):
        e = mpmath.mpf(eps)
        ee = mpmath.exp(e)
        value = ee * (ee * ee + 4 * ee + 1) / (ee - 1) ** 4 - 6 / e**4
        return float(value)


class TestClosedForm:
    def test_natural_unit_plates(self):
        f = casimir_force_closed(1.0, 1.0, NATURAL)
        assert f.dim == FORCE
        assert f.value == pytest.approx(-math.pi**2 / 240.0, rel=1e-14)
        assert f.value == pytest.approx(-0.0411234, abs=1e-7)

    def test_quarter_force_at_double_separation(self):
        f1 = casimir_force_closed(1.0, 1.0, NATURAL).value
        f2 = casimir_force_closed(1.0, 2.0, NATURAL).value
        assert f2 == pytest.approx(f1 / 16.0, rel=1e-14)

    def test_si_plates_one_cm2_one_micron(self):
        # oracle: plug-in arithmetic with CODATA hbar, c
        hbar, c = 1.0545718176461565e-34, 299792458.0
        oracle = -(math.pi**2 / 240.0) * hbar * c * 1e-4 / (1e-6) ** 4
        f = casimir_force_closed(1e-4, 1e-6, SI)
        assert f.value == pytest.approx(oracle, rel=1e-12)
        assert f.value == pytest.approx(-1.3e-7, rel=1e-3)

    def test_monotone_in_separation_linear_in_area(self):
        rng = np.random.default_rng(21)
        seps = np.sort(rng.uniform(0.1, 10.0, size=20))
        forces = [casimir_force_closed(1.0, s, NATURAL).value for s in seps]
        assert all(a < b for a, b in zip(forces, forces[1:]))  # less negative
        for _ in range(20):
            area, scale = rng.uniform(0.1, 10.0, size=2)
            assert casimir_force_closed(scale * area, 1.0, NATURAL).value == pytest.approx(
                scale * casimir_force_closed(area, 1.0, NATURAL).value, rel=1e-12
            )

    def test_invalid_geometry(self):
        with pytest.raises(DomainError):
            casimir_force_closed(0.0, 1.0, NATURAL)
        with pytest.raises(DomainError):
            casimir_force_closed(1.0, -1.0, NATURAL)

    def test_force_underflowing_to_zero_rejected(self):
        # the product underflows to -0.0, which is no attractive force
        with pytest.raises(DomainError, match="attractive"):
            casimir_force_closed(1e-300, 1e10, NATURAL)


class TestRegulatedSum:
    """regulated_cubic_sum evaluates the closed form; the reference adds terms."""

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4, 1.0, 10.0])
    def test_matches_closed_form(self, eps, term_by_term_sum):
        assert regulated_cubic_sum(eps) == pytest.approx(term_by_term_sum(eps), rel=1e-10)

    def test_closed_form_agreement_across_range(self, term_by_term_sum):
        for eps in np.geomspace(0.05, 10.0, 40):
            assert regulated_cubic_sum(float(eps)) == pytest.approx(
                term_by_term_sum(float(eps)), rel=1e-10
            )

    @pytest.mark.parametrize("eps", [float(e) for e in np.geomspace(1e-6, 10.0, 15)])
    def test_correctly_rounded(self, eps):
        assert regulated_cubic_sum(eps) == closed_form_regulated(eps, dps=120)

    @pytest.mark.parametrize("eps", [float(e) for e in np.geomspace(1e-300, 1e-7, 15)])
    def test_correctly_rounded_at_tiny_epsilon(self, eps):
        # the oracle's working digits grow by 6 per decade, one past the 5 it needs
        decades = math.ceil(-math.log10(eps))
        assert regulated_cubic_sum(eps) == closed_form_regulated(eps, dps=40 + 6 * decades)

    def test_subnormal_value_is_correctly_rounded(self):
        # here x underflows and the value is -6/eps^4, a subnormal float
        eps = 1.2998090889640314e77
        assert regulated_cubic_sum(eps) == float(-6 / Fraction(eps) ** 4)

    def test_tiny_epsilon_returns_the_limit(self):
        # a term-by-term sum would need ~1e300 terms here
        assert regulated_cubic_sum(1e-300) == pytest.approx(1.0 / 120.0, rel=1e-15)

    def test_epsilon_one_frozen_value(self):
        # (e^3 + 4e^2 + e)/(e-1)^4 - 6 at 40 digits, frozen to float64
        frozen = 0.006512796636760148
        assert closed_form_regulated(1.0) == pytest.approx(frozen, rel=1e-15)
        assert regulated_cubic_sum(1.0) == pytest.approx(frozen, rel=1e-12)
        # plain double-precision evaluation agrees only to ~4e-13: the -6
        # cancellation is why the comparisons run through the 40-digit oracle
        e = math.e
        naive = (e**3 + 4 * e**2 + e) / (e - 1.0) ** 4 - 6.0
        assert naive == pytest.approx(frozen, rel=1e-11)

    def test_nonpositive_epsilon(self):
        with pytest.raises(DomainError):
            regulated_cubic_sum(0.0)
        with pytest.raises(DomainError):
            regulated_cubic_sum(-0.3)

    def test_infinite_epsilon(self):
        with pytest.raises(DomainError):
            regulated_cubic_sum(math.inf)


class TestExtrapolation:
    def test_limit_hits_zeta_minus_three(self):
        values = tuple(regulated_cubic_sum(e) for e in DEFAULT_EPSILONS)
        limit, _, _ = extrapolate_to_zero(DEFAULT_EPSILONS, values, order=3)
        assert limit == pytest.approx(1.0 / 120.0, abs=1e-6)

    def test_residuals_decrease_with_depth(self):
        values = tuple(regulated_cubic_sum(e) for e in DEFAULT_EPSILONS)
        _, _, residuals = extrapolate_to_zero(DEFAULT_EPSILONS, values, order=3)
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_coarse_ladder_raises_convergence_error(self):
        config = CasimirConfig(
            plate_area=1.0, separation=1.0, regulator_epsilons=(6.0, 5.0),
            extrapolation_order=1,
        )
        with pytest.raises(ConvergenceError):
            casimir_energy_modesum(config, NATURAL)

    @pytest.mark.parametrize("ladder", [(1e300, 0.4), (20.0, 0.4)])
    def test_ladder_past_two_pi_rejected(self, ladder):
        # 2*pi bounds the convergence of the eps-series the extrapolation assumes
        with pytest.raises(ConfigurationError, match="2\\*pi"):
            CasimirConfig(
                plate_area=1.0, separation=1.0, regulator_epsilons=ladder,
                extrapolation_order=1,
            )
        with pytest.raises(ConfigurationError, match="2\\*pi"):
            modesum_energy_per_area(1.0, NATURAL, epsilons=ladder, order=1)


class TestModeSum:
    def test_energy_coefficient(self):
        config = CasimirConfig(plate_area=1.0, separation=1.0)
        result = casimir_energy_modesum(config, NATURAL)
        assert result.energy_coefficient == pytest.approx(
            ENERGY_COEFFICIENT_EXACT, rel=1e-3
        )
        assert result.zeta_check == pytest.approx(1.0 / 120.0, abs=1e-6)
        assert result.force_closed.value < 0

    def test_force_coefficient_is_three_times_energy_coefficient(self):
        assert FORCE_COEFFICIENT_EXACT == pytest.approx(
            3.0 * ENERGY_COEFFICIENT_EXACT, rel=1e-15
        )

    def test_finite_difference_force_matches_closed_form(self):
        # oracle: central difference of the mode-sum energy, F = -dE/dl
        step = 1e-4
        e_plus = modesum_energy_per_area(1.0 + step, NATURAL).value
        e_minus = modesum_energy_per_area(1.0 - step, NATURAL).value
        force_numeric = -(e_plus - e_minus) / (2.0 * step)
        closed = casimir_force_closed(1.0, 1.0, NATURAL).value
        assert force_numeric == pytest.approx(closed, rel=1e-3)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CasimirConfig(plate_area=1.0, separation=1.0, regulator_epsilons=(0.4,))
        with pytest.raises(ConfigurationError):
            CasimirConfig(plate_area=1.0, separation=1.0, regulator_epsilons=(0.1, 0.2))
        with pytest.raises(ConfigurationError):
            CasimirConfig(plate_area=1.0, separation=1.0, regulator_epsilons=(0.2, -0.1))
        with pytest.raises(DomainError):
            CasimirConfig(plate_area=-1.0, separation=1.0)

    def test_order_below_one_is_a_configuration_error(self):
        # checked where the extrapolation needs it, so every entry point agrees
        message = "extrapolation_order must be >= 1, got 0"
        values = tuple(regulated_cubic_sum(e) for e in DEFAULT_EPSILONS)
        with pytest.raises(ConfigurationError, match=message):
            extrapolate_to_zero(DEFAULT_EPSILONS, values, order=0)
        with pytest.raises(ConfigurationError, match=message):
            modesum_energy_per_area(1.0, NATURAL, order=0)
        config = CasimirConfig(plate_area=1.0, separation=1.0, extrapolation_order=0)
        with pytest.raises(ConfigurationError, match=message):
            casimir_energy_modesum(config, NATURAL)

    def test_modesum_energy_per_area_checks_the_ladder(self):
        with pytest.raises(ConfigurationError, match="decreasing"):
            modesum_energy_per_area(1.0, NATURAL, epsilons=(0.05, 0.4, 0.1, 0.2))
