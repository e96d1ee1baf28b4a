"""Units, dimensions, and the pinned constants snapshot."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zpflab.errors import ConfigurationError, DimensionError, DomainError
from zpflab.units import (
    ACTION,
    AREA,
    CHARGE_GAUSSIAN,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    TIME,
    Dimension,
    Quantity,
    compton_time,
    constants_for,
    particle_mass,
)

# Oracle inputs: CODATA-2018 quoted values, independent of the data file.
HBAR_SI = 6.62607015e-34 / (2 * math.pi)
C_SI = 299792458.0
ME_SI = 9.1093837015e-31
ALPHA = 7.2973525693e-3


class TestDimension:
    def test_exact_rational_arithmetic(self):
        d = CHARGE_GAUSSIAN
        assert d.length == Fraction(3, 2)
        assert (d * d).length == Fraction(3)
        assert (d / d) == DIMENSIONLESS
        assert d ** Fraction(1, 2) == Dimension(
            length=Fraction(3, 4), mass=Fraction(1, 4), time=Fraction(-1, 2)
        )

    def test_equality_requires_all_exponents(self):
        assert Dimension(length=1) != Dimension(length=1, time=-1)
        assert Dimension(length=Fraction(1, 2)) == Dimension(length=Fraction(2, 4))

    def test_sqrt_hbar_c_is_gaussian_charge(self):
        assert (ACTION * (LENGTH / TIME)) ** Fraction(1, 2) == CHARGE_GAUSSIAN


class TestQuantityArithmetic:
    def test_product_quotient_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = Quantity(rng.uniform(1e-20, 1e20), LENGTH, "gaussian")
            b = Quantity(rng.uniform(1e-20, 1e20), MASS / TIME, "gaussian")
            back = (a * b) / b
            assert back.dim == a.dim
            assert back.value == pytest.approx(a.value, rel=1e-14)

    def test_add_unequal_dimensions_always_errors(self):
        rng = np.random.default_rng(12)
        dims = [LENGTH, MASS, TIME, AREA, ENERGY, CHARGE_GAUSSIAN]
        for _ in range(50):
            i, j = rng.integers(0, len(dims), size=2)
            a = Quantity(rng.normal(), dims[i], "si")
            b = Quantity(rng.normal(), dims[j], "si")
            if dims[i] == dims[j]:
                assert (a + b).value == a.value + b.value
            else:
                with pytest.raises(DimensionError):
                    a + b

    def test_mixed_systems_error(self):
        a = Quantity(1.0, LENGTH, "gaussian")
        b = Quantity(1.0, LENGTH, "si")
        with pytest.raises(DimensionError):
            a + b
        with pytest.raises(DimensionError):
            a * b

    def test_fractional_power_of_negative_errors(self):
        with pytest.raises(DomainError):
            Quantity(-4.0, AREA, "si").sqrt()

    def test_unknown_system_tag(self):
        with pytest.raises(ConfigurationError):
            Quantity(1.0, LENGTH, "imperial")


class TestConstantsTables:
    def test_natural_sets_hbar_c_to_one_exactly(self):
        t = constants_for("natural")
        assert t.hbar.value == 1.0
        assert t.c.value == 1.0

    def test_si_compton_time(self):
        # oracle: direct arithmetic from quoted CODATA values
        oracle = HBAR_SI / (ME_SI * C_SI**2)
        t = constants_for("si")
        assert t.tau_C.value == pytest.approx(oracle, rel=1e-12)
        assert t.tau_C.value == pytest.approx(1.288e-21, rel=1e-3)

    def test_gaussian_sqrt_hbar_c_over_e(self):
        # oracle: 1/sqrt(alpha)
        t = constants_for("gaussian")
        ratio = (t.hbar * t.c).sqrt() / t.e
        assert ratio.dim == DIMENSIONLESS
        assert ratio.value == pytest.approx(1.0 / math.sqrt(ALPHA), rel=1e-10)
        assert ratio.value == pytest.approx(11.706, rel=1e-4)

    @pytest.mark.parametrize("system", ["gaussian", "si", "natural"])
    def test_alpha_closes_from_stored_constants(self, system):
        t = constants_for(system)
        if system == "si":
            alpha_back = t.e.value**2 / (
                4 * math.pi * t.epsilon0.value * t.hbar.value * t.c.value
            )
        else:
            alpha_back = (t.e**2 / (t.hbar * t.c)).value
        assert alpha_back == pytest.approx(t.alpha, rel=1e-6)

    @pytest.mark.parametrize("system", ["gaussian", "si", "natural"])
    def test_compton_relations(self, system):
        t = constants_for(system)
        assert t.tau_C.value == pytest.approx(
            (t.hbar / (t.m_e * t.c**2)).value, rel=1e-12
        )
        assert t.lambda_C.value == pytest.approx((t.c * t.tau_C).value, rel=1e-12)

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            constants_for("heaviside")

    def test_rows_cover_table(self):
        names = [row[0] for row in constants_for("si").rows()]
        assert names == ["hbar", "c", "e", "m_e", "alpha", "epsilon0", "a0", "lambda_C", "tau_C"]


class TestComptonTime:
    def test_electron_value(self):
        tau = compton_time(particle_mass("electron", "si"))
        assert tau.dim == TIME
        assert tau.value == pytest.approx(1.288e-21, rel=1e-3)

    def test_double_mass_halves_time(self):
        m = particle_mass("electron", "gaussian")
        assert compton_time(2 * m).value == pytest.approx(
            compton_time(m).value / 2, rel=1e-14
        )

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            compton_time(Quantity(1.0, LENGTH, "si"))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            compton_time(Quantity(-1.0, MASS, "si"))

    def test_strictly_decreasing_in_mass(self):
        rng = np.random.default_rng(13)
        masses = np.sort(rng.uniform(1e-30, 1e-20, size=40))
        taus = [compton_time(Quantity(m, MASS, "si")).value for m in masses]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_unknown_particle(self):
        with pytest.raises(DomainError):
            particle_mass("muon", "si")


class TestCheckDimension:
    def test_sqrt_hbar_c_vs_gaussian_charge(self):
        t = constants_for("gaussian")
        assert (t.hbar * t.c).sqrt().dim == CHARGE_GAUSSIAN

    def test_hbar_vs_energy_time(self):
        t = constants_for("gaussian")
        assert t.hbar.dim == ENERGY * TIME
        assert ENERGY * TIME == ACTION

    def test_mismatch_is_false_not_error(self):
        t = constants_for("si")
        assert t.hbar.dim != ENERGY
