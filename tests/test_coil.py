"""Coil tap currents: the charge-substituted shortcut vs the exact composition."""

import math

import numpy as np
import pytest

from zpflab.coil import (
    CoilSpec,
    TapEstimate,
    coil_current,
    predicted_rms,
    zpf_tap_estimate,
)
from zpflab.errors import DomainError
from zpflab.units import (
    AREA,
    CHARGE_GAUSSIAN,
    LENGTH,
    TIME,
    Quantity,
    compton_time,
    constants_for,
    particle_mass,
)

GAUSSIAN = constants_for("gaussian")
NATURAL = constants_for("natural")

# CODATA oracle inputs (Gaussian-CGS).
HBAR = 1.0545718176461565e-27
C = 2.99792458e10
ALPHA = 7.2973525693e-3
TAU_C = 1.2880886681975522e-21
OHM_IN_GAUSSIAN = 1.0 / (C**2 * 1e-9)  # 1 ohm expressed in s/cm


def bfield(value):
    """A magnetic field of ``value`` gauss, dimension M^1/2 L^-1/2 T^-1."""
    return Quantity(value, CHARGE_GAUSSIAN / AREA, "gaussian")


class TestCoilCurrent:
    def test_unit_plug_in(self):
        spec = CoilSpec(turns=1, area=1.0, resistance=1.0)
        i = coil_current(bfield(1.0), spec, Quantity(1.0, TIME, "gaussian"))
        assert i.value == 1.0

    def test_linearity_in_turns_and_resistance(self):
        dt = Quantity(2.0, TIME, "gaussian")
        base = coil_current(bfield(3.0), CoilSpec(turns=5, area=2.0, resistance=4.0), dt)
        doubled_n = coil_current(bfield(3.0), CoilSpec(turns=10, area=2.0, resistance=4.0), dt)
        doubled_r = coil_current(bfield(3.0), CoilSpec(turns=5, area=2.0, resistance=8.0), dt)
        assert doubled_n.value == pytest.approx(2 * base.value, rel=1e-15)
        assert doubled_r.value == pytest.approx(base.value / 2, rel=1e-15)

    def test_gaussian_hand_computation(self):
        # oracle: i = N B A / (R dt) with B = sqrt(hbar c)/l^2 at l = 1 cm,
        # dt = electron Compton time, R = 1 ohm converted to s/cm
        b_oracle = math.sqrt(HBAR * C) / 1.0**2
        i_oracle = 100.0 * b_oracle * 10.0 / (OHM_IN_GAUSSIAN * TAU_C)
        spec = CoilSpec(turns=100, area=10.0, resistance=OHM_IN_GAUSSIAN)
        b = predicted_rms(Quantity(1.0, LENGTH, "gaussian"), GAUSSIAN)
        i = coil_current(b, spec, GAUSSIAN.tau_C)
        assert i.value == pytest.approx(i_oracle, rel=1e-10)

    def test_invalid_inputs(self):
        spec = CoilSpec(turns=1, area=1.0, resistance=1.0)
        with pytest.raises(DomainError):
            coil_current(bfield(1.0), spec, Quantity(0.0, TIME, "gaussian"))
        with pytest.raises(DomainError):
            coil_current(bfield(-1.0), spec, Quantity(1.0, TIME, "gaussian"))
        with pytest.raises(DomainError):
            coil_current(bfield(1.0), spec, Quantity(1.0, LENGTH, "gaussian"))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CoilSpec(turns=0, area=1.0, resistance=1.0)
        with pytest.raises(DomainError):
            CoilSpec(turns=1, area=-1.0, resistance=1.0)
        with pytest.raises(DomainError):
            CoilSpec(turns=1, area=1.0, resistance=0.0)


class TestTapEstimate:
    def test_ratio_is_inverse_sqrt_alpha(self):
        rng = np.random.default_rng(41)
        expected = 1.0 / math.sqrt(ALPHA)
        for _ in range(25):
            spec = CoilSpec(
                turns=int(rng.integers(1, 1000)),
                area=float(10 ** rng.uniform(-3, 3)),
                resistance=float(10 ** rng.uniform(-12, 3)),
            )
            est = zpf_tap_estimate(
                spec,
                Quantity(float(10 ** rng.uniform(-8, 2)), LENGTH, "gaussian"),
                Quantity(float(10 ** rng.uniform(-21, -3)), TIME, "gaussian"),
                GAUSSIAN,
            )
            assert est.ratio == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(11.70623761435312, rel=1e-10)

    def test_natural_units_ratio_and_value(self):
        spec = CoilSpec(turns=1, area=1.0, resistance=1.0)
        est = zpf_tap_estimate(
            spec,
            Quantity(1.0, LENGTH, "natural"),
            Quantity(1.0, TIME, "natural"),
            NATURAL,
        )
        assert est.ratio == pytest.approx(11.706237614353121, rel=1e-6)
        # N=1, A=l^2, R*tau = 1, l=1: the shortcut collapses to e
        assert est.current_via_charge.value == pytest.approx(NATURAL.e.value, rel=1e-14)
        assert est.current_exact.value == pytest.approx(1.0, rel=1e-14)

    def test_composition_identity_exact(self):
        spec = CoilSpec(turns=7, area=3.5, resistance=0.02)
        scale = Quantity(0.4, LENGTH, "gaussian")
        tau = Quantity(1.7e-21, TIME, "gaussian")
        est = zpf_tap_estimate(spec, scale, tau, GAUSSIAN)
        recomputed = coil_current(predicted_rms(scale, GAUSSIAN), spec, tau)
        assert est.current_exact.value == recomputed.value  # bit-equal

    def test_quarter_current_at_double_scale(self):
        spec = CoilSpec(turns=2, area=1.0, resistance=1.0)
        tau = Quantity(1.0e-10, TIME, "gaussian")
        one = zpf_tap_estimate(spec, Quantity(1.0, LENGTH, "gaussian"), tau, GAUSSIAN)
        two = zpf_tap_estimate(spec, Quantity(2.0, LENGTH, "gaussian"), tau, GAUSSIAN)
        assert two.current_exact.value == pytest.approx(one.current_exact.value / 4, rel=1e-12)
        assert two.current_via_charge.value == pytest.approx(one.current_via_charge.value / 4, rel=1e-12)

    def test_scaling_laws(self):
        rng = np.random.default_rng(42)
        base_spec = CoilSpec(turns=3, area=2.0, resistance=5.0)
        base_l = Quantity(0.7, LENGTH, "gaussian")
        base_tau = Quantity(2.0e-15, TIME, "gaussian")
        base = zpf_tap_estimate(base_spec, base_l, base_tau, GAUSSIAN)
        for _ in range(30):
            k_n = int(rng.integers(1, 20))
            k = float(10 ** rng.uniform(-2, 2))
            by_turns = zpf_tap_estimate(
                CoilSpec(turns=3 * k_n, area=2.0, resistance=5.0), base_l, base_tau, GAUSSIAN
            )
            assert by_turns.current_exact.value == pytest.approx(
                k_n * base.current_exact.value, rel=1e-12
            )
            by_area = zpf_tap_estimate(
                CoilSpec(turns=3, area=2.0 * k, resistance=5.0), base_l, base_tau, GAUSSIAN
            )
            assert by_area.current_exact.value == pytest.approx(
                k * base.current_exact.value, rel=1e-12
            )
            by_res = zpf_tap_estimate(
                CoilSpec(turns=3, area=2.0, resistance=5.0 * k), base_l, base_tau, GAUSSIAN
            )
            assert by_res.current_exact.value == pytest.approx(
                base.current_exact.value / k, rel=1e-12
            )
            by_scale = zpf_tap_estimate(base_spec, base_l * k, base_tau, GAUSSIAN)
            assert by_scale.current_exact.value == pytest.approx(
                base.current_exact.value / k**2, rel=1e-12
            )
            by_tau = zpf_tap_estimate(base_spec, base_l, base_tau * k, GAUSSIAN)
            assert by_tau.current_exact.value == pytest.approx(
                base.current_exact.value / k, rel=1e-12
            )

    def test_compton_time_default_matches_table(self):
        tau = compton_time(particle_mass("electron", "gaussian"))
        assert tau.value == pytest.approx(TAU_C, rel=1e-12)

    def test_si_system_rejected(self):
        spec = CoilSpec(turns=1, area=1.0, resistance=1.0)
        with pytest.raises(DomainError):
            zpf_tap_estimate(
                spec,
                Quantity(1.0, LENGTH, "si"),
                Quantity(1.0, TIME, "si"),
                constants_for("si"),
            )

    def test_nonpositive_scale_or_tau_rejected(self):
        spec = CoilSpec(turns=1, area=1.0, resistance=1.0)
        with pytest.raises(DomainError):
            zpf_tap_estimate(
                spec, Quantity(0.0, LENGTH, "gaussian"),
                Quantity(1.0, TIME, "gaussian"), GAUSSIAN,
            )
        with pytest.raises(DomainError):
            zpf_tap_estimate(
                spec, Quantity(1.0, LENGTH, "gaussian"),
                Quantity(-1.0, TIME, "gaussian"), GAUSSIAN,
            )

    @pytest.mark.parametrize(
        "area, resistance, length",
        [(1e-300, 1e5, 1e5), (1e-300, 1e5, 1e-10), (1e-300, 1e10, 1e-20), (1.0, 1.0, 1e150)],
    )
    def test_subnormal_factor_rejected_before_the_ratio_guard(self, area, resistance, length):
        # a subnormal factor keeps too few digits for the 1/sqrt(alpha) comparison
        spec = CoilSpec(turns=1, area=area, resistance=resistance)
        with pytest.raises(DomainError, match="normal float range"):
            zpf_tap_estimate(
                spec, Quantity(length, LENGTH, "gaussian"), GAUSSIAN.tau_C, GAUSSIAN
            )

    def test_estimate_echoes_inputs(self):
        spec = CoilSpec(turns=4, area=1.5, resistance=2.0)
        scale = Quantity(0.3, LENGTH, "gaussian")
        tau = Quantity(1e-12, TIME, "gaussian")
        est = zpf_tap_estimate(spec, scale, tau, GAUSSIAN)
        assert isinstance(est, TapEstimate)
        assert est.coil == spec
        assert est.scale == scale
        assert est.fluctuation_time == tau
