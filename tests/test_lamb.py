"""Jitter-smeared potential and the hydrogen s-level shift."""

import math

import numpy as np
import pytest

from zpflab.errors import DomainError
from zpflab.lamb import (
    HydrogenState,
    JitterVariance,
    default_cutoffs,
    hydrogen_s_shift,
    shift_to_frequency,
    welton_jitter,
)
from zpflab.units import ENERGY, ERG_PER_EV, FREQUENCY, Quantity, constants_for

GAUSSIAN = constants_for("gaussian")

# CODATA oracle inputs (Gaussian-CGS), independent of the constants tables.
HBAR = 1.0545718176461565e-27
C = 2.99792458e10
ME = 9.1093837015e-28
ALPHA = 7.2973525693e-3
E2 = ALPHA * HBAR * C  # e^2 in esu^2
A0 = 5.29177210903e-9
LAMBDA_C = HBAR / (ME * C)


def delta_V_numeric(V, point, jitter, step):
    """(1/2) * jitter * (7-point central-difference Laplacian of V at point).

    Exact for quadratic potentials; the point must not sit on a
    singularity of V.  The stencil route to the smearing formula that
    ``hydrogen_s_shift`` evaluates in closed form.
    """
    if not step > 0:
        raise DomainError(f"stencil step must be > 0, got {step}")
    r = np.asarray(point, dtype=float)
    if r.shape != (3,):
        raise DomainError(f"point must have 3 components, got shape {r.shape}")
    center = float(V(r))
    lap_terms = []
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = step
        lap_terms.append(float(V(r + offset)))
        lap_terms.append(float(V(r - offset)))
    if not all(math.isfinite(v) for v in lap_terms + [center]):
        raise DomainError("potential is not finite on the stencil")
    laplacian = (math.fsum(lap_terms) - 6.0 * center) / step**2
    return 0.5 * jitter.value * laplacian


class TestDeltaVNumeric:
    def test_exact_on_quadratic(self):
        jitter = JitterVariance(value=0.7)
        for point in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
            value = delta_V_numeric(lambda r: float(r @ r), point, jitter, step=1e-3)
            # laplacian of x^2+y^2+z^2 is 6, stencil exact on quadratics
            assert value == pytest.approx(3.0 * 0.7, rel=1e-9)

    def test_zero_jitter_gives_zero(self):
        value = delta_V_numeric(lambda r: math.exp(r[0]), [0.3, 0.1, 0.0],
                                JitterVariance(0.0), step=1e-3)
        assert value == 0.0

    def test_coulomb_is_harmonic_off_origin(self):
        jitter = JitterVariance(value=1.0)
        point = np.array([5.0 * A0, 0.0, 0.0])
        step = A0 / 100.0

        def coulomb(r):
            return -E2 / float(np.linalg.norm(r))

        value = delta_V_numeric(coulomb, point, jitter, step)
        stencil_scale = 0.5 * jitter.value * 6.0 * abs(coulomb(point)) / step**2
        assert abs(value) < 1e-8 * stencil_scale

    def test_nonfinite_potential_rejected(self):
        def bad(r):
            return float("inf") if r[0] > 0 else 0.0

        with pytest.raises(DomainError):
            delta_V_numeric(bad, [0.0, 0.0, 0.0], JitterVariance(1.0), step=1e-3)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            delta_V_numeric(lambda r: 0.0, [0, 0, 0], JitterVariance(1.0), step=0.0)


class TestHydrogenShift:
    def test_p_state_shift_exactly_zero(self):
        shift = hydrogen_s_shift(HydrogenState(n=2, ell=1), JitterVariance(1e-20), GAUSSIAN)
        assert shift.value == 0.0

    def test_zero_jitter_gives_zero(self):
        shift = hydrogen_s_shift(HydrogenState(n=2), JitterVariance(0.0), GAUSSIAN)
        assert shift.value == 0.0

    @pytest.mark.parametrize("state, j", [(HydrogenState(n=2), 1e-320), (HydrogenState(n=1), 5e-324)])
    def test_positive_jitter_whose_shift_underflows_is_refused(self, state, j):
        # 0.5 * j * 4 pi * e^2 would fall below the smallest subnormal before
        # |psi(0)|^2 scales it back up; both jitters are subnormal already, so
        # the Quantity that holds the jitter refuses it first
        with pytest.raises(DomainError, match="at (1e-320|5e-324), outside the normal float range"):
            hydrogen_s_shift(state, JitterVariance(j), GAUSSIAN)

    def test_matches_oracle_arithmetic(self):
        # oracle: Delta_E = (1/2) j 4 pi e^2 / (pi n^3 a0^3) = 2 e^2 j / (n^3 a0^3)
        j = 3.7e-23
        for n in (1, 2, 5):
            oracle = 2.0 * E2 * j / (n**3 * A0**3)
            shift = hydrogen_s_shift(HydrogenState(n=n), JitterVariance(j), GAUSSIAN)
            assert shift.dim == ENERGY
            assert shift.value == pytest.approx(oracle, rel=1e-10)
            assert shift.value > 0  # s-levels shift upward

    def test_linear_in_jitter(self):
        rng = np.random.default_rng(31)
        state = HydrogenState(n=3)
        base = hydrogen_s_shift(state, JitterVariance(1e-23), GAUSSIAN).value
        for _ in range(20):
            scale = float(rng.uniform(0.01, 100.0))
            shifted = hydrogen_s_shift(state, JitterVariance(scale * 1e-23), GAUSSIAN).value
            assert shifted == pytest.approx(scale * base, rel=1e-12)

    def test_inverse_cube_scaling_across_s_states(self):
        j = JitterVariance(2.2723421732226538e-23)
        ref = hydrogen_s_shift(HydrogenState(n=1), j, GAUSSIAN).value
        for n in range(2, 9):
            shift = hydrogen_s_shift(HydrogenState(n=n), j, GAUSSIAN).value
            assert shift == pytest.approx(ref / n**3, rel=1e-12)

    def test_si_system_rejected(self):
        with pytest.raises(DomainError):
            hydrogen_s_shift(HydrogenState(n=2), JitterVariance(1e-23), constants_for("si"))

    def test_state_validation(self):
        with pytest.raises(DomainError):
            HydrogenState(n=0)
        with pytest.raises(DomainError):
            HydrogenState(n=2, ell=2)
        with pytest.raises(DomainError):
            HydrogenState(n=2, ell=-1)
        # n^3 is a float up to n ~ 5.6e102; float(n**3) itself raises past it
        HydrogenState(n=5 * 10**102)
        with pytest.raises(DomainError, match=r"cubed at 10+\*\*3, outside the normal float range"):
            HydrogenState(n=10**103)

    def test_density_past_the_floats_is_refused(self):
        # pi n^3 overflows to inf for n above ~3.9e102, so 1 / (pi n^3 a0^3) would be 0
        state = HydrogenState(n=4 * 10**102)
        with pytest.raises(DomainError, match="density at the origin at 0.0, outside the normal"):
            hydrogen_s_shift(state, JitterVariance(1e-23), GAUSSIAN)


class TestWeltonJitter:
    def test_unit_log_value(self):
        # oracle: omega_max = e * omega_min makes the log exactly 1
        j = welton_jitter(1.0e16, math.e * 1.0e16, GAUSSIAN)
        oracle = (2.0 * ALPHA / (3.0 * math.pi)) * LAMBDA_C**2
        assert j.value == pytest.approx(oracle, rel=1e-10)

    def test_default_cutoffs(self):
        omega_min, omega_max = default_cutoffs(GAUSSIAN)
        assert omega_max == pytest.approx(ME * C**2 / HBAR, rel=1e-10)
        assert omega_min == pytest.approx(ALPHA**2 * ME * C**2 / HBAR, rel=1e-10)
        assert math.log(omega_max / omega_min) == pytest.approx(9.84048731669038, rel=1e-10)

    def test_default_jitter_value(self):
        j = welton_jitter(*default_cutoffs(GAUSSIAN), GAUSSIAN)
        oracle = (2.0 * ALPHA / (3.0 * math.pi)) * LAMBDA_C**2 * math.log(1.0 / ALPHA**2)
        assert j.value == pytest.approx(oracle, rel=1e-10)
        assert j.source == "welton-estimate"
        assert "omega_min" in j.provenance()

    def test_equal_cutoffs_rejected(self):
        with pytest.raises(DomainError):
            welton_jitter(1e16, 1e16, GAUSSIAN)

    def test_inverted_or_nonpositive_cutoffs_rejected(self):
        with pytest.raises(DomainError):
            welton_jitter(1e18, 1e16, GAUSSIAN)
        with pytest.raises(DomainError):
            welton_jitter(-1e16, 1e18, GAUSSIAN)

    def test_negative_jitter_rejected(self):
        with pytest.raises(DomainError):
            JitterVariance(value=-1e-20)

    def test_negative_zero_jitter_is_stored_as_positive_zero(self):
        assert math.copysign(1.0, JitterVariance(value=-0.0).value) == 1.0


class TestHeadlineNumber:
    def test_2s_shift_with_default_cutoffs_lands_near_1000_mhz(self):
        jitter = welton_jitter(*default_cutoffs(GAUSSIAN), GAUSSIAN)
        shift = hydrogen_s_shift(HydrogenState(n=2), jitter, GAUSSIAN)
        freq = shift_to_frequency(shift, GAUSSIAN)
        mhz = freq.value / 1e6
        assert 350.0 <= mhz <= 3000.0
        # frozen pipeline value for regression detection
        assert mhz == pytest.approx(1334.8009365494011, rel=1e-10)


class TestShiftToFrequency:
    def test_h_times_one_hertz(self):
        dE = GAUSSIAN.h * Quantity(1.0, FREQUENCY, "gaussian")
        out = shift_to_frequency(dE, GAUSSIAN)
        assert out.dim == FREQUENCY
        assert out.value == pytest.approx(1.0, rel=1e-14)

    def test_zero_energy(self):
        assert shift_to_frequency(Quantity(0.0, ENERGY, "gaussian"), GAUSSIAN).value == 0.0

    def test_known_lamb_energy_converts_to_1057_mhz(self):
        # oracle: 4.372e-6 eV -> erg -> /h; conversion sanity check only
        dE_erg = 4.372e-6 * ERG_PER_EV
        oracle_hz = dE_erg / (2 * math.pi * HBAR)
        assert oracle_hz == pytest.approx(1.0571448966395262e9, rel=1e-12)
        out = shift_to_frequency(Quantity(dE_erg, ENERGY, "gaussian"), GAUSSIAN)
        assert out.value == pytest.approx(oracle_hz, rel=1e-10)
        assert out.value / 1e6 == pytest.approx(1057.0, rel=1e-3)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            shift_to_frequency(Quantity(1.0, FREQUENCY, "gaussian"), GAUSSIAN)
