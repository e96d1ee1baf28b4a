"""Ground-state amplitude, width, variance, and sampling."""

import math

import mpmath
import numpy as np
import pytest

from zpflab.errors import DomainError
from zpflab.oscillator import (
    OscillatorParams,
    fluctuation_width,
    ground_state_psi,
    normalization_quadrature,
    position_variance,
    sample_positions,
)

UNIT = OscillatorParams(m=1.0, omega=1.0, hbar=1.0)

# Gaussian-CGS CODATA inputs for the dimensional check (oracle arithmetic).
HBAR_G = 1.0545718176461565e-27
C_G = 2.99792458e10
ME_G = 9.1093837015e-28
LAMBDA_C_G = HBAR_G / (ME_G * C_G)


def random_params(rng, span=3.0):
    # parameters spanning ~6 orders of magnitude around 1
    return OscillatorParams(
        m=10 ** rng.uniform(-span, span),
        omega=10 ** rng.uniform(-span, span),
        hbar=10 ** rng.uniform(-span, span),
    )


class TestAmplitude:
    def test_value_at_origin(self):
        assert ground_state_psi(0.0, UNIT) == pytest.approx(0.7511255444649425, rel=1e-14)

    def test_value_at_one(self):
        assert ground_state_psi(1.0, UNIT) == pytest.approx(0.45558067201133257, rel=1e-14)

    def test_even_function(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng)
            x = rng.normal(scale=3 * fluctuation_width(p), size=16)
            assert np.array_equal(ground_state_psi(x, p), ground_state_psi(-x, p))

    def test_positive_and_monotone_decreasing_in_abs_x(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params(rng)
            x = np.sort(np.abs(rng.normal(scale=4 * fluctuation_width(p), size=64)))
            vals = ground_state_psi(x, p)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) <= 0)
            assert ground_state_psi(0.0, p) >= vals[0]

    def test_invalid_params_rejected(self):
        for bad in (dict(m=0.0), dict(omega=-1.0), dict(hbar=float("nan"))):
            kwargs = dict(m=1.0, omega=1.0, hbar=1.0)
            kwargs.update(bad)
            with pytest.raises(DomainError):
                OscillatorParams(**kwargs)


class TestWidthAndVariance:
    def test_unit_width(self):
        assert fluctuation_width(UNIT) == 1.0

    def test_quadruple_mass_halves_width(self):
        p4 = OscillatorParams(m=4.0, omega=1.0, hbar=1.0)
        assert fluctuation_width(p4) == pytest.approx(0.5, rel=1e-15)

    def test_width_at_compton_frequency_is_compton_length(self):
        # oracle: sqrt(hbar/(m * c/lambda_C)) = lambda_C by direct arithmetic
        p = OscillatorParams(m=ME_G, omega=C_G / LAMBDA_C_G, hbar=HBAR_G)
        assert fluctuation_width(p) == pytest.approx(LAMBDA_C_G, rel=1e-12)

    def test_unit_variance(self):
        assert position_variance(UNIT) == 0.5

    def test_width_squared_is_twice_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_params(rng)
            assert fluctuation_width(p) ** 2 == pytest.approx(
                2.0 * position_variance(p), rel=1e-14
            )

    def test_variance_matches_quadrature_second_moment(self):
        # oracle: adaptive quadrature of x^2 |psi|^2, independent of the formula
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_params(rng, span=1.5)
            sigma = math.sqrt(position_variance(p))
            moment = mpmath.quad(
                lambda x: x**2 * float(ground_state_psi(float(x), p)) ** 2,
                [-12 * sigma, 0.0, 12 * sigma],
            )
            assert moment == pytest.approx(position_variance(p), rel=1e-8)


class TestNormalization:
    def test_quadrature_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_params(rng)
            assert normalization_quadrature(p) == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_determinism(self):
        a = sample_positions(UNIT, seed=42, n=1000)
        b = sample_positions(UNIT, seed=42, n=1000)
        assert np.array_equal(a, b)
        c = sample_positions(UNIT, seed=43, n=1000)
        assert not np.array_equal(a, c)

    def test_one_million_sample_variance(self):
        draws = sample_positions(UNIT, seed=202, n=10**6)
        assert draws.var() == pytest.approx(0.5, abs=0.005)

    def test_sample_mean_near_zero(self):
        n = 10**6
        draws = sample_positions(UNIT, seed=203, n=n)
        assert abs(draws.mean()) < 4 * math.sqrt(0.5 / n)

    def test_moments_within_five_standard_errors(self):
        n = 200_000
        rng = np.random.default_rng(10)
        for _ in range(3):
            p = random_params(rng)
            draws = sample_positions(p, seed=int(rng.integers(0, 2**32)), n=n)
            var = position_variance(p)
            se_var = var * math.sqrt(2.0 / n)
            assert abs(draws.var() - var) < 5 * se_var
            std = draws.std()
            kurt = np.mean(((draws - draws.mean()) / std) ** 4) - 3.0
            assert abs(kurt) < 5 * math.sqrt(24.0 / n)

    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            sample_positions(UNIT, seed=1, n=0)
