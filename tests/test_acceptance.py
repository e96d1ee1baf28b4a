"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from zpflab.casimir import (
    casimir_energy_modesum,
    casimir_force_closed,
    extrapolate_to_zero,
    modesum_energy_per_area,
    regulated_cubic_sum,
)
import zpflab
from zpflab.coil import CoilSpec, coil_current, predicted_rms, zpf_tap_estimate
from zpflab.field import LatticeSpec, scaling_run
from zpflab.lamb import (
    HydrogenState,
    default_cutoffs,
    hydrogen_s_shift,
    shift_to_frequency,
    welton_jitter,
)
from zpflab.oscillator import (
    OscillatorParams,
    fluctuation_width,
    normalization_quadrature,
    position_variance,
)
from zpflab.units import LENGTH, TIME, Quantity, constants_for

from held_samples import sample_positions  # the oracle of oscillator.sample_moments

NATURAL = constants_for("natural")
GAUSSIAN = constants_for("gaussian")


class _Stopwatch:
    def __init__(self, label, limit_seconds):
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({self.elapsed:.2f} s)")
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"{self.label}: runtime {self.elapsed:.2f}s exceeds {self.limit}s"
            )
        return False


def test_criterion_1_casimir_coefficients():
    with _Stopwatch("criterion 1: Casimir mode-sum coefficient and force", 5.0):
        result = casimir_energy_modesum()
        expected_c = math.pi**2 / 720.0
        assert abs(result.energy_coefficient - expected_c) <= 1e-3 * expected_c

        step = 1e-4
        e_plus = modesum_energy_per_area(1.0 + step, NATURAL).value
        e_minus = modesum_energy_per_area(1.0 - step, NATURAL).value
        force_numeric = -(e_plus - e_minus) / (2.0 * step)
        closed = casimir_force_closed(1.0, 1.0, NATURAL).value
        assert abs(force_numeric - closed) <= 1e-3 * abs(closed)


def test_criterion_2_regulated_sum_oracle(term_by_term_sum):
    with _Stopwatch("criterion 2: regulated sum vs term-by-term sum and zeta(-3)", 1.0):
        for eps in (0.05, 0.1, 0.2, 0.4, 1.0, 10.0):
            value = regulated_cubic_sum(eps)
            oracle = term_by_term_sum(eps)
            assert abs(value - oracle) <= 1e-10 * abs(oracle)

        ladder = (0.4, 0.2, 0.1, 0.05)
        values = tuple(regulated_cubic_sum(e) for e in ladder)
        limit, _, _ = extrapolate_to_zero(ladder, values, order=3)
        assert abs(limit - 1.0 / 120.0) <= 1e-6


def test_criterion_3_scaling_law_exponent():
    with _Stopwatch("criterion 3: coarse-grained RMS scaling exponent", 300.0):
        grid_n = 64
        spec = LatticeSpec(
            box_size=1.0,
            points_per_axis=grid_n,
            k_max=math.pi * grid_n,  # Nyquist
            spectrum_normalization=1.0,
        )
        scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]  # span factor 8, all divide the box
        report, fit = scaling_run(spec, scales, draws=50, seed=20260809, window="hann")
        assert fit is not None
        assert abs(fit.exponent - (-2.0)) <= 0.1, f"exponent {fit.exponent}"
        assert fit.r_squared >= 0.99, f"r^2 {fit.r_squared}"


def test_criterion_4_oscillator_ground_state():
    with _Stopwatch("criterion 4: oscillator normalization, variance, width", 10.0):
        rng = np.random.default_rng(64)
        for _ in range(10):
            p = OscillatorParams(
                m=10 ** rng.uniform(-3, 3),
                omega=10 ** rng.uniform(-3, 3),
                hbar=10 ** rng.uniform(-3, 3),
            )
            assert abs(normalization_quadrature(p) - 1.0) <= 1e-10
            width_sq = fluctuation_width(p) ** 2
            assert abs(width_sq - 2.0 * position_variance(p)) <= 1e-14 * width_sq

        unit = OscillatorParams(m=1.0, omega=1.0, hbar=1.0)
        n = 10**6
        draws = sample_positions(unit, seed=424242, n=n)
        variance = position_variance(unit)
        se = variance * math.sqrt(2.0 / n)
        assert abs(draws.var() - variance) <= 5 * se


def test_criterion_5_lamb_shift():
    with _Stopwatch("criterion 5: hydrogen 2s shift band, 2p zero, n^-3 law", 1.0):
        jitter = welton_jitter(*default_cutoffs(GAUSSIAN), GAUSSIAN)
        shift_2s = hydrogen_s_shift(HydrogenState(n=2), jitter, GAUSSIAN)
        mhz = shift_to_frequency(shift_2s, GAUSSIAN).value / 1e6
        assert 350.0 <= mhz <= 3000.0, f"2s shift {mhz:.1f} MHz"

        shift_2p = hydrogen_s_shift(HydrogenState(n=2, ell=1), jitter, GAUSSIAN)
        assert shift_2p.value == 0.0

        ref = hydrogen_s_shift(HydrogenState(n=1), jitter, GAUSSIAN).value
        for n in range(2, 7):
            value = hydrogen_s_shift(HydrogenState(n=n), jitter, GAUSSIAN).value
            assert abs(value - ref / n**3) <= 1e-12 * abs(ref / n**3)


def test_criterion_6_coil_tap():
    with _Stopwatch("criterion 6: coil composition identity, ratio, scalings", 1.0):
        spec = CoilSpec(turns=12, area=4.0, resistance=0.25)
        scale = Quantity(0.5, LENGTH, "gaussian")
        tau = Quantity(2.0e-18, TIME, "gaussian")
        est = zpf_tap_estimate(spec, scale, tau, GAUSSIAN)
        recomputed = coil_current(predicted_rms(scale, GAUSSIAN), spec, tau)
        assert est.current_exact.value == recomputed.value  # exact composition

        expected_ratio = 1.0 / math.sqrt(GAUSSIAN.alpha)
        assert abs(expected_ratio - 11.706) <= 1e-3
        assert abs(est.ratio - expected_ratio) <= 1e-6 * expected_ratio

        rng = np.random.default_rng(66)
        base = est.current_exact.value
        for _ in range(40):
            k_int = int(rng.integers(1, 50))
            k = float(10 ** rng.uniform(-2, 2))
            checks = [
                (
                    zpf_tap_estimate(
                        CoilSpec(12 * k_int, 4.0, 0.25), scale, tau, GAUSSIAN
                    ).current_exact.value,
                    k_int * base,
                ),
                (
                    zpf_tap_estimate(
                        CoilSpec(12, 4.0 * k, 0.25), scale, tau, GAUSSIAN
                    ).current_exact.value,
                    k * base,
                ),
                (
                    zpf_tap_estimate(
                        CoilSpec(12, 4.0, 0.25 * k), scale, tau, GAUSSIAN
                    ).current_exact.value,
                    base / k,
                ),
                (
                    zpf_tap_estimate(spec, scale * k, tau, GAUSSIAN).current_exact.value,
                    base / k**2,
                ),
                (
                    zpf_tap_estimate(spec, scale, tau * k, GAUSSIAN).current_exact.value,
                    base / k,
                ),
            ]
            for got, want in checks:
                assert abs(got - want) <= 1e-12 * abs(want)


def test_criterion_7_determinism():
    # Each run is a fresh `python -m zpflab.cli` process under a different
    # OPENBLAS_NUM_THREADS, the thread setting `main` defaults before numpy
    # loads; its stdout must not change by a byte.
    with _Stopwatch("criterion 7: byte-identical reruns under thread variation", 60.0):
        stochastic_runs = [
            ["field", "scaling-run", "--grid", "32", "--box", "1", "--draws", "8",
             "--seed", "11", "--scales", "0.125,0.25,0.5"],
            ["oscillator", "--m", "1", "--omega", "1", "--units", "natural",
             "--samples", "20000", "--seed", "77"],
        ]
        src = str(Path(zpflab.__file__).parents[1])
        for argv in stochastic_runs:
            outputs = []
            for threads in ("1", "4", "2"):
                env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
                result = subprocess.run(
                    [sys.executable, "-m", "zpflab.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                assert result.returncode == 0, result.stderr
                outputs.append(result.stdout)
                manifest = json.loads(result.stderr.strip().splitlines()[-1])
                assert manifest["parameters"]["seed"] is not None
            assert outputs[0] == outputs[1] == outputs[2]
