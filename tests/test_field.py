"""Spectral synthesis, coarse-graining, and the scaling-exponent fit."""

import ast
import cmath
import functools
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import per_mode
from per_mode import (
    coarse_mean_squares, draw_modes, fold_aliases_by_class, mode_std, plans_for,
)
from zpflab import field
from zpflab.cli import dispatch
from zpflab.coil import predicted_rms
from zpflab.errors import ConfigurationError, DomainError
from zpflab.field import (
    WINDOWS,
    LatticeSpec,
    class_covariance,
    class_law,
    draw_mean_squares,
    fit_scaling,
    scale_plans,
    scaling_run,
    wavenumber_magnitudes,
)
from zpflab.units import LENGTH, MASS, Quantity, constants_for

SMALL = LatticeSpec(box_size=1.0, points_per_axis=8, k_max=math.pi * 8)
MEDIUM = LatticeSpec(box_size=1.0, points_per_axis=32, k_max=math.pi * 32)
N96 = LatticeSpec(box_size=1.0, points_per_axis=96)
STREAM_SPECS = [SMALL, MEDIUM, LatticeSpec(box_size=2.0, points_per_axis=32, k_max=math.pi * 6)]
STREAM_IDS = ["N8", "N32", "box2-kmax"]


def at_minus_k(plane):
    """conj(plane) at (-kx, -ky), by explicit index negation mod N."""
    neg = (-np.arange(plane.shape[0])) % plane.shape[0]
    return np.conj(plane[np.ix_(neg, neg)])


def edge_weights(spec):
    """Parseval weight per stored kz: 1 on the self-conjugate planes, 2 elsewhere."""
    w = np.full(spec.points_per_axis // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return w


def constant_grid(spec, c0):
    return np.full((spec.points_per_axis,) * 3, c0)


def cosine_draw(spec, axis_index, amplitude):
    """Hand-built draw exciting exactly the +-k0 pair along one axis."""
    n = spec.points_per_axis
    coeff = np.zeros((n, n, n // 2 + 1), dtype=complex)
    idx = [0, 0, 0]
    idx[0] = axis_index
    coeff[tuple(idx)] = amplitude
    idx[0] = (n - axis_index) % n
    coeff[tuple(idx)] = amplitude  # real pair: conjugate symmetric
    return coeff


def full_layout_draw(spec, seed):
    """The draw's stream as a whole one-sided half-layout array: the oracle for ``draw_modes``.

    Every live mode in one normal call, scattered in C order and scaled
    by sigma; then the self-conjugate planes, which store both members of
    each pair, by sqrt(1/2).
    """
    n = spec.points_per_axis
    sigma = mode_std(spec)
    live = sigma > 0
    parts = np.random.default_rng(seed).normal(
        scale=math.sqrt(0.5), size=(np.count_nonzero(live), 2)
    )
    coeff = np.zeros(sigma.shape, dtype=complex)
    coeff.real[live] = parts[:, 0]
    coeff.imag[live] = parts[:, 1]
    coeff *= sigma
    coeff[:, :, [0, n // 2]] *= math.sqrt(0.5)
    return coeff


def hermitian(one_sided):
    """The field's coefficients B(k) + conj B(-k) from one-sided amplitudes B on the half layout.

    Only the self-conjugate planes store both k and -k; elsewhere -k is
    not stored and the coefficient is B(k).
    """
    coeff = one_sided.copy()
    for z in (0, one_sided.shape[0] // 2):
        coeff[:, :, z] += at_minus_k(one_sided[:, :, z])
    return coeff


def coefficient_x_folds(coefficients, plans):
    """Each plan's x-fold of a whole coefficient array: the oracle for the streamed fold."""
    return [fold_aliases_by_class(coefficients, p.transform, p.blocks, 0) for p in plans]


def drawn_coefficients(spec, seed):
    """The run's draw, whole: at one cell per cube, W(k) = 1 and nb = N, so the x-fold is it."""
    plans = plans_for(spec, [spec.cell_size], "tophat")
    return hermitian(draw_modes(mode_std(spec), seed, plans)[0])


def use_draw_blocks(monkeypatch, slabs):
    """Make the per-mode draw run in blocks of ``slabs`` x-slabs; at least N slabs is one block."""
    monkeypatch.setattr(per_mode, "_BLOCK_SLABS", slabs)


def build_blocks(monkeypatch, n, plan):
    """The x-slab range of each block whose spectrum ``class_covariance`` computes, and its C.

    A stand-in spectrum of ones shows the block rule at any n, and where
    every slab lands, without the work of a real one.
    """
    blocks = []

    def ones(spec, lo, hi, ny=None):
        blocks.append((lo, hi, ny))
        return np.ones((hi - lo, ny or n, n // 2 + 1))

    monkeypatch.setattr(field, "_slab_std", ones)
    return blocks, class_covariance(LatticeSpec(box_size=1.0, points_per_axis=n), [plan])


def synthesize_field(coefficients):
    """Inverse real transform: the real N^3 grid B(x) = sum_k xi_k exp(i k.x)."""
    n = coefficients.shape[0]
    return np.fft.irfftn(coefficients, s=(n, n, n), axes=(0, 1, 2), norm="forward")


def synthesize_field_reference(coefficients):
    """Direct (non-FFT) evaluation of the same transform; oracle for N <= 8.

    Sums B(x) = sum_k w_kz Re(xi_k exp(i k.x)) over the half layout with
    explicit per-axis phase matrices, independent of the FFT code path;
    w_kz = 2 counts the unstored partner at -k, 1 on the two edge planes.
    """
    n = coefficients.shape[0]
    if n > 8:
        raise DomainError(f"direct transform oracle is restricted to N <= 8, got N = {n}")
    idx = np.arange(n)
    phase = np.exp(2j * math.pi * np.outer(idx, idx) / n)  # e^{i k_a x_j} per axis
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    out = np.tensordot(phase, coefficients * weight, axes=(1, 0))
    out = np.tensordot(phase, out, axes=(1, 1)).transpose(1, 0, 2)
    out = np.tensordot(out, phase[:, : n // 2 + 1], axes=(2, 1))
    return out.real


def cube_averages(values, spec, scale, window="tophat"):
    """Weighted average of the N^3 grid ``values`` over each cube of side ``scale``."""
    m = field._cells_for_scale(spec, scale)
    w = field._window_weights(m, window)
    nb = spec.points_per_axis // m
    blocks = values.reshape(nb, m, nb, m, nb, m)
    return np.einsum("aibjck,i,j,k->abc", blocks, w, w, w)


class TestLatticeSpec:
    def test_zero_kappa_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(box_size=1.0, points_per_axis=8, k_max=1.0, spectrum_normalization=0.0)

    def test_odd_or_small_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(box_size=1.0, points_per_axis=9, k_max=1.0)
        with pytest.raises(ConfigurationError):
            LatticeSpec(box_size=1.0, points_per_axis=6, k_max=1.0)

    def test_kmax_beyond_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(box_size=1.0, points_per_axis=8, k_max=1.01 * math.pi * 8)

    def test_nonpositive_box_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(box_size=0.0, points_per_axis=8, k_max=1.0)

    def test_kmax_below_fundamental_rejected(self):
        with pytest.raises(ConfigurationError, match="2\\*pi/L"):
            LatticeSpec(box_size=1.0, points_per_axis=8, k_max=5.0)

    def test_kmax_defaults_to_nyquist(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=8)
        assert spec.k_max == spec.nyquist
        assert spec == SMALL

    def test_grid_past_the_floats_rejected(self):
        # checked before pi * N, where an int past the floats cannot become a float
        with pytest.raises(DomainError, match="points_per_axis at 20+, outside the normal float"):
            LatticeSpec(box_size=1.0, points_per_axis=2 * 10**400)

    @pytest.mark.parametrize("box", [1e-320, math.inf])
    def test_box_whose_wavenumbers_leave_the_float_range_rejected(self, box):
        # 2 pi / L and pi N / L must be finite and non-zero, or the default
        # k_max could not be replayed from a manifest
        with pytest.raises(ConfigurationError, match="float range"):
            LatticeSpec(box_size=box, points_per_axis=16)

    def test_grid_is_not_bounded_by_its_spectrum(self, monkeypatch):
        # no run builds sigma, so a grid whose sigma alone exceeds memory is
        # not refused for it: the spec checks no memory
        def no_memory_check():
            raise AssertionError("the spec checked physical memory")

        monkeypatch.setattr(field, "physical_memory_bytes", no_memory_check)
        assert LatticeSpec(box_size=1.0, points_per_axis=2048).points_per_axis == 2048
        LatticeSpec(box_size=1.0, points_per_axis=100_000)

    def test_run_larger_than_physical_memory_rejected(self, monkeypatch):
        # the build's block alone is 24 * 8 * 100000 * 50001 bytes, about 0.96 TB:
        # the run is refused before any array exists
        def no_arrays(*args):
            raise AssertionError("built an array before checking the run's bytes")

        monkeypatch.setattr(field, "physical_memory_bytes", lambda: 8.42e9)
        monkeypatch.setattr(field, "scale_plans", no_arrays)
        spec = LatticeSpec(box_size=1.0, points_per_axis=100_000)
        with pytest.raises(DomainError, match="physical memory"):
            scaling_run(spec, None, draws=1, seed=0)

    def test_kmax_at_fundamental_keeps_the_fundamental_modes(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=8, k_max=2 * math.pi)
        assert np.count_nonzero(mode_std(spec)) == 5  # +-kx, +-ky and +kz in the half layout


class TestDrawModes:
    def test_half_layout_shape(self):
        n = SMALL.points_per_axis
        assert drawn_coefficients(SMALL, 0).shape == (n, n, n // 2 + 1)
        assert mode_std(SMALL).shape == (n, n, n // 2 + 1)

    def test_one_x_fold_per_plan(self):
        n = MEDIUM.points_per_axis
        plans = plans_for(MEDIUM, [1 / 16, 1 / 8, 1 / 4, 1 / 2], "hann")
        shapes = [f.shape for f in draw_modes(mode_std(MEDIUM), 0, plans)]
        assert shapes == [(nb, n, n // 2 + 1) for nb in (16, 8, 4, 2)]

    def test_wavenumbers_are_the_full_lattice_with_kz_at_most_nyquist(self):
        n = SMALL.points_per_axis
        k1 = 2 * math.pi * np.fft.fftfreq(n, d=SMALL.cell_size)
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        full = np.sqrt(kx**2 + ky**2 + kz**2)
        assert np.allclose(wavenumber_magnitudes(n), full[:, :, : n // 2 + 1], rtol=1e-14)

    def test_hermitian_symmetry_exact(self):
        # only the self-conjugate planes store both k and -k
        n = SMALL.points_per_axis
        for seed in range(5):
            coeff = drawn_coefficients(SMALL, seed)
            for z in (0, n // 2):
                assert np.array_equal(coeff[:, :, z], at_minus_k(coeff[:, :, z]))

    def test_dc_mode_zero(self):
        assert drawn_coefficients(SMALL, 3)[0, 0, 0] == 0

    def test_modes_beyond_cutoff_zero(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=8, k_max=0.5 * math.pi * 8)
        draw = drawn_coefficients(spec, 4)
        kmag = wavenumber_magnitudes(spec.points_per_axis)
        assert np.all(draw[kmag > spec.k_max] == 0)
        assert np.any(draw[(kmag > 0) & (kmag <= spec.k_max)] != 0)

    def test_determinism_and_seed_sensitivity(self):
        a = drawn_coefficients(SMALL, 11)
        b = drawn_coefficients(SMALL, 11)
        c = drawn_coefficients(SMALL, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mode_variance_against_spectrum(self):
        # pooled over 100 draws: Var(Re xi_k) = Var(Im xi_k) = sigma_k^2 / 2 for
        # paired modes; self-conjugate modes are real with Var(xi_k) = sigma_k^2
        spec = SMALL
        draws = 100
        stack = np.stack([drawn_coefficients(spec, s) for s in range(draws)])
        sigma = mode_std(spec)
        n = spec.points_per_axis
        half = [0, n // 2]
        rng = np.random.default_rng(0)
        checked = {"edge plane": 0, "interior": 0}
        while min(checked.values()) < 8:
            ijk = tuple(rng.integers(0, n, size=2)) + (rng.integers(0, n // 2 + 1),)
            if sigma[ijk] == 0 or all(v in half for v in ijk):
                continue  # skip dead and self-conjugate modes
            target = sigma[ijk] ** 2 / 2.0
            se = target * math.sqrt(2.0 / draws)
            for part in (stack[(slice(None),) + ijk].real, stack[(slice(None),) + ijk].imag):
                assert abs(part.var() - target) < 5 * se
            checked["edge plane" if ijk[2] in half else "interior"] += 1
        for ijk in ((n // 2, 0, 0), (0, n // 2, 0), (0, 0, n // 2)):  # real, full variance
            target = sigma[ijk] ** 2
            se = target * math.sqrt(2.0 / draws)
            assert abs(stack[(slice(None),) + ijk].real.var() - target) < 5 * se

    def test_pooled_variance_per_kind_of_mode(self):
        # each live mode's parts, standardized and pooled over 100 draws, are
        # chi-square(1) terms: their mean is 1 within 5 standard errors
        draws = 100
        stack = np.stack([drawn_coefficients(SMALL, s) for s in range(draws)])
        sigma = mode_std(SMALL)
        n = SMALL.points_per_axis
        live = sigma > 0
        edge = np.zeros(sigma.shape, dtype=bool)
        edge[:, :, [0, -1]] = True
        self_conjugate = np.zeros(sigma.shape, dtype=bool)
        self_conjugate[np.ix_([0, n // 2], [0, n // 2], [0, -1])] = True
        for name, mask, stored_per_pair in (
            ("interior", live & ~edge, 1),
            ("edge plane", live & edge & ~self_conjugate, 2),  # k and -k both stored
            ("self-conjugate", live & self_conjugate, 1),
        ):
            xi, var = stack[:, mask], sigma[mask] ** 2
            if name == "self-conjugate":
                chi2 = xi.real**2 / var
            else:
                chi2 = np.concatenate([xi.real**2, xi.imag**2]) / (var / 2)
            independent = chi2.size / stored_per_pair
            assert abs(chi2.mean() - 1.0) < 5 * math.sqrt(2.0 / independent), name

    def test_self_conjugate_modes_are_real(self):
        n = SMALL.points_per_axis
        self_conjugate = [
            (i, j, k) for i in (0, n // 2) for j in (0, n // 2) for k in (0, n // 2)
        ][1:]  # all but DC
        sigma = mode_std(SMALL)
        for seed in range(5):
            coeff = drawn_coefficients(SMALL, seed)
            for ijk in self_conjugate:
                assert coeff[ijk].imag == 0.0
                assert (coeff[ijk].real != 0.0) == (sigma[ijk] > 0)

    @pytest.mark.parametrize("slabs", [1, 3, 8, 10**9])
    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
    def test_stream_is_one_call_over_the_live_modes(self, spec, slabs, monkeypatch):
        # the x-slab blocks split one stream: any block size, from one slab
        # to the whole layout in one block, gives the numbers of a single call
        use_draw_blocks(monkeypatch, slabs)
        for seed in (5, np.random.SeedSequence(9).spawn(2)[1]):
            assert np.array_equal(
                drawn_coefficients(spec, seed), hermitian(full_layout_draw(spec, seed))
            )

    @pytest.mark.parametrize("n", [16, 64, 128, 130, 256])
    def test_every_block_is_block_slabs_but_a_shorter_last(self, n, monkeypatch):
        # one rule at every N: the covariance build computes the spectrum of
        # the slabs kx = 0..N/2 only, at ky = 0..N/2 only, at most
        # _BLOCK_SLABS slabs at a time, so its temporaries grow as N^2
        slabs, half = field._BLOCK_SLABS, n // 2 + 1
        plan = field.ScalePlan(blocks=2, transform=np.ones(n, dtype=complex))
        blocks, cov = build_blocks(monkeypatch, n, plan)
        assert blocks == [(lo, min(lo + slabs, half), half) for lo in range(0, half, slabs)]
        # every k of the whole lattice lands once in its class mod 2, slab
        # N - x as slab x and ky < 0 as -ky: s^2 = 1, so each class sums
        # (N/2)^3, halved on rz = 0 and 1, the one-sided grid's two planes
        assert cov.shape == (1, 2, 2, 2)
        assert np.array_equal(cov[0], np.full((2, 2, 2), n**3 / 16))

    @pytest.mark.parametrize("spec", STREAM_SPECS + [N96], ids=STREAM_IDS + ["N96"])
    def test_spectrum_built_in_place_is_the_out_of_place_one(self, spec):
        # at box 1 and kappa 1 sigma is sqrt(|k|), cut at k_max L in lattice units
        kmag = wavenumber_magnitudes(spec.points_per_axis)
        sigma = np.sqrt(kmag)
        sigma[kmag > spec.k_max * spec.box_size * field._K_MAX_SLACK] = 0.0
        assert np.array_equal(mode_std(spec), sigma)

    def test_spectrum_computed_once_per_run(self, monkeypatch):
        # each slab kx = 0..N/2 once, at ky = 0..N/2, a block at a time; slab
        # N - x has the s^2 of slab x and -ky that of ky, so the rest is never
        # computed
        calls = []
        real = field.wavenumber_magnitudes

        def counted(n, lo=0, hi=None, ny=None):
            calls.append((n, lo, hi, ny))
            return real(n, lo, hi, ny)

        monkeypatch.setattr(field, "wavenumber_magnitudes", counted)
        scaling_run(MEDIUM, None, draws=4, seed=1)
        n = MEDIUM.points_per_axis
        slabs, half = field._BLOCK_SLABS, n // 2 + 1
        assert calls == [(n, lo, min(lo + slabs, half), half) for lo in range(0, half, slabs)]

    @pytest.mark.parametrize("spec", STREAM_SPECS + [N96], ids=STREAM_IDS + ["N96"])
    def test_a_block_of_slabs_is_those_slabs_of_the_spectrum(self, spec):
        n = spec.points_per_axis
        sigma = mode_std(spec)
        for lo, hi in [(0, 1), (0, 3), (n // 2 - 2, n // 2 + 1), (n // 2, n)]:
            assert np.array_equal(field._slab_std(spec, lo, hi), sigma[lo:hi])
            half = n // 2 + 1  # ky = 0..N/2, the first N/2 + 1 in FFT order
            assert np.array_equal(field._slab_std(spec, lo, hi, half), sigma[lo:hi, :half])


class TestSynthesize:
    def test_single_pair_gives_pure_cosine(self):
        spec = SMALL
        grid = synthesize_field(cosine_draw(spec, axis_index=2, amplitude=0.5))
        n = spec.points_per_axis
        x = np.arange(n) * spec.cell_size
        expected = 2 * 0.5 * np.cos(2 * math.pi * 2 * x / spec.box_size)
        assert np.allclose(grid[:, 0, 0], expected, atol=1e-12)
        # constant along the other axes
        assert np.allclose(grid, grid[:, :1, :1], atol=1e-12)

    def test_parseval_identity(self):
        for seed in range(5):
            draw = drawn_coefficients(MEDIUM, seed)
            grid = synthesize_field(draw)
            lhs = float(np.sum(edge_weights(MEDIUM) * np.abs(draw) ** 2))
            rhs = float(np.sum(grid**2)) / MEDIUM.points_per_axis**3
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_matches_direct_transform_oracle(self):
        draw = drawn_coefficients(SMALL, 21)
        fast = synthesize_field(draw)
        direct = synthesize_field_reference(draw)
        assert np.allclose(fast, direct, rtol=1e-12, atol=1e-12 * np.abs(fast).max())

    def test_direct_oracle_restricted_to_small_grids(self):
        with pytest.raises(DomainError):
            synthesize_field_reference(drawn_coefficients(MEDIUM, 0))

    def test_spatial_mean_near_zero(self):
        grid = synthesize_field(drawn_coefficients(MEDIUM, 5))
        assert abs(float(grid.mean())) <= 1e-10 * math.sqrt(float(np.mean(grid**2)))

    def test_determinism_bit_identical(self):
        a = synthesize_field(drawn_coefficients(MEDIUM, 77))
        b = synthesize_field(drawn_coefficients(MEDIUM, 77))
        assert np.array_equal(a, b)


def cube_rms(grid, scale, window="tophat"):
    return math.sqrt(float(np.mean(cube_averages(grid, MEDIUM, scale, window) ** 2)))


class TestCoarseGrain:
    def test_constant_field_rms_at_every_scale(self):
        grid = constant_grid(MEDIUM, -2.5)
        for scale in (1 / 32, 1 / 8, 1 / 2):
            assert cube_rms(grid, scale) == pytest.approx(2.5, rel=1e-14)
        assert cube_rms(grid, 1 / 8, window="hann") == pytest.approx(2.5, rel=1e-14)

    def test_single_cell_scale_is_identity(self):
        grid = synthesize_field(drawn_coefficients(MEDIUM, 8))
        assert np.array_equal(cube_averages(grid, MEDIUM, MEDIUM.cell_size), grid)
        assert cube_rms(grid, MEDIUM.cell_size) == pytest.approx(
            math.sqrt(float(np.mean(grid**2))), rel=1e-14
        )

    def test_cosine_with_wavelength_equal_to_cube_averages_to_zero(self):
        spec = MEDIUM
        # wavelength = box/4 = 8 cells; average over cubes of the same size
        grid = synthesize_field(cosine_draw(spec, axis_index=4, amplitude=1.0))
        averages = cube_averages(grid, spec, spec.box_size / 4, window="tophat")
        amplitude = 2.0  # pair of unit coefficients
        assert np.max(np.abs(averages)) < 1e-8 * amplitude

    def test_non_dividing_scale_rejected(self):
        for scale in (0.3, 3 * MEDIUM.cell_size):  # 3 does not divide 32
            with pytest.raises(DomainError):
                cube_averages(constant_grid(MEDIUM, 1.0), MEDIUM, scale)
            with pytest.raises(DomainError):
                scaling_run(MEDIUM, [0.25, scale], draws=1, seed=0)


def grid_route_mean_squares(draw, spec, scales, window):
    """The real-space route: synthesize the N^3 grid, then average its cubes."""
    grid = synthesize_field(draw)
    return [float(np.mean(cube_averages(grid, spec, s, window) ** 2)) for s in scales]


def expected_mean_squares(spec, scales, window, sigma=None):
    """Exact ensemble mean square of the cube averages at each scale.

    The modes are independent with E|xi_k|^2 = sigma_k^2, so the cross terms
    of a squared cube average vanish in expectation and
    E[ms_m] = sum_half w_kz sigma_k^2 |W_m(kx)|^2 |W_m(ky)|^2 |W_m(kz)|^2,
    where W_m is the 1-D transform of the window.  No aliases are folded,
    so neither coarse-graining route enters.  ``sigma`` is ``mode_std(spec)``
    unless given.
    """
    n = spec.points_per_axis
    power = (mode_std(spec) if sigma is None else sigma) ** 2
    out = []
    for s in scales:
        m = round(s / spec.cell_size)
        cells = np.arange(m)
        w = np.ones(m) if window == "tophat" else np.sin(math.pi * (cells + 0.5) / m) ** 2
        w /= w.sum()
        a = np.abs(np.exp(2j * math.pi * np.outer(np.arange(n), cells) / n) @ w) ** 2
        out.append(float(a @ ((power @ (edge_weights(spec) * a[: n // 2 + 1])) @ a)))
    return out


def exact_exponent(spec, window):
    scales = [spec.box_size / d for d in (16, 8, 4, 2)]
    return fit_scaling(scales, np.sqrt(expected_mean_squares(spec, scales, window))).exponent


class TestCoarseMeanSquares:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize(
        "spec",
        [
            SMALL,  # m = 1, 2, 4
            LatticeSpec(box_size=1.0, points_per_axis=24),  # odd m = 3
            LatticeSpec(box_size=2.0, points_per_axis=16, k_max=math.pi * 4),  # below Nyquist
            MEDIUM,
        ],
        ids=["N8", "N24", "box2-kmax", "N32"],
    )
    def test_matches_the_grid_route(self, spec, window):
        n = spec.points_per_axis
        scales = [m * spec.cell_size for m in range(1, n // 2 + 1) if n % m == 0]
        plans = plans_for(spec, scales, window)
        assert coarse_mean_squares(draw_modes(mode_std(spec), 17, plans), plans) == pytest.approx(
            grid_route_mean_squares(drawn_coefficients(spec, 17), spec, scales, window), rel=1e-12
        )

    @pytest.mark.parametrize("window", WINDOWS)
    def test_window_transform_is_the_direct_sum(self, window):
        spec = LatticeSpec(box_size=1.0, points_per_axis=48)
        n = spec.points_per_axis
        cells = [m for m in range(1, n // 2 + 1) if n % m == 0]
        plans = scale_plans(n, cells, window)
        for m, plan in zip(cells, plans):
            assert plan.blocks == n // m
            if window == "tophat":
                w = [1.0 / m] * m
            else:
                raw = [math.sin(math.pi * (i + 0.5) / m) ** 2 for i in range(m)]
                w = [r / sum(raw) for r in raw]
            direct = [
                sum(w[i] * cmath.exp(2j * math.pi * (k * i % n) / n) for i in range(m))
                for k in range(n)
            ]
            np.testing.assert_allclose(plan.transform, direct, rtol=1e-14, atol=1e-14)

    def test_no_fft_or_blas_call_per_draw(self):
        # a BLAS or LAPACK call ties the digits to the library's kernels, and
        # a BLAS product wakes its worker threads; by Parseval the mean square
        # needs no transform back to real space.  The build, the factor and
        # the draw are all covered.
        functions = (
            field.class_law, class_covariance, field._factor_in_place, field._mode_columns,
            field._slab_std, field.wavenumber_magnitudes, draw_mean_squares, field._complete,
            field._fold, field._reflect,
        )
        banned = r"@|\bdot\b|vdot|inner|matmul|tensordot|einsum|linalg|fft"
        for fn in functions:
            assert not re.search(banned, inspect.getsource(fn)), fn

    def test_fold_calls_do_not_grow_with_the_aliases(self):
        # each numpy call holds the GIL for its set-up, so a Python loop over
        # the m aliases (m = 32 at box/2 of 64^3) serializes the draw workers
        tree = ast.parse(textwrap.dedent(inspect.getsource(field._fold)))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not [node for node in ast.walk(tree) if isinstance(node, loops)]

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 24, 32, 96])
    def test_fold_is_the_class_by_class_sum(self, n, axis, window):
        shape = [7, 12]
        shape.insert(axis, n)
        rng = np.random.default_rng(n + axis)

        def normals(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        line = [1, 1]  # the folded axis the only one longer than 1: at nb = 1
        line.insert(axis, n)  # one class, whose sum numpy's reduce would take pairwise
        inputs = {
            "C-ordered": normals(shape),
            "transposed": normals(shape[::-1]).T,
            "line": normals(line),
        }
        assert not inputs["transposed"].flags.c_contiguous
        cells = [m for m in range(1, n + 1) if n % m == 0]
        along = [1, 1]
        along.insert(axis, n)  # the transform broadcast along the folded axis
        for plan in scale_plans(n, cells, window):
            weights = plan.transform.reshape(along)
            for name, values in inputs.items():
                folded = field._fold(values * weights, plan.blocks, (axis,))
                assert np.array_equal(
                    folded, fold_aliases_by_class(values, plan.transform, plan.blocks, axis)
                ), (name, plan.blocks)
                # np.sum in coarse_mean_squares adds in memory order
                assert folded.flags.c_contiguous, (name, plan.blocks)

    @pytest.mark.parametrize(
        "shape",
        [(8, 8, 5), (16, 16, 9), (24, 24, 13), (12, 12, 12), (16, 16, 16)],
        ids=["N8-half", "N16-half", "N24-half", "L12", "L16"],
    )
    def test_fold_over_every_axis_is_the_class_by_class_sum(self, shape):
        # a draw's fold of its class sums down to nb: the N/2 + 1 stored kz
        # of a class grid of L = N are not whole nb-periods, an (L, L, L)
        # grid is; the zero slab makes classes whose every alias is -0
        rng = np.random.default_rng(shape[2])
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[0] = complex(-0.0, -0.0)
        for nb in [b for b in range(1, shape[0] + 1) if shape[0] % b == 0]:
            folded = np.zeros((nb, nb, nb), dtype=complex)
            for q in np.ndindex(folded.shape):  # the aliases in C order, from a zero sum
                total = np.complex128(0.0)
                for r in itertools.product(*(range(i, n, nb) for i, n in zip(q, shape))):
                    total = total + values[r]
                folded[q] = total
            assert np.array_equal(
                field._fold(values, nb, (0, 1, 2)).view(np.int64), folded.view(np.int64)
            ), nb

    def test_pooled_mean_square_matches_the_exact_ensemble(self):
        # 64^3, 50 draws seeded from seed 1 as scaling_run seeds them
        spec = LatticeSpec(box_size=1.0, points_per_axis=64)
        scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
        children = np.random.SeedSequence(1).spawn(50)
        for window in WINDOWS:
            plans = plans_for(spec, scales, window)
            law = class_law(spec, plans)
            per_draw = np.array([draw_mean_squares(law, c) for c in children])
            pooled = per_draw.mean(axis=0)
            se = per_draw.std(axis=0, ddof=1) / math.sqrt(len(children))
            z = (pooled - expected_mean_squares(spec, scales, window)) / se
            assert np.all(np.abs(z) < 4.0), (window, z)

    def test_exact_hann_exponent_is_minus_two(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=64)
        assert exact_exponent(spec, "hann") == pytest.approx(-2.0, abs=2e-3)

    def test_exact_tophat_exponent_leaks_ultraviolet_power(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=64)
        assert -1.86 <= exact_exponent(spec, "tophat") <= -1.82

    def test_scaling_run_never_builds_the_grid(self):
        # Everything the class law's build and two draws allocate, at their
        # peak, fits in less than one real N^3 grid, so no grid, and no whole
        # half-layout coefficient array (1.03 grids), can ever have existed.
        # The build's folds grow as N L^2, so at 64^3 they alone are most of
        # a grid; at 128^3 the whole peak is under a tenth of one.
        spec = LatticeSpec(box_size=1.0, points_per_axis=128)
        plans = plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], "hann")
        small = plans_for(SMALL, [1 / 4, 1 / 2], "hann")
        draw_mean_squares(class_law(SMALL, small), 0)  # one-time lazy imports
        tracemalloc.start()
        try:
            law = class_law(spec, plans)
            rows = [draw_mean_squares(law, s) for s in (3, 4)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(row) == 4 for row in rows)
        assert peak < spec.points_per_axis**3 * 8

    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 16])
    def test_reflection_is_the_conjugate_at_minus_q(self, nb):
        rng = np.random.default_rng(nb)
        folded = rng.normal(size=(nb, nb, nb)) + 1j * rng.normal(size=(nb, nb, nb))
        expected = np.empty_like(folded)
        for q in np.ndindex(folded.shape):
            expected[q] = np.conj(folded[tuple(-i % nb for i in q)])
        assert np.array_equal(field._reflect(folded).view(np.int64), expected.view(np.int64))


class TestStreamedFold:
    """The streamed route against the oracle route, which folds the full-layout draw."""

    def assert_routes_agree(self, spec, scales, seeds):
        for window in WINDOWS:
            plans = plans_for(spec, scales, window)
            for seed in seeds:
                streamed = draw_modes(mode_std(spec), seed, plans)
                oracle = coefficient_x_folds(full_layout_draw(spec, seed), plans)
                for plan, a, b in zip(plans, streamed, oracle):
                    assert np.array_equal(a, b), (window, plan.blocks)
                assert coarse_mean_squares(streamed, plans) == coarse_mean_squares(oracle, plans)

    @pytest.mark.parametrize("slabs", [1, 3, 8, 10**9])
    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
    def test_every_scale_bit_identical(self, spec, slabs, monkeypatch):
        use_draw_blocks(monkeypatch, slabs)
        n = spec.points_per_axis
        scales = [m * spec.cell_size for m in range(1, n // 2 + 1) if n % m == 0]
        self.assert_routes_agree(spec, scales, (5, np.random.SeedSequence(9).spawn(2)[1]))

    @pytest.mark.parametrize("slabs", [1, 3, 5, 8, 12, 10**9])
    def test_block_edges_off_the_alias_periods(self, slabs, monkeypatch):
        # 96 slabs against alias periods of 32, 16, 4 and 2 slabs: blocks of
        # 3, 5, 8 and 12 slabs end inside a 16- and a 32-slab period
        use_draw_blocks(monkeypatch, slabs)
        self.assert_routes_agree(N96, [1 / 32, 1 / 16, 1 / 4, 1 / 2], (11,))


def covariance_mode_by_mode(spec, plans):
    """C_r[a, b] summed one mode at a time: the oracle for ``class_covariance``.

    The per-mode draw's class sum H_a(r) = sum_{k = r} W_a(k) B(k) has
    independent terms, so its covariance adds v v^H, v = s_k (W_a(k))_a,
    for each mode k of the half layout in class k mod L.
    """
    n = spec.points_per_axis
    period = math.lcm(*(p.blocks for p in plans))
    s = mode_std(spec)
    s[:, :, [0, n // 2]] *= math.sqrt(0.5)
    cov = np.zeros((len(plans), len(plans), period, period, period), dtype=complex)
    for k in np.ndindex(s.shape):
        v = np.array([s[k] * p.transform[k[0]] * p.transform[k[1]] * p.transform[k[2]]
                      for p in plans])
        cov[(slice(None), slice(None)) + tuple(i % period for i in k)] += np.outer(v, v.conj())
    return cov


def lower_pairs(cov):
    """The entries (a, b), b <= a, of an (S, S, ...) array, packed as ``class_covariance`` does."""
    return np.stack([cov[a, b] for a in range(len(cov)) for b in range(a + 1)])


def one_sided(cov):
    """Cov K = C_r + conj C_-r from a whole class grid's (S, S, L, L, L) C, as the law keeps it.

    On the one-sided grid (L, L, L//2 + 1), halved on the self-conjugate
    planes rz = 0 and, for even L, L/2, and packed.
    """
    period = cov.shape[-1]
    minus = -np.arange(period) % period
    whole = cov + np.conj(cov[:, :, minus][:, :, :, minus][:, :, :, :, minus])
    kept = whole[..., : period // 2 + 1]
    kept[..., [0, period // 2] if period % 2 == 0 else [0]] *= 0.5
    return lower_pairs(kept)


def correlation_scale(packed):
    """sqrt(Cov_r[a, a] Cov_r[b, b]) for each packed entry (a, b): its class's correlation scale."""
    scales = math.isqrt(2 * len(packed))  # len is S(S + 1)/2
    diagonal = [packed[a * (a + 1) // 2 + a].real for a in range(scales)]
    return np.stack([np.sqrt(diagonal[a] * diagonal[b])
                     for a in range(scales) for b in range(a + 1)])


def hermitian_plans(plans):
    """``plans`` with W(-k) = conj W(k) bit for bit, real at k = 0 and N/2, as a real window's is.

    The build reads W(-k) as conj W(k) along y, and the per-mode oracles
    read W at N - k, which differs from it by W's own rounding: a class
    where the tophat's W_a is a rounding residue of 1e-17 has no
    correlation scale to compare the two with.  With these transforms the
    two sides differ by the order of their sums alone.
    """
    hermitian = []
    for plan in plans:
        w = plan.transform.copy()
        n = len(w)
        w[n // 2 + 1 :] = np.conj(w[1 : n // 2][::-1])
        w[[0, n // 2]] = w[[0, n // 2]].real
        hermitian.append(field.ScalePlan(blocks=plan.blocks, transform=w))
    return tuple(hermitian)


def rebuilt_from(rows):
    """F F^H, packed, from the packed rows of a lower factor: entry (a, b) sums j <= b."""
    return np.stack([sum(rows[a][j] * rows[b][j].conj() for j in range(b + 1))
                     for a in range(len(rows)) for b in range(a + 1)])


# Eight scales whose lcm L = 36 is below N = 72: at most S modes a class,
# but on the Cholesky route, as every layout of L < N is.
EIGHT_SCALES = (LatticeSpec(box_size=1.0, points_per_axis=72),
                [m / 72 for m in (2, 4, 6, 8, 12, 18, 24, 36)])


LAW_SPECS = {
    "N8": (SMALL, [1 / 4, 1 / 2]),  # L = 4
    "N16": (LatticeSpec(box_size=1.0, points_per_axis=16), [1 / 8, 1 / 4, 1 / 2]),  # L = 8
    # a cutoff far below Nyquist leaves whole classes with no live mode
    "box2-kmax": (LatticeSpec(box_size=2.0, points_per_axis=16, k_max=math.pi * 4),
                  [1 / 4, 1 / 2, 1.0]),
    # L = N: every class holds at most one mode
    "N16-one-cell": (LatticeSpec(box_size=1.0, points_per_axis=16), [1 / 16, 1 / 8, 1 / 2]),
}


ORACLE_SPECS = {
    "N8": (SMALL, [1 / 4, 1 / 2]),  # L = 4
    "N8-one-cell": (SMALL, [1 / 8, 1 / 4, 1 / 2]),  # L = N = 8, above the N/2 + 1 slabs folded
    "N16": (LatticeSpec(box_size=1.0, points_per_axis=16), [1 / 16, 1 / 8, 1 / 4, 1 / 2]),
    # a cutoff that keeps only the fundamental's modes
    "N32-kmax7": (LatticeSpec(box_size=1.0, points_per_axis=32, k_max=7.0),
                  [1 / 16, 1 / 8, 1 / 4, 1 / 2]),
    "N64-box2-kmax": (LatticeSpec(box_size=2.0, points_per_axis=64, k_max=6 * math.pi),
                      [1 / 8, 1 / 4, 1 / 2, 1.0]),
    "N96": (N96, [1 / 16, 1 / 8, 1 / 4, 1 / 2]),  # six aliases per class along x
    # N/2 odd, so slab N/2 is its own mirror and L = 10 does not divide N/2 + 1
    "N130": (LatticeSpec(box_size=1.0, points_per_axis=130), [0.1, 0.2, 0.5]),
    # odd L = 15: rz = 0 is the one self-conjugate plane of the one-sided grid
    "N30-odd-L": (LatticeSpec(box_size=1.0, points_per_axis=30), [1 / 15, 1 / 5, 1 / 3]),
    # eight scales of L = 36 < N: 8 modes a class, two aliases along each axis
    "N72-eight-scales": EIGHT_SCALES,
}


class TestClassLaw:
    """The run's draw, the alias-class sums from their joint law, against the per-mode route."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", list(LAW_SPECS))
    def test_covariance_is_the_per_mode_covariance(self, name, window):
        spec, scales = LAW_SPECS[name]
        plans = hermitian_plans(plans_for(spec, scales, window))
        built = class_covariance(spec, plans)
        oracle = one_sided(covariance_mode_by_mode(spec, plans))
        assert np.all(np.abs(built - oracle) <= 1e-13 * correlation_scale(oracle))
        if name == "box2-kmax":
            assert np.count_nonzero(correlation_scale(oracle) == 0) > 0

    @pytest.mark.parametrize("slabs", [1, 3, 8, 10**9])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_covariance_is_the_one_built_from_sigma(self, name, window, slabs, monkeypatch):
        # the spectrum of kx and ky = 0..N/2 only, from the wavenumbers a
        # block at a time, gives C_r + conj C_-r of the build from the whole
        # of sigma, to rounding: the sums are taken in another order
        spec, scales = ORACLE_SPECS[name]
        plans = hermitian_plans(plans_for(spec, scales, window))
        oracle = one_sided(per_mode.class_covariance(mode_std(spec), plans))
        monkeypatch.setattr(field, "_BLOCK_SLABS", slabs)
        built = class_covariance(spec, plans)
        assert built.shape == oracle.shape
        assert np.all(np.abs(built - oracle) <= 1e-13 * correlation_scale(oracle))

    @pytest.mark.parametrize("slabs", [1, 3, 10**9])
    def test_covariance_does_not_depend_on_the_slab_block(self, slabs, monkeypatch):
        # each slab is folded on its own and added into its class in the
        # order x, then N - x, so the block it is built in leaves every bit alone
        plans = plans_for(MEDIUM, [1 / 16, 1 / 8, 1 / 4, 1 / 2], "tophat")
        default = class_covariance(MEDIUM, plans)
        monkeypatch.setattr(field, "_BLOCK_SLABS", slabs)
        assert np.array_equal(class_covariance(MEDIUM, plans), default)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", list(LAW_SPECS))
    def test_twice_the_trace_is_the_exact_mean_square(self, name, window):
        spec, scales = LAW_SPECS[name]
        plans = plans_for(spec, scales, window)
        cov = class_covariance(spec, plans)
        trace = [2 * float(cov[a * (a + 1) // 2 + a].real.sum()) for a in range(len(plans))]
        exact = expected_mean_squares(spec, scales, window)
        assert trace == pytest.approx(exact, rel=1e-13)
        assert class_law(spec, plans).mean_squares == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n", [32, 64])
    def test_factor_rebuilds_the_covariance(self, n, window):
        spec = LatticeSpec(box_size=1.0, points_per_axis=n)
        plans = plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], window)
        cov = class_covariance(spec, plans)
        law = class_law(spec, plans)
        rebuilt = rebuilt_from(law.columns)
        assert np.all(np.abs(rebuilt - cov) <= 1e-12 * correlation_scale(cov))
        # the exact mean squares are the trace of Cov K, before any pivot is dropped
        trace = [2 * float(cov[a * (a + 1) // 2 + a].real.sum()) for a in range(4)]
        assert list(law.mean_squares) == trace

    @pytest.mark.parametrize("k", [-100, -20, 20, 100])
    @pytest.mark.parametrize(
        "spec, window, dead",
        [
            (MEDIUM, "tophat", 0),
            (LatticeSpec(box_size=1.0, points_per_axis=64), "hann", 0),
            (LatticeSpec(box_size=1.0, points_per_axis=32, k_max=12.6), "tophat", 9128),
        ],
        ids=["N32-tophat", "N64-hann", "N32-tophat-kmax"],
    )
    def test_the_pivot_floor_scales_with_the_class(self, spec, window, dead, k):
        # Cov K x 4^k has the factor 2^k F bit for bit: every product, quotient
        # and root of the factoring is exact in the power of two, and the floor,
        # relative to each class's diagonal entry, drops the same pivots at
        # every k, those of the zero diagonal entries (dead) among them
        cov = class_covariance(spec, plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], window))
        assert sum(int(np.sum(cov[a * (a + 1) // 2 + a] == 0)) for a in range(4)) == dead

        def factored(c):
            field._factor_in_place(tuple(c[a * (a + 1) // 2 : (a + 1) * (a + 2) // 2]
                                         for a in range(4)))
            return c

        expected = factored(cov.copy()) * 2.0**k
        assert np.array_equal(factored(cov * 4.0**k).view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_row_a_of_the_packed_factor_is_its_a_plus_one_columns(self, window):
        # L = 16 at any N: scale a's columns j <= a are one slice of the
        # packed (10, 16, 16, 9) factor, and its draw sums exactly those
        spec = LatticeSpec(box_size=1.0, points_per_axis=64)
        law = class_law(spec, plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], window))
        packed = law.columns[0].base
        assert packed.shape == (10, 16, 16, 9)
        for a, row in enumerate(law.columns):
            assert row.shape == (a + 1, 16, 16, 9)
            assert row.base is packed and row.flags.c_contiguous
            assert np.shares_memory(row, packed[a * (a + 1) // 2 : (a + 1) * (a + 2) // 2])
        for seed in (3, *np.random.SeedSequence(4).spawn(2)):
            normals = np.empty((4, 16, 16, 9), dtype=complex)
            np.random.default_rng(seed).standard_normal(out=normals.view(np.float64))
            normals.view(np.float64)[...] *= math.sqrt(0.5)
            expected = []
            for nb, row in zip(law.blocks, law.columns):
                sums = row[0] * normals[0]
                for j in range(1, len(row)):
                    sums = sums + row[j] * normals[j]
                g = field._complete(field._fold(sums, nb, (0, 1, 2)))
                expected.append(float(np.sum(g.real**2 + g.imag**2)))
            assert draw_mean_squares(law, seed) == expected

    @pytest.mark.parametrize("slabs", [1, 3, 8, 10**9])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize(
        "spec, cells",
        [
            (LatticeSpec(box_size=1.0, points_per_axis=16), [1, 2, 8]),  # L = N
            (LatticeSpec(box_size=1.0, points_per_axis=24), [3, 8]),  # L = N, no one-cell scale
        ],
        ids=["N16-one-cell", "N24-lcm-is-N"],
    )
    def test_mode_columns_are_the_ones_built_from_sigma(self, spec, cells, window, slabs,
                                                         monkeypatch):
        plans = scale_plans(spec.points_per_axis, cells, window)
        assert field.class_layout(spec.points_per_axis, [p.blocks for p in plans])[1]
        oracle = per_mode.mode_columns(mode_std(spec), plans)
        monkeypatch.setattr(field, "_BLOCK_SLABS", slabs)
        factor = np.stack(class_law(spec, plans).columns)
        assert np.array_equal(factor.view(np.int64), oracle.view(np.int64))

    @pytest.mark.parametrize(
        "spec, scales, modes",
        [
            (LatticeSpec(box_size=1.0, points_per_axis=16), None, True),
            (MEDIUM, [1 / 32, 1 / 8, 1 / 4, 1 / 2], True),
            (LatticeSpec(box_size=1.0, points_per_axis=24), [3 / 24, 8 / 24], True),
            EIGHT_SCALES + (False,),
        ],
        ids=["N16-default", "N32-one-cell", "N24-lcm-is-N", "N72-eight-scales"],
    )
    def test_the_modes_are_the_factor_exactly_where_l_is_n(self, spec, scales, modes):
        # at L = N each class is one mode and the factor is one column a
        # scale; below it a class sums at least 8 modes, and even where
        # that is at most S, as for eight scales of L = 36, the packed
        # Cholesky rows of a + 1 columns are smaller than the modes
        n = spec.points_per_axis
        blocks = run_blocks(spec, scales)
        period, on_modes = field.class_layout(n, blocks)
        assert on_modes == modes == (period == n)
        law = class_law(spec, plans_for(spec, scales or [1 / b for b in blocks], "hann"))
        widths = [1] * len(blocks) if modes else list(range(1, len(blocks) + 1))
        assert [len(columns) for columns in law.columns] == widths
        assert {c.shape[1:] for c in law.columns} == {(period, period, period // 2 + 1)}

    def test_eight_scales_below_l_is_n_peak_under_30_mb(self):
        # on the Cholesky route three draws trace about 20 MB; the 8 modes a
        # class of this L = 36 < N layout, taken as the factor, trace 57 MB
        spec, scales = EIGHT_SCALES
        scaling_run(spec, scales, draws=2, seed=0)  # one-time lazy imports
        tracemalloc.start()
        try:
            scaling_run(spec, scales, draws=3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    @pytest.mark.parametrize("window", WINDOWS)
    def test_one_mode_classes_take_their_modes_as_the_factor(self, window):
        spec, scales = LAW_SPECS["N16-one-cell"]
        plans = plans_for(spec, scales, window)
        factor = np.stack(class_law(spec, plans).columns)
        assert factor.shape == (3, 1, 16, 16, 9)  # the half layout itself, width 1
        oracle = lower_pairs(covariance_mode_by_mode(spec, plans)[:, :, :, :, :9])
        rebuilt = lower_pairs(factor[:, None, 0] * factor[None, :, 0].conj())
        assert np.all(np.abs(rebuilt - oracle) <= 1e-13 * correlation_scale(oracle))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_routes_agree_in_distribution(self, window):
        # 600 draws per route at 32^3: each scale's mean and SD of the mean
        # square and the correlations between scales, the law of the exponent
        spec, draws = MEDIUM, 600
        plans = plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], window)
        sigma = mode_std(spec)
        law = class_law(spec, plans)
        per_mode_ms = np.array([
            coarse_mean_squares(draw_modes(sigma, c, plans), plans)
            for c in np.random.SeedSequence(1).spawn(draws)
        ])
        class_ms = np.array([
            draw_mean_squares(law, c) for c in np.random.SeedSequence(2).spawn(draws)
        ])
        means = [ms.mean(axis=0) for ms in (per_mode_ms, class_ms)]
        sds = [ms.std(axis=0, ddof=1) for ms in (per_mode_ms, class_ms)]
        se = np.hypot(*sds) / math.sqrt(draws)
        assert np.all(np.abs(means[0] - means[1]) < 4 * se)
        for mean, sd in zip(means, sds):
            assert np.all(np.abs(mean - law.mean_squares) < 4 * sd / math.sqrt(draws))
        assert np.all(np.abs(sds[0] / sds[1] - 1) < 0.2)
        correlations = [np.corrcoef(ms.T) for ms in (per_mode_ms, class_ms)]
        assert np.all(np.abs(correlations[0] - correlations[1]) < 0.15)
        if window == "tophat":  # its neighbouring scales correlate at about 0.25, so
            for c in correlations:  # drawing each scale from its own law would not do
                assert np.all(np.diag(c, 1)[:2] > 0.15)

    def test_draws_are_deterministic_in_the_seed(self):
        plans = plans_for(MEDIUM, [1 / 8, 1 / 4, 1 / 2], "hann")
        law = class_law(MEDIUM, plans)
        child = np.random.SeedSequence(5).spawn(3)[2]
        assert draw_mean_squares(law, child) == draw_mean_squares(law, child)
        assert draw_mean_squares(law, 5) != draw_mean_squares(law, 6)

    @pytest.mark.parametrize("window, exponent", [("hann", -2.00151), ("tophat", -1.85654)])
    def test_exact_exponent_at_64_cubed(self, window, exponent):
        spec = LatticeSpec(box_size=1.0, points_per_axis=64)
        report, _ = scaling_run(spec, None, draws=2, seed=0, window=window)
        assert report.exact_exponent == pytest.approx(exponent, abs=5e-6)
        assert report.exact_exponent == pytest.approx(exact_exponent(spec, window), rel=1e-12)

    @pytest.mark.parametrize(
        "grid, draws, scales",
        [(64, 50, [0.0625, 0.125, 0.25, 0.5]), (128, 20, None)],
        ids=["field_accept", "field_scale"],
    )
    def test_benchmark_field_checks_hold_for_seeds_one_to_eight(self, grid, draws, scales):
        # the benchmark's field workloads, checked as it checks them
        spec = LatticeSpec(box_size=1.0, points_per_axis=grid)
        for seed in range(1, 9):
            _, fit = scaling_run(spec, scales, draws=draws, seed=seed)
            assert abs(fit.exponent + 2.0) <= 0.1, seed
            assert fit.r_squared >= 0.99, seed


class TestFitScaling:
    def test_exact_inverse_square_power_law(self):
        scales = [0.125, 0.25, 0.5, 1.0]
        rms = [3.0 * s**-2 for s in scales]
        fit = fit_scaling(scales, rms)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr_exponent == pytest.approx(0.0, abs=1e-10)

    def test_flat_law(self):
        scales = [0.125, 0.25, 0.5]
        fit = fit_scaling(scales, [4.0, 4.0, 4.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)

    def test_too_few_scales_rejected(self):
        with pytest.raises(DomainError):
            fit_scaling([0.25, 0.5], [2.0, 1.0])

    def test_amplitude_in_a_box_of_side_l(self):
        # the lattice law 3 s^p, at kappa and box L, is sqrt(kappa) / L^2 * 3 (l / L)^p
        scales = [0.125, 0.25, 0.5]
        lattice = fit_scaling(scales, [3.0 * s**-1.5 for s in scales])
        fit = fit_scaling(scales, [3.0 * s**-1.5 for s in scales], kappa=4.0, box=10.0)
        assert fit.amplitude == pytest.approx(2.0 * 3.0 * 10.0 ** (-2 + 1.5), rel=1e-12)
        assert (fit.exponent, fit.r_squared, fit.stderr_exponent) == (
            lattice.exponent, lattice.r_squared, lattice.stderr_exponent
        )
        # exp(2 ln 1e200) is past the largest float: taken as inf and refused,
        # as every reported value outside the normal floats is
        with pytest.raises(DomainError, match="at inf, outside the normal float range"):
            fit_scaling(scales, [s**-4 for s in scales], box=1e200)


# Runs on either route of the class law: the mode-column route where L = N,
# at 16^3 and wherever a scale is one cell, and the Cholesky route elsewhere.
RUN_CASES = {
    "N16": (LatticeSpec(box_size=1.0, points_per_axis=16), None, "hann"),
    "N64": (LatticeSpec(box_size=1.0, points_per_axis=64), None, "hann"),
    "N128": (LatticeSpec(box_size=1.0, points_per_axis=128), None, "hann"),
    "N32-one-cell": (MEDIUM, [1 / 32, 1 / 8, 1 / 4, 1 / 2], "hann"),
    "N128-one-cell": (LatticeSpec(box_size=1.0, points_per_axis=128),
                      [1 / 128, 1 / 16, 1 / 4, 1 / 2], "hann"),
    "N64-box2-tophat": (LatticeSpec(box_size=2.0, points_per_axis=64), None, "tophat"),
    # the Cholesky route with a draw's (36, 36, 36) folds as large as its factor
    "N72-wide-fold": (LatticeSpec(box_size=1.0, points_per_axis=72),
                      [2 / 72, 4 / 72, 6 / 72, 24 / 72], "hann"),
    "N72-eight-scales": EIGHT_SCALES + ("hann",),
}


def run_blocks(spec, scales):
    """The cubes per axis of each scale a run of ``scales`` (None: box/16..box/2) averages over."""
    if scales is None:
        return [16, 8, 4, 2]
    return [round(spec.box_size / s) for s in scales]


class TestScalingPipeline:
    def test_exponent_near_minus_two_quick(self):
        spec = LatticeSpec(
            box_size=1.0, points_per_axis=32, k_max=math.pi * 32, spectrum_normalization=1.0
        )
        report, fit = scaling_run(spec, [1 / 8, 1 / 4, 1 / 2], draws=20, seed=314, window="hann")
        assert fit is not None
        assert fit.exponent == pytest.approx(-2.0, abs=0.15)
        assert fit.r_squared > 0.99

    def test_rms_non_increasing_in_scale(self):
        spec = LatticeSpec(box_size=1.0, points_per_axis=16, k_max=math.pi * 16)
        report, _ = scaling_run(
            spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], draws=50, seed=2718, window="tophat"
        )
        for i in range(len(report.scales) - 1):
            slack = 5.0 * (report.stderr[i] + report.stderr[i + 1])
            assert report.rms[i] + slack >= report.rms[i + 1]

    @pytest.mark.parametrize("seed", [0, 1, 20260809, 2**40 + 5])
    def test_derived_seeds_are_the_spawned_ones(self, seed):
        # scaling_run derives draw i's seed from i alone, and gets the child
        # that spawning every draw's seed up front would give
        spawned = np.random.SeedSequence(seed).spawn(1000)
        for i, child in enumerate(spawned):
            derived = np.random.SeedSequence(seed, spawn_key=(i,))
            assert np.array_equal(derived.generate_state(8), child.generate_state(8)), i

    def test_numpy_random_loads_with_the_module(self):
        # the draws' generator is imported with the module, not lazily on the
        # first draw, where numpy would otherwise load numpy.random
        probe = "import sys, zpflab.field; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(field.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "True\n"

    def test_thread_count_invariance(self):
        # the module keeps no state between runs: four runs in concurrent
        # threads give the bits of one run alone
        spec = LatticeSpec(box_size=1.0, points_per_axis=16, k_max=math.pi * 16)
        r1, f1 = scaling_run(spec, [1 / 4, 1 / 2], draws=6, seed=99)
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(scaling_run, spec, [1 / 4, 1 / 2], 6, 99) for _ in range(4)]
            results = [run.result(timeout=60) for run in runs]
        for r4, _ in results:
            assert r1.rms == r4.rms
            assert r1.stderr == r4.stderr

    @pytest.mark.parametrize("box", [1, 2])
    def test_streamed_report_equals_pooling_the_grids(self, box):
        # With a one-cell scale L = N, so the factor's columns are the modes'
        # s_k W(k) and a draw's normals are one per mode of the half layout.
        # B(k) = s_k z_k from those normals is the draw's field: its grid's
        # cube averages are each draw's mean squares, and pooled over the
        # draws they are the report.  Box 2 cuts the spectrum at k_max = 6 pi,
        # far below Nyquist, so most of the factor's columns are zero.  The
        # oracle's sigma is the lattice one, so the report's RMS values are
        # its own over L^2, exactly at box 2.
        spec = MEDIUM if box == 1 else STREAM_SPECS[2]
        n, draws, seed = spec.points_per_axis, 6, 4242
        scales = [box * cells / n for cells in (1, 4, 8, 16)]
        plans = plans_for(spec, scales, "hann")
        law = class_law(spec, plans)
        assert all(len(columns) == 1 for columns in law.columns)
        amplitude = mode_std(spec)
        amplitude[:, :, [0, n // 2]] *= math.sqrt(0.5)
        grid_ms = []
        for i in range(draws):
            child = np.random.SeedSequence(seed, spawn_key=(i,))
            normals = np.empty(amplitude.shape, dtype=complex)
            np.random.default_rng(child).standard_normal(out=normals.view(np.float64))
            normals.view(np.float64)[...] *= math.sqrt(0.5)
            grid_ms.append(
                grid_route_mean_squares(hermitian(amplitude * normals), spec, scales, "hann")
            )
            assert draw_mean_squares(law, child) == pytest.approx(grid_ms[-1], rel=1e-12)
        per_scale_ms = np.array(grid_ms).T
        report, _ = scaling_run(spec, scales, draws=draws, seed=seed)
        assert report.scales == tuple(scales)
        to_box = 1.0 / box**2
        assert report.rms == pytest.approx(np.sqrt(per_scale_ms.mean(axis=1)) * to_box, rel=1e-12)
        assert report.stderr == pytest.approx(
            np.sqrt(np.var(np.sqrt(per_scale_ms), axis=1, ddof=1) / draws) * to_box, rel=1e-9
        )
        exact = expected_mean_squares(spec, scales, "hann")
        assert report.exact_rms == pytest.approx(np.sqrt(exact) * to_box, rel=1e-12)
        se = np.std(per_scale_ms, axis=1, ddof=1) / math.sqrt(draws)
        z = (per_scale_ms.mean(axis=1) - exact) / se
        assert report.z_scores == pytest.approx(z, rel=1e-9, abs=1e-9)

    def test_printed_values_are_those_of_the_dimensioned_spectrum(self):
        # An oracle for the units that uses none of the module's spectrum:
        # sigma_k^2 = kappa |k| / L^3 with k = 2 pi n / L from numpy's FFT
        # frequencies, each draw's grid built from it with the run's normals
        # (one per mode at a one-cell scale, as above), and the printed rms,
        # stderr and fitted amplitude and the recorded exact RMS compared
        # with its own.
        box, kappa, n, draws, seed = 3.0, 7.0, 16, 5, 99
        k_max = 2 * math.pi * 5.3 / box  # between shells, so no rounding decides one
        spec = LatticeSpec(box_size=box, points_per_axis=n, k_max=k_max,
                           spectrum_normalization=kappa)
        scales = [box * cells / n for cells in (1, 2, 4, 8)]
        k1 = 2 * math.pi * np.fft.fftfreq(n, d=box / n)
        kx, ky, kz = np.meshgrid(k1, k1, np.abs(k1[: n // 2 + 1]), indexing="ij")
        kmag = np.sqrt(kx**2 + ky**2 + kz**2)
        sigma = np.sqrt(kappa * kmag / box**3)
        sigma[kmag > k_max] = 0.0
        amplitude = sigma.copy()
        amplitude[:, :, [0, n // 2]] *= math.sqrt(0.5)
        grid_ms = []
        for i in range(draws):
            normals = np.empty(amplitude.shape, dtype=complex)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            rng.standard_normal(out=normals.view(np.float64))
            normals.view(np.float64)[...] *= math.sqrt(0.5)
            grid_ms.append(
                grid_route_mean_squares(hermitian(amplitude * normals), spec, scales, "hann")
            )
        per_scale_ms = np.array(grid_ms).T
        argv = ["field", "scaling-run", "--grid", str(n), "--box", repr(box), "--kappa",
                repr(kappa), "--k-max", repr(k_max), "--draws", str(draws), "--seed", str(seed),
                "--scales", ",".join(map(repr, scales))]
        out, err = io.StringIO(), io.StringIO()
        assert dispatch(argv, out, err) == 0
        *table, summary = out.getvalue().splitlines()[1:]
        printed = np.array([line.split(",") for line in table], float)
        recorded = json.loads(err.getvalue())["convergence"]["field"]["scales"]
        rms = np.sqrt(per_scale_ms.mean(axis=1))
        assert printed[:, 0].tolist() == scales
        assert printed[:, 1] == pytest.approx(rms, rel=1e-12)
        assert printed[:, 2] == pytest.approx(
            np.sqrt(np.var(np.sqrt(per_scale_ms), axis=1, ddof=1) / draws), rel=1e-12
        )
        _, intercept = np.polyfit(np.log(scales), np.log(rms), 1)
        assert json.loads(summary)["amplitude"] == pytest.approx(math.exp(intercept), rel=1e-10)
        exact = expected_mean_squares(spec, scales, "hann", sigma)
        assert [r["exact_rms"] for r in recorded] == pytest.approx(np.sqrt(exact), rel=1e-12)

    def test_one_draw_has_no_z_score(self):
        report, _ = scaling_run(SMALL, [1 / 4, 1 / 2], draws=1, seed=3)
        assert report.z_scores == (None, None)
        assert all(r > 0 for r in report.exact_rms)

    def test_scale_beyond_half_the_box_rejected(self):
        with pytest.raises(DomainError, match="half the box"):
            scaling_run(MEDIUM, [1 / 8, 1 / 4, 1 / 2, 1.0], draws=1, seed=0)

    def test_scales_checked_before_any_draw(self, monkeypatch):
        def no_draws(spec, plans):
            raise AssertionError("built the class law before checking the scales")

        monkeypatch.setattr(field, "class_law", no_draws)
        for scales in ([0.3], [1.0], [], [0.25, 0.25]):
            with pytest.raises(DomainError):
                scaling_run(MEDIUM, scales, draws=4, seed=0)

    @pytest.mark.parametrize("name", list(RUN_CASES))
    def test_run_bytes_bound_the_traced_peak(self, name):
        # _run_bytes adds terms that no phase holds at once, so it is above
        # the peak, but by less than the peak itself
        spec, scales, window = RUN_CASES[name]
        scaling_run(spec, scales, draws=2, seed=0, window=window)  # one-time lazy imports
        tracemalloc.start()
        try:
            scaling_run(spec, scales, draws=3, seed=1, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = field._run_bytes(spec.points_per_axis, run_blocks(spec, scales), 3)
        assert peak <= bound <= 2 * peak

    @pytest.mark.parametrize("name", list(RUN_CASES))
    def test_memory_bound_is_the_bytes_the_run_holds(self, name, monkeypatch):
        spec, scales, window = RUN_CASES[name]
        bound = field._run_bytes(spec.points_per_axis, run_blocks(spec, scales), 2)

        def no_arrays(*args):
            raise AssertionError("built an array before checking the run's bytes")

        monkeypatch.setattr(field, "physical_memory_bytes", lambda: bound - 1)
        with monkeypatch.context() as stubbed:
            stubbed.setattr(field, "scale_plans", no_arrays)
            stubbed.setattr(field, "class_law", no_arrays)
            with pytest.raises(DomainError, match="physical memory"):
                scaling_run(spec, scales, draws=2, seed=0, window=window)
        monkeypatch.setattr(field, "physical_memory_bytes", lambda: bound)
        report, _ = scaling_run(spec, scales, draws=2, seed=0, window=window)
        assert len(report.rms) == len(run_blocks(spec, scales))

    def test_the_table_costs_16_bytes_a_draw(self, monkeypatch):
        # Draws stubbed to their result, so only the (draws, 2) table of mean
        # squares grows with the draws: 16 bytes a draw, beside at most two
        # columns of 8 bytes a draw that its statistics take, and a constant.
        monkeypatch.setattr(field, "draw_mean_squares", lambda law, seed: [1.0, 1.0])
        draws = 4000
        scaling_run(SMALL, [1 / 4, 1 / 2], draws=2, seed=0)
        tracemalloc.start()
        try:
            scaling_run(SMALL, [1 / 4, 1 / 2], draws=draws, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 170 * draws

    def test_memory_does_not_grow_with_draws(self):
        # One-time costs (lazy imports) are paid first; what the run allocates
        # after that, its spectrum included, must not scale with draws.
        scaling_run(MEDIUM, [1 / 2], draws=1, seed=0)
        tracemalloc.start()
        try:
            scaling_run(MEDIUM, [1 / 8, 1 / 4, 1 / 2], draws=40, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = MEDIUM.points_per_axis**3 * 8
        assert peak < 3 * grid_bytes

    def test_draw_buffer_is_a_fraction_of_the_array(self):
        # A draw holds its normals, (S, L, L, L/2 + 1) complex, 0.15 MB for
        # box/16..box/2 at any N, one scale's class sums and one product
        # term: 0.023 grids by tracemalloc at 128^3 beside the factor.  The
        # whole coefficient array is 1.02 grids on its own.
        spec = LatticeSpec(box_size=1.0, points_per_axis=128)
        plans = plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], "hann")
        law = class_law(spec, plans)
        draw_mean_squares(law, 0)  # the first draw's lazy imports are a one-time cost
        tracemalloc.start()
        try:
            for seed in (5, 6, 7):
                draw_mean_squares(law, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = spec.points_per_axis**3 * 8
        assert peak < 0.03 * grid_bytes

    @pytest.mark.parametrize("n", [16, 64], ids=["mode-columns", "cholesky"])
    def test_the_run_never_builds_sigma(self, n, monkeypatch):
        # on the default scales either route of the class law computes the
        # spectrum a block of x-slabs at a time, and the module has no
        # function that builds it whole
        assert not hasattr(field, "mode_std")
        slabs = []
        real = field._slab_std

        def counted(spec, lo, hi, ny=None):
            slabs.append(hi - lo)
            return real(spec, lo, hi, ny)

        monkeypatch.setattr(field, "_slab_std", counted)
        report, _ = scaling_run(LatticeSpec(box_size=1.0, points_per_axis=n), None, draws=2, seed=0)
        assert len(report.rms) == 4
        assert slabs and max(slabs) <= field._BLOCK_SLABS < n

    def test_class_law_peak_is_a_fraction_of_sigma(self):
        # At 128^3 the build holds the packed Cov K (0.37 MB), one block's
        # spectrum at ky = 0..N/2 (0.27 MB) and two (block, L, N/2 + 1)
        # buffers (0.27 MB), beside numpy's iterator buffers: 1.15 MB, under
        # a seventh of the 8.5 MB that sigma alone would take.  The whole
        # (S, S, L, L, L) C, the spectrum at every ky and a cast buffer in
        # the y-fold took 2.1 MB.
        spec = LatticeSpec(box_size=1.0, points_per_axis=128)
        plans = plans_for(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], "hann")
        class_law(MEDIUM, plans_for(MEDIUM, [1 / 16, 1 / 2], "hann"))  # one-time lazy imports
        tracemalloc.start()
        try:
            class_law(spec, plans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * 8 * 128 * 128 * 65

    def test_a_blocks_spectrum_peak_is_about_one_block(self):
        # a block's sigma is built in the array of |k|, beside a boolean cutoff
        # mask of 1/8 its size, as _run_bytes counts it; an out-of-place build
        # holds |k| and sigma at once, 2x.
        spec = LatticeSpec(box_size=1.0, points_per_axis=128)
        tracemalloc.start()
        try:
            sigma = field._slab_std(spec, 0, field._BLOCK_SLABS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sigma.nbytes


def lattice_statistics(report, fit):
    """What a run computes at box 1 and kappa 1 whatever its box and kappa."""
    return (fit.exponent, fit.r_squared, fit.stderr_exponent, report.z_scores,
            report.exact_exponent)


@functools.cache
def unit_box_statistics(n):
    spec = LatticeSpec(box_size=1.0, points_per_axis=n)
    return lattice_statistics(*scaling_run(spec, [1 / 16, 1 / 8, 1 / 4, 1 / 2], draws=2, seed=5))


@pytest.mark.parametrize("kappa", [1e-310, 1e-300, 1e-100, 1.0, 3.0, 1e100, 1e290, 1e300])
@pytest.mark.parametrize("box", [1e-80, 1e-70, 1e-3, 0.7, 1.0, 2.0, 3.0, 1e70, 1e80])
def test_kappa_and_box_are_rejected_or_leave_the_exponent(kappa, box):
    # every mean square is kappa / L^4 times its lattice value, and the run
    # computes the lattice one, so the exponent and the statistics fitted or
    # scored with it are the unit box's floats; the Nyquist shell is kept at
    # every box.  A run is refused only for an RMS past the normal floats.
    for n in (16, 32, 64):
        spec = LatticeSpec(box_size=box, points_per_axis=n, spectrum_normalization=kappa)
        try:
            report, fit = scaling_run(spec, None, draws=2, seed=5)
        except DomainError:  # a result past the normal floats
            assert abs(math.log10(kappa) / 2 - 2 * math.log10(box)) > 300
            continue
        assert report.scales == (box / 16, box / 8, box / 4, box / 2)
        assert lattice_statistics(report, fit) == unit_box_statistics(n)



@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("kappa", [1e-290, 1e-250, 1e-200])
@pytest.mark.parametrize("n", [32, 64])
def test_tiny_kappa_leaves_the_exponent_on_the_cholesky_route(n, kappa, window):
    # At 32^3 and up the default scales take the Cholesky route.  The law is
    # built at kappa 1, so a tiny kappa never puts a class's covariance in
    # the subnormal range, and the run stays in the float range under the
    # raising error state the CLI runs in.
    spec = LatticeSpec(box_size=1.0, points_per_axis=n, spectrum_normalization=kappa)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report, fit = scaling_run(spec, None, draws=2, seed=5, window=window)
    unit = LatticeSpec(box_size=1.0, points_per_axis=n)
    unit_report, unit_fit = scaling_run(unit, None, draws=2, seed=5, window=window)
    assert fit.exponent == unit_fit.exponent
    assert report.exact_exponent == unit_report.exact_exponent


class TestPredictedRms:
    def test_natural_units(self):
        nat = constants_for("natural")
        one = predicted_rms(Quantity(1.0, LENGTH, "natural"), nat)
        assert one.value == pytest.approx(1.0, rel=1e-14)
        two = predicted_rms(Quantity(2.0, LENGTH, "natural"), nat)
        assert two.value == pytest.approx(0.25, rel=1e-14)

    def test_gaussian_compton_scale(self):
        # oracle arithmetic: sqrt(hbar c) / lambda_C^2 with CODATA inputs
        hbar, c = 1.0545718176461565e-27, 2.99792458e10
        lam = hbar / (9.1093837015e-28 * c)
        oracle = math.sqrt(hbar * c) / lam**2
        assert oracle == pytest.approx(3.770643790857828e12, rel=1e-12)
        gau = constants_for("gaussian")
        value = predicted_rms(gau.lambda_C, gau)
        assert value.value == pytest.approx(oracle, rel=1e-10)

    def test_nonpositive_or_wrong_dimension_rejected(self):
        nat = constants_for("natural")
        with pytest.raises(DomainError):
            predicted_rms(Quantity(-1.0, LENGTH, "natural"), nat)
        with pytest.raises(DomainError):
            predicted_rms(Quantity(1.0, MASS, "natural"), nat)

    def test_scale_from_another_system_rejected(self):
        # the quotient sqrt(hbar c) / l^2 refuses it, as any Quantity product or quotient does
        with pytest.raises(DomainError, match="mixed unit systems"):
            predicted_rms(Quantity(1.0, LENGTH, "gaussian"), constants_for("natural"))
