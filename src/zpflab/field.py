"""Spectral synthesis of the fluctuating scalar field proxy B(x, y, z).

A finite periodic lattice stands in for the infinite oscillator
collection: independent complex Gaussian Fourier coefficients, one per
Hermitian mode pair {k, -k}, carry the half-quantum spectrum
sigma_k^2 = kappa * |k| / L^3 (natural units, hbar = c = 1; kappa absorbs
the overall normalization).  They are stored one-sidedly in the real-FFT
half layout (N, N, N/2 + 1): the coefficient at k is B(k) + conj B(-k),
with B zero for kz < 0, so Hermitian symmetry holds by construction.
The self-conjugate planes kz = 0 and kz = N/2 store both members of a
pair, so their B are scaled by sqrt(1/2).  sigma_k = 0 at DC
(|k| = 0) and beyond k_max, so only the live modes, 0 < |k| <= k_max
(about 52 % of the half layout at k_max = Nyquist), get Gaussians; the
rest stay zero.  A draw is valid by construction and is never
re-checked; the two things the inputs can break, the spectrum's float
range and the memory that sigma needs, are checked once in
``LatticeSpec``.  The coefficients describe a real field, their inverse
real transform, whose cube-averaged RMS falls as l^-2 with the averaging
scale l, which is the scaling this module exists to measure.
The dimensioned form of that law, sqrt(hbar c) / l^2, is
``coil.predicted_rms``: the coil estimate needs it and no arrays, so it
lives there and only ``field scaling-run`` imports this module.

A cube average is a linear functional of the coefficients, so a scaling
run never builds the real N^3 grid, nor even the whole half layout of
coefficients: ``draw_modes`` folds each block of 8 x-slabs, as it is drawn,
into the aliases that a block grid cannot tell apart along x, weighted by
the window's transform; ``coarse_mean_squares`` folds y and z, and by
Parseval the mean square of the cube averages is the energy of that
folded spectrum.  The window transforms are computed once per run, and
every contraction in a draw is a fixed-order sum: no FFT or BLAS call
runs per draw, so the digits do not depend on either library's build.
No BLAS worker thread competes with the draw workers, from process start
on: the ``zpflab`` command caps OpenBLAS at one thread before numpy
loads, so OpenBLAS starts no idle pool either.

Coarse-graining windows
-----------------------
``tophat``  flat average over each cube: the literal partition estimator.
            Against the |k| spectrum its sinc^2 tails leak ultraviolet
            power logarithmically, which tilts the exact ensemble
            exponent to -1.857 at N = 64 (box/16..box/2), so it is kept
            for the partition-identity checks, not for slope measurement.
``hann``    raised-cosine weighted average within each cube: same
            partition, k^-4 window tails, no leak; the exact ensemble
            exponent is -2.0015 at N = 64.  Default for scaling runs.

For exponent fits keep cubes between 4 lattice cells (at 2 cells the
raised cosine degenerates to the flat average) and half the box (the
whole-box average is the mean, which is pinned to zero).
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
# numpy loads numpy.random on first use; were that in a draw worker, its set-up
# would leave about 0.6 MB more resident in that thread's malloc arena.
from numpy.random import SeedSequence, default_rng

from .errors import ConfigurationError, DomainError, physical_memory_bytes

WINDOWS = ("tophat", "hann")
_DRAWS_IN_FLIGHT = 1024  # draws submitted to the pool at once


@dataclass(frozen=True)
class LatticeSpec:
    box_size: float
    points_per_axis: int
    k_max: float | None = None  # None: the Nyquist wavenumber
    spectrum_normalization: float = 1.0  # kappa

    def __post_init__(self):
        if not self.box_size > 0:
            raise ConfigurationError(f"box_size must be > 0, got {self.box_size}")
        n = self.points_per_axis
        if not (isinstance(n, int) and n >= 8 and n % 2 == 0):
            raise ConfigurationError(f"points_per_axis must be an even integer >= 8, got {n!r}")
        sigma_bytes = 8 * n * n * (n // 2 + 1)  # the run's one spectrum, float64
        memory = physical_memory_bytes()
        if sigma_bytes > memory:
            raise ConfigurationError(
                f"points_per_axis {n} needs {sigma_bytes:.3g} bytes for the spectrum alone, "
                f"more than the {memory:.3g} bytes of physical memory"
            )
        if self.k_max is None:
            object.__setattr__(self, "k_max", self.nyquist)
        if not self.k_max >= self.fundamental:
            raise ConfigurationError(f"k_max {self.k_max} is below 2*pi/L = {self.fundamental}")
        if self.k_max > self.nyquist * (1.0 + 1e-12):
            raise ConfigurationError(
                f"k_max {self.k_max} exceeds the Nyquist wavenumber {self.nyquist}"
            )
        if not self.spectrum_normalization > 0:
            raise ConfigurationError(
                f"spectrum_normalization must be > 0, got {self.spectrum_normalization}"
            )
        # sigma_k^2 = density * |k|: the fundamental's must stay N^3 above the
        # smallest normal float, and the sum of N^3 squared grid values, about
        # N^6 * density * k_max, below the largest.
        density = self.variance_per_wavenumber
        if not (
            density * self.fundamental >= sys.float_info.min * n**3
            and density * self.k_max * n**6 < sys.float_info.max
        ):
            raise ConfigurationError(
                f"kappa {self.spectrum_normalization}, box {self.box_size}, grid {n} and "
                f"k_max {self.k_max} put the spectrum outside the normal float range"
            )

    @property
    def variance_per_wavenumber(self) -> float:
        """kappa / L^3, by chained division, which cannot raise as L**3 can."""
        return self.spectrum_normalization / self.box_size / self.box_size / self.box_size

    @property
    def fundamental(self) -> float:
        return 2.0 * math.pi / self.box_size

    @property
    def nyquist(self) -> float:
        return math.pi * self.points_per_axis / self.box_size

    @property
    def cell_size(self) -> float:
        return self.box_size / self.points_per_axis


def wavenumber_magnitudes(spec: LatticeSpec) -> np.ndarray:
    """|k| on the half lattice, shape (N, N, N/2 + 1)."""
    n = spec.points_per_axis
    k = spec.fundamental * np.r_[0 : n // 2, -(n // 2) : 0]  # FFT order along x and y
    kz = spec.fundamental * np.arange(n // 2 + 1)
    kmag = k[:, None, None] ** 2 + k[None, :, None] ** 2 + kz**2
    return np.sqrt(kmag, out=kmag)


def mode_std(spec: LatticeSpec) -> np.ndarray:
    """Per-mode sigma_k on the half lattice; zero for DC and beyond k_max.

    sqrt(|k| * kappa / L^3) is built in the array of |k| itself, so the
    build holds one array and the cutoff mask, not three arrays.
    """
    sigma = wavenumber_magnitudes(spec)
    beyond = sigma > spec.k_max
    np.multiply(sigma, spec.variance_per_wavenumber, out=sigma)
    np.sqrt(sigma, out=sigma)
    sigma[beyond] = 0.0
    return sigma


def _reflect(folded: np.ndarray) -> np.ndarray:
    """conj(folded) at -q for every FFT-ordered q of an (nb, nb, nb) fold."""
    return np.conjugate(np.roll(np.flip(folded), 1, axis=(0, 1, 2)))  # index nb - q, mod nb


# The live normals are drawn a block of _BLOCK_SLABS x-slabs at a time, the
# last block taking what is left, so the block and its weighted copy grow as
# N^2, not N^3: an eighth of the half layout at 64^3, a sixteenth at 128^3.
_BLOCK_SLABS = 8


def draw_modes(sigma: np.ndarray, seed, plans) -> list[np.ndarray]:
    """Draw one realization's one-sided amplitudes and return their x-fold for each plan.

    ``sigma`` is ``mode_std(spec)``.  Each mode k of the half layout
    (N, N, N/2 + 1) gets B(k) = sigma_k xi_k, xi_k an independent complex
    Gaussian with E|xi_k|^2 = 1, times sqrt(1/2) on the planes kz = 0 and
    N/2, which store both members of a pair; the coefficients
    B(k) + conj B(-k), which ``coarse_mean_squares`` completes after the
    folds, then have E|c_k|^2 = sigma_k^2, real with full variance on the
    self-conjugate modes.  Only the live modes (sigma_k > 0) are drawn, in
    C order of the half layout; the x-slab blocks they are drawn in split
    one stream, so the numbers do not depend on the block size.
    Deterministic in (sigma, seed); seed may be an int or a numpy
    SeedSequence derived from a master seed.

    The amplitudes are never held whole: each block, scaled, goes into one
    (nb, N, N/2 + 1) fold per plan, slab x times W(kx) into class x mod
    nb, in increasing x as ``_fold_aliases`` would add them.  A block's
    normals are drawn straight into the rows of its weighted copy, which
    are free until the folds, so a block allocates no array.
    """
    n = len(sigma)
    rng = default_rng(seed)
    # One workspace per draw: the block, its weighted copy, then the folds.
    # glibc returns the top of its heap once more than twice its largest
    # recent allocation is free there; allocated apart, these arrays pass
    # that at the end of every draw and are faulted back in on the next.
    sizes = [min(_BLOCK_SLABS, n)] * 2 + [p.blocks for p in plans]
    work = np.empty((sum(sizes), *sigma.shape[1:]), dtype=np.complex128)
    block, weighted, *folded = (work[e - s : e] for s, e in zip(sizes, accumulate(sizes)))
    live = np.empty(block.shape, dtype=bool)
    planes = slice(None, None, n // 2)  # kz = 0 and N/2, the self-conjugate planes
    for lo in range(0, n, _BLOCK_SLABS):
        hi = min(lo + _BLOCK_SLABS, n)
        coeff, mask = block[: hi - lo], live[: hi - lo]
        np.greater(sigma[lo:hi], 0.0, out=mask)
        normals = weighted.reshape(-1)[: np.count_nonzero(mask)]
        parts = normals.view(np.float64)  # each (re, im) pair read as one normal
        rng.standard_normal(out=parts)
        parts *= math.sqrt(0.5)  # the floats of normal(scale=sqrt(1/2)), 0 + scale * z
        coeff.fill(0.0)
        coeff[mask] = normals
        coeff *= sigma[lo:hi]
        coeff[:, :, planes] *= math.sqrt(0.5)  # these planes store both members of a pair
        for plan, out in zip(plans, folded):
            np.multiply(coeff, plan.transform[lo:hi, None, None], out=weighted[: hi - lo])
            _add_aliases(out, weighted[: hi - lo], lo)
    return folded


def _add_aliases(out: np.ndarray, weighted: np.ndarray, x0: int) -> None:
    """Add the weighted slabs x0, x0 + 1, ... into class x mod nb of ``out``.

    A class's first alias (x < nb) writes it and later ones add to it in
    increasing x, the order in which ``_fold_aliases`` sums them.
    """
    nb = len(out)
    x, end = x0, x0 + len(weighted)
    while x < end:
        q = x % nb
        run = weighted[x - x0 : min(end, x - q + nb) - x0]  # up to the next class 0
        if x < nb:
            out[q : q + len(run)] = run
        else:
            out[q : q + len(run)] += run
        x += len(run)


@dataclass(frozen=True)
class CoarseGrainReport:
    scales: tuple[float, ...]
    rms: tuple[float, ...]
    draws: int
    estimate_variance: tuple[float, ...]  # variance of the per-draw RMS at each scale

    def stderr(self, i: int) -> float:
        """Standard error of the pooled RMS at scale index i across draws."""
        return math.sqrt(self.estimate_variance[i] / self.draws)


def _cells_for_scale(spec: LatticeSpec, scale: float) -> int:
    m = scale / spec.cell_size
    m_int = round(m)
    if m_int < 1 or abs(m - m_int) > 1e-9 * max(m, 1.0):
        raise DomainError(
            f"scale {scale} is not an integer number of lattice cells (cell {spec.cell_size})"
        )
    if spec.points_per_axis % m_int != 0:
        raise DomainError(
            f"scale {scale} ({m_int} cells) does not partition the box of "
            f"{spec.points_per_axis} cells per axis"
        )
    return m_int


def _window_weights(m: int, window: str) -> np.ndarray:
    if window == "tophat":
        w = np.ones(m)
    elif window == "hann":
        j = np.arange(m)
        w = np.sin(math.pi * (j + 0.5) / m) ** 2
    else:
        raise DomainError(f"unknown window {window!r}; expected one of {WINDOWS}")
    return w / w.sum()


def _fold_aliases(values: np.ndarray, weights: np.ndarray, blocks: int, axis: int) -> np.ndarray:
    """sum_j values[j*blocks + q] * weights[j*blocks + q] along ``axis``, for q < blocks.

    One multiply weights the m aliases into a C-ordered, alias-major
    (m, ..., blocks, ...) product and one reduce over its first axis sums
    them, so the number of calls does not grow with m.  The result is
    C-ordered in the caller's axis order, the order in which ``np.sum`` in
    ``coarse_mean_squares`` adds it up.  The reduce runs
    on the product's float view, whose last axis holds at least one
    (re, im) pair, so numpy adds whole rows in increasing j, as a loop over
    the aliases would, and never takes the pairwise sum it uses where the
    reduced axis is the only one longer than 1.
    """
    shape = values.shape
    m = shape[axis] // blocks
    folded_shape = shape[:axis] + (blocks,) + shape[axis + 1 :]
    aliases = np.moveaxis(values.reshape(shape[:axis] + (m, blocks) + shape[axis + 1 :]), axis, 0)
    weights = weights.reshape((m,) + (1,) * axis + (blocks,) + (1,) * (len(shape) - axis - 1))
    product = np.multiply(aliases, weights, out=np.empty((m, *folded_shape), dtype=np.complex128))
    folded = np.empty(folded_shape, dtype=np.complex128)
    np.add.reduce(product.view(np.float64), axis=0, out=folded.view(np.float64))
    return folded


@dataclass(frozen=True)
class ScalePlan:
    """What coarse-graining at one scale needs, fixed for a run."""

    cells: int  # m, cells per cube edge
    blocks: int  # nb = N / m, cubes per axis
    transform: np.ndarray  # W(k) = sum_i w_i exp(2 pi i k i / N) at the N FFT-ordered k


def scale_plans(spec: LatticeSpec, scales, window: str) -> tuple[ScalePlan, ...]:
    """One ``ScalePlan`` per scale, by elementwise numpy only."""
    n = spec.points_per_axis
    plans = []
    for scale in scales:
        m = _cells_for_scale(spec, scale)
        w = _window_weights(m, window)
        phase = np.outer(np.arange(n), np.arange(m)) % n  # k * i, reduced mod N in integers
        w_k = (np.exp(2j * math.pi / n * phase) * w).sum(axis=1)
        plans.append(ScalePlan(cells=m, blocks=n // m, transform=w_k))
    return tuple(plans)


def coarse_mean_squares(folded, plans) -> list[float]:
    """Mean square of the cube averages at each planned scale, from ``draw_modes``'s x-folds.

    Along one axis the weighted average over block b of m cells is
    sum_k c_k W(k) exp(2 pi i k b / nb), with nb = N/m blocks and W(k) the
    window's transform; the phase repeats in k with period nb, so folding
    the m aliases k = q (mod nb) on each axis leaves G(q), whose nb-point
    inverse transform is the cube averages, so by Parseval their mean
    square is sum_q |G(q)|^2.  x is folded as the one-sided amplitudes B
    are drawn; here y is, then the stored kz, zero-padded to whole
    nb-periods, which leaves the fold F of B.  The coefficients are
    B(k) + conj B(-k), and a real window has W(-k) = conj W(k), so the
    completion commutes with every fold: G(q) = F(q) + conj F(-q).  Every
    contraction is a fixed-order sum, so no FFT or BLAS call is made.
    """
    out = []
    for plan, x_folded in zip(plans, folded):
        nb = plan.blocks
        y_folded = _fold_aliases(x_folded, plan.transform, nb, 1)
        kz = -(-y_folded.shape[2] // nb) * nb  # the stored kz, padded to whole nb-periods
        padded = np.zeros((nb, nb, kz), dtype=np.complex128)
        padded[:, :, : y_folded.shape[2]] = y_folded
        f = _fold_aliases(padded, plan.transform[:kz], nb, 2)
        g = f + _reflect(f)
        out.append(float(np.sum(g.real**2 + g.imag**2)))
    return out


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    amplitude: float
    r_squared: float
    stderr_exponent: float


def fit_scaling(report: CoarseGrainReport) -> ScalingFit:
    """Ordinary least squares of log(rms) on log(scale)."""
    n = len(report.scales)
    if n < 3:
        raise DomainError(f"need at least 3 scales to fit a power law, got {n}")
    x = np.log(np.asarray(report.scales))
    y = np.log(np.asarray(report.rms))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return ScalingFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        stderr_exponent=stderr,
    )


def scaling_run(
    spec: LatticeSpec,
    scales: list[float] | None,
    draws: int,
    seed: int,
    window: str = "hann",
    threads: int = 1,
) -> tuple[CoarseGrainReport, ScalingFit | None]:
    """Draw, coarse-grain and (with >= 3 scales) fit the exponent.

    ``scales=None`` means box/16, box/8, box/4 and box/2, the fit range
    recommended above; given scales are reported in increasing order.
    Draw i is seeded by ``SeedSequence(seed, spawn_key=(i,))``, the i-th
    child that ``SeedSequence(seed).spawn`` would give, derived in its
    worker, so the result is bit-identical for any thread count.
    sigma and the per-scale plans are computed once, before the pool
    starts, and every draw reads that one sigma; the draws run in a pool of
    ``min(threads, draws)`` worker threads under the caller's numpy error
    state.  Each worker streams its draw into the per-scale x-folds and
    reduces those to mean squares, so no worker holds a whole coefficient
    array.  The pool is given ``_DRAWS_IN_FLIGHT`` draws at a time, and each
    draw's mean squares go into one preallocated (draws, scales) table, so
    beyond that table memory grows with the workers, not the draws; a table
    larger than physical memory is refused before any draw.
    """
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    if scales is None:
        scales = [spec.box_size / d for d in (16, 8, 4, 2)]
    ordered = sorted(float(s) for s in scales)
    if not ordered:
        raise DomainError("need at least one scale")
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise DomainError(f"scales must be distinct, got {scales}")
    table_bytes = 8 * draws * len(ordered)  # Python ints, so no size overflows
    memory = physical_memory_bytes()
    if table_bytes > memory:
        raise DomainError(
            f"{draws} draws at {len(ordered)} scales need {table_bytes} bytes for their "
            f"mean squares, more than the {memory:.3g} bytes of physical memory"
        )
    plans = scale_plans(spec, ordered, window)
    for s, plan in zip(ordered, plans):
        if 2 * plan.cells > spec.points_per_axis:
            raise DomainError(f"scale {s} exceeds half the box (the whole-box mean is pinned to 0)")
    sigma = mode_std(spec)
    errors = np.geterr()

    def one(i):
        child = SeedSequence(seed, spawn_key=(i,))
        with np.errstate(**errors):  # numpy keeps its error state per thread
            return coarse_mean_squares(draw_modes(sigma, child, plans), plans)

    table = np.empty((draws, len(ordered)))
    with ThreadPoolExecutor(max_workers=min(threads, draws)) as pool:
        for start in range(0, draws, _DRAWS_IN_FLIGHT):
            stop = min(start + _DRAWS_IN_FLIGHT, draws)
            table[start:stop] = list(pool.map(one, range(start, stop)))
    per_scale_ms = table.T  # one row of per-draw mean squares per scale
    report = CoarseGrainReport(
        scales=tuple(ordered),
        rms=tuple(float(np.sqrt(np.mean(ms))) for ms in per_scale_ms),
        draws=draws,
        estimate_variance=tuple(
            float(np.var(np.sqrt(ms), ddof=1)) if draws > 1 else 0.0 for ms in per_scale_ms
        ),
    )
    fit = fit_scaling(report) if len(report.scales) >= 3 else None
    return report, fit
