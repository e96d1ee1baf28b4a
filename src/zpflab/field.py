"""Spectral synthesis of the fluctuating scalar field proxy B(x, y, z).

A finite periodic lattice stands in for the infinite oscillator
collection: independent complex Gaussian Fourier coefficients, one per
Hermitian mode pair {k, -k}, carry the half-quantum spectrum
sigma_k^2 = kappa * |k| / L^3 (natural units, hbar = c = 1; kappa absorbs
the overall normalization).  They are stored one-sidedly in the real-FFT
half layout (N, N, N/2 + 1): the coefficient at k is B(k) + conj B(-k),
with B zero for kz < 0, so Hermitian symmetry holds by construction.
B(k) = s_k xi_k, xi_k an independent complex normal with E|xi_k|^2 = 1,
and s_k = sigma_k, times sqrt(1/2) on the self-conjugate planes kz = 0
and kz = N/2, which store both members of a pair.  sigma_k = 0 at DC
(|k| = 0) and beyond k_max.  The two things the inputs can break, the
spectrum's float range and the memory that sigma needs, are checked once
in ``LatticeSpec``; a scaling run never holds sigma whole, but computes
it a block of x-slabs at a time.  The coefficients describe a real
field, their inverse real transform, whose cube-averaged RMS falls as
l^-2 with the averaging scale l, which is the scaling this module exists
to measure.
The dimensioned form of that law, sqrt(hbar c) / l^2, is
``coil.predicted_rms``: the coil estimate needs it and no arrays, so it
lives there and only ``field scaling-run`` imports this module.

A scaling run draws neither the field nor its modes.  A cube average at
the scale of nb cubes per axis is a linear functional of the modes that
reads them only through their sums over the alias classes k = q
(mod nb), weighted by the window's transform W(k).  With L the lcm of
the scales' nb (16 for box/16..box/2 at any N), each class r mod L of the
half layout has the S-vector of class sums H(r) = (sum_{k = r} W_a(k)
B(k))_a, one entry per scale.  The H(r) are independent circular complex
Gaussians with covariance C_r[a, b] = sum_{k = r} s_k^2 W_a(k) conj W_b(k),
so a draw of the H(r) from that law is a draw of every scale's cube
averages at once, with their exact joint law.  ``class_law`` builds C once
per run, computing s_k^2 from the wavenumbers a block of x-slabs at a
time, and only for kx = 0..N/2, since slab N - x has the s^2 of slab x;
it holds one (L, L) fold per slab and pair of scales, and no N^3 array.
It then factors every class with a diagonal-scaled semidefinite
Cholesky; ``draw_mean_squares`` draws H from the factor (about 4 k
complex normals per scale at the default, at any N), folds it from L
down to each scale's nb classes, completes the Hermitian symmetry and
takes the energy of the fold, which by Parseval is the mean square of
the cube averages.  The trace of C gives each scale's exact ensemble mean
square, 2 sum_r C_r[a, a], at no extra cost.  Every contraction in the
build, the factor and a draw is elementwise numpy in a fixed order: no
FFT, BLAS or LAPACK call is made, so the digits do not depend on how any
of those libraries was built.

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
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.random import SeedSequence, default_rng

from .errors import ConfigurationError, DomainError, physical_memory_bytes

WINDOWS = ("tophat", "hann")


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
        # sigma whole, float64, as mode_std builds it.  A scaling run computes it
        # a block of x-slabs at a time and never holds it whole, but a grid whose
        # spectrum exceeds memory is still refused: each block's work grows with it.
        sigma_bytes = 8 * n * n * (n // 2 + 1)
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


def wavenumber_magnitudes(spec: LatticeSpec, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """|k| on the half lattice's x-slabs lo..hi - 1, all N by default: (hi - lo, N, N/2 + 1)."""
    n = spec.points_per_axis
    k = spec.fundamental * np.r_[0 : n // 2, -(n // 2) : 0]  # FFT order along x and y
    kz = spec.fundamental * np.arange(n // 2 + 1)
    kmag = k[lo:hi, None, None] ** 2 + k[None, :, None] ** 2 + kz**2
    return np.sqrt(kmag, out=kmag)


def mode_std(spec: LatticeSpec) -> np.ndarray:
    """Per-mode sigma_k on the half lattice; zero for DC and beyond k_max."""
    return _slab_std(spec, 0, spec.points_per_axis)


def _slab_std(spec: LatticeSpec, lo: int, hi: int) -> np.ndarray:
    """sigma_k on the x-slabs lo..hi - 1: the bits of ``mode_std(spec)[lo:hi]``.

    sqrt(|k| * kappa / L^3) is built in the array of |k| itself, so the
    build holds one array and the cutoff mask, not three arrays.  Every
    operation is elementwise, so no slab's values depend on the others.
    """
    sigma = wavenumber_magnitudes(spec, lo, hi)
    beyond = sigma > spec.k_max
    np.multiply(sigma, spec.variance_per_wavenumber, out=sigma)
    np.sqrt(sigma, out=sigma)
    sigma[beyond] = 0.0
    return sigma


def _reflect(folded: np.ndarray) -> np.ndarray:
    """conj(folded) at -q for every FFT-ordered q of an (nb, nb, nb) fold."""
    reflected = np.roll(np.flip(folded), 1, axis=(0, 1, 2))  # index nb - q, mod nb
    return np.conjugate(reflected, out=reflected)


@dataclass(frozen=True)
class CoarseGrainReport:
    scales: tuple[float, ...]
    rms: tuple[float, ...]
    draws: int
    estimate_variance: tuple[float, ...]  # variance of the per-draw RMS at each scale
    exact_rms: tuple[float, ...] = ()  # the exact ensemble RMS at each scale
    # (pooled mean square - its exact mean) / its standard error; None below 2 draws
    z_scores: tuple[float | None, ...] = ()

    def stderr(self, i: int) -> float:
        """Standard error of the pooled RMS at scale index i across draws."""
        return math.sqrt(self.estimate_variance[i] / self.draws)

    def exact_fit(self) -> ScalingFit:
        """The power law fitted to the exact ensemble RMS, as ``fit_scaling`` fits the drawn one."""
        return fit_scaling(replace(self, rms=self.exact_rms))


def _cells_for_scale(spec: LatticeSpec, scale: float) -> int:
    m = scale / spec.cell_size
    if m < 1.0 - 1e-9:  # any scale <= 0 too
        raise DomainError(f"scale {scale} is below one lattice cell (cell {spec.cell_size})")
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(m, 1.0):
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
    them, so the number of calls does not grow with m.  ``values`` may be
    real and the weights complex; the result is complex and C-ordered in the
    caller's axis order.  The reduce runs on the product's float view, whose last axis holds at least one
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


# An alias-class covariance is built a block of _BLOCK_SLABS x-slabs at a
# time, the last block taking what is left, so the build's temporaries grow
# as N^2, not N^3.
_BLOCK_SLABS = 8
_PIVOT_FLOOR = 1e-12  # a pivot of a class's correlation matrix at or below this is rank lost


def class_layout(n: int, blocks) -> tuple[int, int, int, bool]:
    """(L, Lz, width, modes) for scales of ``blocks`` cubes per axis on an N^3 lattice.

    L is the lcm of the blocks, so every scale's alias classes mod nb are
    unions of the classes mod L.  The class grid is (L, L, Lz), Lz =
    min(L, N/2 + 1), since the half layout stores kz = 0..N/2 only.  A
    class holds at most M = (N/L)^2 ceil((N/2 + 1)/Lz) modes; where M is
    at most S, the number of scales, ``modes`` is True and the factor's
    columns are those modes, so its width is M, and otherwise it is the
    Cholesky factor, of width S.  The factor is (S, width, L, L, Lz).
    """
    period = math.lcm(*blocks)
    nz = n // 2 + 1
    lz = min(period, nz)
    per_class = (n // period) ** 2 * -(-nz // lz)
    modes = per_class <= len(blocks)
    return period, lz, per_class if modes else len(blocks), modes


@dataclass(frozen=True)
class ClassLaw:
    """The joint law of one draw's alias-class sums, fixed for a run.

    For class r mod L, H(r) = sum_j factor[:, j, r] z_j(r), with z_j(r)
    independent complex normals of E|z|^2 = 1, has the covariance C_r of
    ``class_covariance``.
    """

    factor: np.ndarray  # (S, width, L, L, Lz) complex
    mean_squares: np.ndarray  # exact ensemble mean square per scale, 2 sum_r C_r[a, a]


def class_law(spec: LatticeSpec, plans) -> ClassLaw:
    """The factor of the class sums' covariance, and the exact mean squares it gives.

    Where a class holds at most S modes, the factor is its modes' columns
    s_k W(k); otherwise it is the semidefinite Cholesky factor of
    ``class_covariance``.  ``class_layout`` picks the route and the width.
    Either route computes the spectrum a block of x-slabs at a time, so
    sigma is never built whole.
    """
    period, lz, _, modes = class_layout(spec.points_per_axis, [p.blocks for p in plans])
    if modes:
        factor = _mode_columns(spec, plans, period, lz)
        power = [np.sum(f.real**2 + f.imag**2) for f in factor]
        return ClassLaw(factor, 2.0 * np.array(power))
    factor = class_covariance(spec, plans)
    diagonal = np.array([factor[a, a].real.sum() for a in range(len(plans))])
    _factor_in_place(factor)
    return ClassLaw(factor, 2.0 * diagonal)


def class_covariance(spec: LatticeSpec, plans) -> np.ndarray:
    """C_r[a, b] = sum over k = r (mod L) of s_k^2 W_a(k) conj W_b(k), shape (S, S, L, L, L).

    s_k is sigma_k, times sqrt(1/2) on the kz = 0 and N/2 planes, the
    one-sided amplitude of the half layout, and W_a(k) = W_a(kx) W_a(ky)
    W_a(kz) is scale a's window transform.  s_k^2 is computed a block of
    x-slabs at a time, and only for kx = 0..N/2: slab N - x negates kx,
    which leaves s^2 bit for bit.  Each slab, weighted by P = W_a conj W_b,
    is folded along y, then along the stored kz, zero-padded to whole
    L-periods, into one (L, L) fold per pair of scales; then slab x times
    P(kx) goes into class x mod L, in increasing x over all N slabs.  The
    build holds these (N/2 + 1) L^2 folds per pair, one block's
    temporaries and C, and no array of N^3 / 2 values.
    """
    n = spec.points_per_axis
    nz = half = n // 2 + 1  # the stored kz; also the slabs kx = 0..N/2 that are folded
    period = class_layout(n, [p.blocks for p in plans])[0]
    kz = -(-nz // period) * period
    pairs = [
        (a, b, plans[a].transform * np.conj(plans[b].transform))
        for a in range(len(plans))
        for b in range(a, len(plans))
    ]
    folds = np.empty((len(pairs), half, period, period), dtype=np.complex128)
    padded = np.zeros((min(_BLOCK_SLABS, half), period, kz), dtype=np.complex128)
    planes = slice(None, None, n // 2)  # kz = 0 and N/2 store both members of a pair
    for lo in range(0, half, _BLOCK_SLABS):
        hi = min(lo + _BLOCK_SLABS, half)
        power = _slab_std(spec, lo, hi)
        np.square(power, out=power)
        power[:, :, planes] *= 0.5
        for (_, _, weight), yz in zip(pairs, folds):
            padded[: hi - lo, :, :nz] = _fold_aliases(power, weight, period, 1)
            yz[lo:hi] = _fold_aliases(padded[: hi - lo], weight[:kz], period, 2)
    cov = np.zeros((len(plans), len(plans), period, period, period), dtype=np.complex128)
    for (a, b, weight), yz in zip(pairs, folds):
        for x in range(n):
            cov[a, b, x % period] += weight[x] * yz[min(x, n - x)]
        if a != b:
            cov[b, a] = np.conj(cov[a, b])
    return cov


def _factor_in_place(cov: np.ndarray) -> None:
    """Overwrite each class's covariance C_r with a lower factor F_r, F_r F_r^H = C_r.

    Every class at once, in elementwise numpy with loops over the scales
    only.  Each class is scaled to its correlation matrix first, dividing
    C_r[a, b] by sqrt(C_r[a, a]) and by sqrt(C_r[b, b]) one at a time:
    |C_r[a, b]| <= sqrt(C_r[a, a] C_r[b, b]) bounds each quotient, where
    the product of the two reciprocals overflows for a subnormal diagonal
    entry.  A pivot at or below ``_PIVOT_FLOOR`` leaves its column zero, so
    a rank-deficient class (the tophat's transform has exact zeros) gets a
    semidefinite factor; a diagonal entry of 0 is such a pivot, and the
    scale it restores at the end zeroes its row.
    """
    s = len(cov)
    scale = np.sqrt(np.stack([cov[a, a].real for a in range(s)]))
    divisor = np.where(scale > 0, scale, 1.0)
    for a in range(s):
        cov[a] /= divisor[a]
    for b in range(s):
        cov[:, b] /= divisor[b]
    for j in range(s):
        pivot = cov[j, j].real.copy()
        for k in range(j):
            pivot -= cov[j, k].real ** 2 + cov[j, k].imag ** 2
        live = pivot > _PIVOT_FLOOR
        root = np.sqrt(np.where(live, pivot, 1.0))
        cov[j, j] = np.where(live, root, 0.0)
        for i in range(j + 1, s):
            for k in range(j):
                cov[i, j] -= cov[i, k] * np.conj(cov[j, k])
            cov[i, j] = np.where(live, cov[i, j] / root, 0.0)
        cov[:j, j] = 0.0
    for a in range(s):
        cov[a] *= scale[a]


def _mode_columns(spec: LatticeSpec, plans, period: int, lz: int) -> np.ndarray:
    """Each class's modes k = r + L j as the factor's columns s_k W(k), shape (S, M, L, L, Lz).

    Filled a block of x-slabs at a time, each slab x into the columns of
    its x-alias x // L and its class x mod L.
    """
    n = spec.points_per_axis
    nz = n // 2 + 1
    kz = -(-nz // lz) * lz
    reps = n // period
    factor = np.empty((len(plans), reps * reps * (kz // lz), period, period, lz), np.complex128)
    columns = factor.reshape(len(plans), reps, -1, period, period, lz)  # x-alias apart
    amplitude = np.zeros((min(_BLOCK_SLABS, n), n, kz))
    for lo in range(0, n, _BLOCK_SLABS):
        hi = min(lo + _BLOCK_SLABS, n)
        block = amplitude[: hi - lo]
        block[:, :, :nz] = _slab_std(spec, lo, hi)
        block[:, :, : nz : n // 2] *= math.sqrt(0.5)
        for plan, out in zip(plans, columns):
            w = plan.transform
            weighted = block * w[lo:hi, None, None]
            weighted *= w[None, :, None]
            weighted *= w[None, None, :kz]
            by_class = weighted.reshape(hi - lo, reps, period, kz // lz, lz)
            for x in range(lo, hi):  # (y-alias, z-alias) columns of each (ry, rz) class
                out[x // period, :, x % period] = (
                    by_class[x - lo].transpose(0, 2, 1, 3).reshape(-1, period, lz)
                )
    return factor


def draw_mean_squares(law: ClassLaw, plans, seed) -> list[float]:
    """One realization's mean square of the cube averages at each planned scale.

    Draws the class sums H(r) from ``law``: one ``standard_normal`` call
    fills the complex normals z_j(r), scaled by sqrt(1/2), and each scale's
    H_a is their sum over j times its factor columns, in increasing j, so
    one scale's sums are held at a time.  Each scale folds H_a from L down
    to its nb classes, which is the fold F of the one-sided amplitudes; the
    coefficients are B(k) + conj B(-k) and a real window has W(-k) =
    conj W(k), so G(q) = F(q) + conj F(-q), and by Parseval the mean
    square of the cube averages is sum_q |G(q)|^2.
    Deterministic in (law, seed); seed may be an int or a numpy
    SeedSequence.  Every contraction is a fixed-order sum, so no FFT or
    BLAS call is made.
    """
    factor = law.factor
    normals = np.empty(factor.shape[1:], dtype=np.complex128)
    parts = normals.view(np.float64)  # each (re, im) pair read as one normal
    default_rng(seed).standard_normal(out=parts)
    parts *= math.sqrt(0.5)
    term = np.empty(normals.shape[1:], dtype=np.complex128) if len(normals) > 1 else None
    out = []
    for plan, columns in zip(plans, factor):
        sums = columns[0] * normals[0]
        for j in range(1, len(normals)):
            sums += np.multiply(columns[j], normals[j], out=term)
        g = _complete(_fold_classes(sums, plan.blocks))
        out.append(float(np.sum(g.real**2 + g.imag**2)))
    return out


def _complete(folded: np.ndarray) -> np.ndarray:
    """G(q) = F(q) + conj F(-q), built in the array of the reflection."""
    completed = _reflect(folded)
    completed += folded
    return completed


def _fold_classes(sums: np.ndarray, nb: int) -> np.ndarray:
    """The sum of ``sums`` over the classes r = q (mod nb), for q < nb on each axis.

    The classes of a q are added in the C order of their aliases (x, then
    y, then z), each into its own sum.  The z extent need not be whole
    nb-periods, as the N/2 + 1 stored kz of a class grid of Lz = N/2 + 1
    are not: the first ``width`` q along z have one alias more than the
    rest, so the two sets are summed apart, each as a strided view of
    ``sums`` with no padded copy.  The sums run on the float view, whose
    last axis holds a (re, im) pair, so numpy adds whole rows of the
    output in alias order and never takes a pairwise sum over the aliases.
    """
    lx, ly, lz = sums.shape
    periods = -(-lz // nb)
    width = lz - (periods - 1) * nb  # q < width have an alias in the last, partial period
    parts = sums[..., None].view(np.float64)  # each (re, im) pair as a last axis of 2
    sx, sy, sz, sc = parts.strides
    folded = np.empty((nb, nb, nb), dtype=np.complex128)
    out = folded.view(np.float64).reshape(nb, nb, nb, 2)
    for q, aliases, count in ((0, periods, width), (width, periods - 1, nb - width)):
        classes = as_strided(
            parts[:, :, q:],
            shape=(lx // nb, nb, ly // nb, nb, aliases, count, 2),
            strides=(nb * sx, sx, nb * sy, sy, nb * sz, sz, sc),
            writeable=False,
        )
        np.add.reduce(classes, axis=(0, 2, 4), out=out[:, :, q : q + count])
    return folded


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


def _z_score(mean_squares: np.ndarray, exact: float) -> float | None:
    """(pooled mean square - exact) / its standard error, None if that error is 0 or undefined.

    Taken on the mean squares over their exact mean, which are of order 1,
    so squaring them cannot overflow for any spectrum ``LatticeSpec`` accepts.
    """
    if len(mean_squares) < 2 or not exact > 0:
        return None
    ratio = mean_squares / exact
    spread = float(np.std(ratio, ddof=1))
    return (float(np.mean(ratio)) - 1.0) * math.sqrt(len(ratio)) / spread if spread > 0 else None


def scaling_run(
    spec: LatticeSpec,
    scales: list[float] | None,
    draws: int,
    seed: int,
    window: str = "hann",
) -> tuple[CoarseGrainReport, ScalingFit | None]:
    """Draw, coarse-grain and (with >= 3 scales) fit the exponent.

    ``scales=None`` means box/16, box/8, box/4 and box/2, the fit range
    recommended above; given scales are reported in increasing order.
    The per-scale plans and the class law are built once, before the
    first draw; the law's build computes the spectrum a block of x-slabs
    at a time, so sigma is never held whole.  Draw i is seeded by
    ``SeedSequence(seed, spawn_key=(i,))``, the i-th child that
    ``SeedSequence(seed).spawn`` would give, and its mean squares go into
    one preallocated (draws, scales) table, so memory does not grow with
    the draws beyond that table.  A table larger than physical memory is
    refused before any array is built, and a class-law factor before the
    law's build starts.
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
    n = spec.points_per_axis
    plans = scale_plans(spec, ordered, window)
    for s, plan in zip(ordered, plans):
        if 2 * plan.cells > n:
            raise DomainError(f"scale {s} exceeds half the box (the whole-box mean is pinned to 0)")
    period, lz, width, _ = class_layout(n, [p.blocks for p in plans])
    factor_bytes = 16 * len(plans) * width * period * period * lz
    if factor_bytes > memory:
        cells = [p.cells for p in plans]
        raise DomainError(
            f"scales of {cells} cells on a {n}^3 grid need {factor_bytes} bytes for the law "
            f"of their alias-class sums, more than the {memory:.3g} bytes of physical memory"
        )
    law = class_law(spec, plans)
    table = np.empty((draws, len(ordered)))
    for i in range(draws):
        table[i] = draw_mean_squares(law, plans, SeedSequence(seed, spawn_key=(i,)))
    per_scale_ms = table.T  # one row of per-draw mean squares per scale
    exact = [float(e) for e in law.mean_squares]
    report = CoarseGrainReport(
        scales=tuple(ordered),
        rms=tuple(float(np.sqrt(np.mean(ms))) for ms in per_scale_ms),
        draws=draws,
        estimate_variance=tuple(
            float(np.var(np.sqrt(ms), ddof=1)) if draws > 1 else 0.0 for ms in per_scale_ms
        ),
        exact_rms=tuple(math.sqrt(e) for e in exact),
        z_scores=tuple(_z_score(ms, e) for ms, e in zip(per_scale_ms, exact)),
    )
    fit = fit_scaling(report) if len(report.scales) >= 3 else None
    return report, fit
