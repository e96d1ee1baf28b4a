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
(|k| = 0) and beyond k_max.  A run computes sigma a block of x-slabs at a
time and never holds it whole; ``scaling_run`` checks the bytes it does
hold, ``_run_bytes``, against physical memory once.  The coefficients
describe a real field, their inverse real transform, whose cube-averaged
RMS falls as l^-2 with the averaging scale l, which is the scaling this
module exists to measure.
The dimensioned form of that law, sqrt(hbar c) / l^2, is
``coil.predicted_rms``: the coil estimate needs it and no arrays, so it
lives there and only ``field scaling-run`` imports this module.

With k = 2 pi n / L, every mean square a run takes is kappa / L^4 times
its value at box 1 and kappa 1, a function of the grid, the cells, the
window, k_max L and the seed alone.  So the law, the draws and the fit
are all computed in these lattice units.  L enters the inputs only, as
each scale's cells and as the cut k_max L, and kappa and L enter the
results only at the end of ``scaling_run``, which multiplies the
RMS-like outputs by sqrt(kappa) / L^2 and maps the fit's amplitude in
logs.  The exponent, r^2, z-scores and exact exponent
are the same floats at every kappa and box, and a reported value that is
not a normal float is refused.

A scaling run draws neither the field nor its modes.  A cube average at
the scale of nb cubes per axis is a linear functional of the modes that
reads them only through their sums over the alias classes k = q
(mod nb), weighted by the window's transform W(k).  With L the lcm of
the scales' nb (16 for box/16..box/2 at any N), each class r mod L of the
half layout has the S-vector of class sums H(r) = (sum_{k = r} W_a(k)
B(k))_a, one entry per scale.  The cube averages read H only through
K(r) = H(r) + conj H(-r), a real field's class sums: K(-r) = conj K(r),
so K is stored one-sidedly on the class grid (L, L, L/2 + 1), as the
modes are: K(r) = J(r) + conj J(-r), with the J(r) of rz = 0..L/2
independent circular complex Gaussians of covariance Cov K_r[a, b] =
sum_{k = r} sigma_k^2 W_a(k) conj W_b(k) over the whole lattice, halved
on the self-conjugate planes rz = 0 and L/2.  A draw of J from that law
is a draw of every scale's cube averages at once, with their exact joint
law.  Where L = N (a scale of one cell, or cubes per axis whose lcm is N),
each class is one mode of the half layout, and ``class_law`` takes the
modes as the factor, s_k W_a(k), one column a scale: the mode route.
Otherwise it builds Cov K once per run, keeping only the pairs of
scales b <= a, computing s_k^2 from the wavenumbers a block of x-slabs at
a time, and only for kx and ky = 0..N/2: sigma^2 is even in each, and
W(-k) = conj W(k).  Each slab is folded into Cov K, and again as slab
N - x, as soon as it is made, so the build holds Cov K, one block of s^2
and two (block, L, N/2 + 1) buffers, and no N^3 array.
It then factors every class with a diagonal-scaled semidefinite
Cholesky; ``draw_mean_squares`` draws J from the factor (about 2.3 k
complex normals per scale at the default, at any N), folds it from L
down to each scale's nb classes, completes the Hermitian symmetry and
takes the energy of the fold, which by Parseval is the mean square of
the cube averages.  The trace of Cov K gives each scale's exact ensemble
mean square, 2 sum_r Cov K_r[a, a], at no extra cost.  The build adds
its y- and x-aliases one at a time, every other alias-class sum is one
``_fold``, and every contraction in the build, the factor and a draw is
elementwise numpy in a fixed order: no FFT, BLAS or LAPACK call is made,
so the digits do not depend on how any of those libraries was built.

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

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.random import SeedSequence, default_rng

from .errors import ConfigurationError, DomainError, frozen_record, physical_memory_bytes

WINDOWS = ("tophat", "hann")
# k_max may exceed Nyquist by this factor, and the cut keeps every shell up
# to k_max L times it: k_max L rounds within it of the shell it names.
_K_MAX_SLACK = 1.0 + 1e-12


@frozen_record
class LatticeSpec:
    box_size: float
    points_per_axis: int
    k_max: float | None = None  # None: the Nyquist wavenumber
    spectrum_normalization: float = 1.0  # kappa

    def __post_init__(self):
        n = self.points_per_axis
        if not (isinstance(n, int) and n >= 8 and n % 2 == 0):
            raise ConfigurationError(f"points_per_axis must be an even integer >= 8, got {n!r}")
        # 2 pi / L and pi N / L finite and non-zero, so a default k_max can be replayed
        if not (0 < self.box_size < math.inf and math.isfinite(self.nyquist)):
            raise ConfigurationError(
                f"box_size must be > 0 with pi*N/L in the float range, got {self.box_size}"
            )
        if self.k_max is None:
            object.__setattr__(self, "k_max", self.nyquist)
        if not self.k_max >= self.fundamental:
            raise ConfigurationError(f"k_max {self.k_max} is below 2*pi/L = {self.fundamental}")
        if self.k_max > self.nyquist * _K_MAX_SLACK:
            raise ConfigurationError(
                f"k_max {self.k_max} exceeds the Nyquist wavenumber {self.nyquist}"
            )
        if not self.spectrum_normalization > 0:
            raise ConfigurationError(
                f"spectrum_normalization must be > 0, got {self.spectrum_normalization}"
            )

    @property
    def fundamental(self) -> float:
        return 2.0 * math.pi / self.box_size

    @property
    def nyquist(self) -> float:
        return math.pi * self.points_per_axis / self.box_size

    @property
    def cell_size(self) -> float:
        return self.box_size / self.points_per_axis


def wavenumber_magnitudes(
    n: int, lo: int = 0, hi: int | None = None, ny: int | None = None
) -> np.ndarray:
    """|k| at box 1, 2 pi times the integer wavevector's length, on the half lattice's x-slabs.

    Slabs lo..hi - 1 of an N^3 grid, all N by default, at the first ``ny``
    ky in FFT order, all N by default: (hi - lo, ny, N/2 + 1).
    """
    k = 2.0 * math.pi * np.r_[0 : n // 2, -(n // 2) : 0]  # FFT order along x and y
    kz = 2.0 * math.pi * np.arange(n // 2 + 1)
    kmag = k[lo:hi, None, None] ** 2 + k[None, :ny, None] ** 2 + kz**2
    return np.sqrt(kmag, out=kmag)


def _slab_std(spec: LatticeSpec, lo: int, hi: int, ny: int | None = None) -> np.ndarray:
    """sigma_k = sqrt(|k|) at box 1 and kappa 1 on the half lattice's x-slabs lo..hi - 1.

    At the first ``ny`` ky in FFT order, all N by default.  Zero for DC
    and beyond k_max, which is k_max L at box 1, with the slack that keeps
    the shell it names at every box.  sqrt(|k|) is built in the array of
    |k| itself, so the build holds one array and the cutoff mask.  Every
    operation is elementwise, so no slab's values depend on the others.
    """
    sigma = wavenumber_magnitudes(spec.points_per_axis, lo, hi, ny)
    beyond = sigma > spec.k_max * spec.box_size * _K_MAX_SLACK
    np.sqrt(sigma, out=sigma)
    sigma[beyond] = 0.0
    return sigma


def _reflect(folded: np.ndarray) -> np.ndarray:
    """conj(folded) at -q for every FFT-ordered q of an (nb, nb, nb) fold."""
    reflected = np.roll(np.flip(folded), 1, axis=(0, 1, 2))  # index nb - q, mod nb
    return np.conjugate(reflected, out=reflected)


@frozen_record
class CoarseGrainReport:
    scales: tuple[float, ...]
    rms: tuple[float, ...]
    draws: int
    stderr: tuple[float, ...]  # standard error of the pooled RMS at each scale across draws
    exact_rms: tuple[float, ...] = ()  # the exact ensemble RMS at each scale
    # (pooled mean square - its exact mean) / its standard error; None below 2 draws
    z_scores: tuple[float | None, ...] = ()
    exact_exponent: float | None = None  # fitted to the exact RMS; None below 3 scales


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


def _fold(values: np.ndarray, nb: int, axes) -> np.ndarray:
    """The sum of a complex 3-D ``values`` over the classes q = r (mod nb) of each of ``axes``.

    Any other axis keeps its extent; the result is C-ordered.  Each class's
    aliases are added in increasing order, in the C order of the folded
    axes, on the float view: its last axis holds a (re, im) pair, so numpy
    adds whole output rows and never sums the aliases pairwise.  The z
    extent need not be whole periods (the N/2 + 1 stored kz are not): the
    q below ``width`` have one alias more, so the two sets are summed
    apart, each a strided view of ``values`` with no padded copy.
    """
    periods = np.array(values.shape)
    periods[list(axes)] = nb
    (lx, ly, lz), (px, py, pz) = values.shape, periods.tolist()
    aliases = -(-lz // pz)
    width = lz - (aliases - 1) * pz  # q < width have an alias in the last, partial period
    parts = values[..., None].view(np.float64)  # each (re, im) pair as a last axis of 2
    sx, sy, sz, sc = parts.strides
    folded = np.empty((px, py, pz), dtype=np.complex128)
    out = folded.view(np.float64).reshape(px, py, pz, 2)

    def add(q, aliases, count):  # the z classes q..q + count - 1, of ``aliases`` aliases each
        if count == 0:  # whole periods: no partial last one
            return
        classes = as_strided(parts[:, :, q:], (lx // px, px, ly // py, py, aliases, count, 2),
                             (px * sx, sx, py * sy, sy, pz * sz, sz, sc), writeable=False)
        np.add.reduce(classes, axis=(0, 2, 4), out=out[:, :, q : q + count])

    add(0, aliases, width)
    add(width, aliases - 1, pz - width)
    return folded


@frozen_record
class ScalePlan:
    """What coarse-graining at one scale needs, fixed for a run."""

    blocks: int  # nb = N / m, cubes per axis
    transform: np.ndarray  # W(k) = sum_i w_i exp(2 pi i k i / N) at the N FFT-ordered k


def scale_plans(n: int, cells, window: str) -> tuple[ScalePlan, ...]:
    """One ``ScalePlan`` per scale of ``cells`` lattice cells on an N^3 lattice.

    The cells are those ``scaling_run`` resolved and checked, each a
    divisor of N.  By elementwise numpy only.
    """
    plans = []
    for m in cells:
        w = _window_weights(m, window)
        phase = np.outer(np.arange(n), np.arange(m)) % n  # k * i, reduced mod N in integers
        w_k = (np.exp(2j * math.pi / n * phase) * w).sum(axis=1)
        plans.append(ScalePlan(blocks=n // m, transform=w_k))
    return tuple(plans)


# An alias-class covariance is built a block of _BLOCK_SLABS x-slabs at a
# time, the last block taking what is left, so the build's temporaries grow
# as N^2, not N^3.
_BLOCK_SLABS = 8
_PIVOT_FLOOR = 1e-12  # a pivot of a class's correlation matrix at or below this is rank lost


def class_layout(n: int, blocks) -> tuple[int, bool]:
    """(L, modes) for scales of ``blocks`` cubes per axis on an N^3 lattice.

    L is the lcm of the blocks, so every scale's alias classes mod nb are
    unions of the classes mod L, and the law lives on the one-sided class
    grid (L, L, L//2 + 1).  Where L = N, ``modes`` is True: each class is
    one mode of the half layout, and the factor is that mode's s_k W_a(k),
    one column a scale.  Otherwise L <= N/2, each class sums (N/L)^3 >= 8
    modes of the whole lattice, and the Cholesky factor of their
    covariance gives scale a the a + 1 columns of its row, of S normals in
    all.
    """
    period = math.lcm(*blocks)
    return period, period == n


def _run_bytes(n: int, blocks, draws: int) -> int:
    """The bytes of the arrays a scaling run holds at its peak, bounded from the layout alone.

    The table, plus the larger of the law's build and the factor with one
    draw, adding terms one phase does not hold at once, plus the buffers
    numpy's iterator allocates for one ufunc call that broadcasts or reads
    a strided view, one of ``np.getbufsize()`` floats for each of three
    operands; in Python ints, which cannot overflow.
    """
    period, modes = class_layout(n, blocks)
    s, nz = len(blocks), n // 2 + 1
    grid = 16 * period * period * (period // 2 + 1)  # a complex class-grid array
    if modes:  # L = N: a block's amplitude and two weighted copies; |column|^2 and a temporary
        width, factor = 1, s * grid
        build = factor + 40 * min(_BLOCK_SLABS, n) * n * nz + grid
    else:  # a block's s^2 and cutoff mask, y and its product term; Cov K; the factoring
        width, factor = s, s * (s + 1) // 2 * grid
        build = min(_BLOCK_SLABS, nz) * nz * (9 * nz + 32 * period) + factor + (s + 4) * grid
    # the normals, class sums and product term; at the largest nb, the (nb, nb, nb) fold,
    # its completion and the three float arrays of its squares and their sum
    draw = factor + (width + 2) * grid + 56 * max(blocks) ** 3
    buffers = 3 * 8 * np.getbufsize()
    return 8 * draws * (s + 2) + max(build, draw) + buffers  # table, two statistics columns


@frozen_record
class ClassLaw:
    """The joint law of one draw's alias-class sums, fixed for a run.

    For each class r of the law's grid, scale a's sum is sum_j
    columns[a][j, r] z_j(r), with z_j(r) independent complex normals of
    E|z|^2 = 1, shared by the scales.  On the mode route, at L = N, each
    scale has one column, (1, L, L, L//2 + 1): its modes' s_k W(k).  A
    Cholesky factor's are row a of the lower factor, its a + 1 columns
    j <= a, one slice of the packed array ``class_covariance`` is factored
    in.
    """

    blocks: tuple[int, ...]  # nb per scale, the classes each scale's draw folds into
    columns: tuple[np.ndarray, ...]  # per scale, its (width, L, L, L//2 + 1) complex columns
    mean_squares: np.ndarray  # exact ensemble mean square per scale, 2 sum_r Cov_r[a, a]


def class_law(spec: LatticeSpec, plans) -> ClassLaw:
    """The factor of the class sums' covariance, and the exact mean squares it gives.

    Where L = N, so that each class is one mode, the factor is that
    mode's s_k W(k), one column a scale; otherwise it is the semidefinite
    Cholesky factor of ``class_covariance``, built in its packed array.
    ``class_layout`` picks the route.  Either route computes the spectrum
    a block of x-slabs at a time, so sigma is never built whole.
    """
    blocks = tuple(p.blocks for p in plans)
    if class_layout(spec.points_per_axis, blocks)[1]:
        factor = _mode_columns(spec, plans)
        sq = np.empty(factor.shape[1:])  # one scale's |f|^2, beside one temporary
        power = [np.sum(np.add(np.square(f.real, out=sq), f.imag**2, out=sq)) for f in factor]
        return ClassLaw(blocks, tuple(factor), 2.0 * np.array(power))
    cov = class_covariance(spec, plans)  # row a: the entries (a, 0..a)
    rows = tuple(cov[a * (a + 1) // 2 : (a + 1) * (a + 2) // 2] for a in range(len(plans)))
    diagonal = np.array([row[a].real.sum() for a, row in enumerate(rows)])
    _factor_in_place(rows)
    return ClassLaw(blocks, rows, 2.0 * diagonal)


def class_covariance(spec: LatticeSpec, plans) -> np.ndarray:
    """Cov K_r[a, b] for b <= a on the one-sided class grid, packed: (S(S + 1)/2, L, L, L//2 + 1).

    Cov K_r[a, b] = C_r[a, b] + conj C_-r[a, b], with C_r the class sum of
    s_k^2 W_a(k) conj W_b(k) over the half layout's k = r (mod L), s_k
    sigma_k times sqrt(1/2) on its kz = 0 and N/2 planes.  That is the sum
    of sigma_k^2 W_a(k) conj W_b(k) over the whole lattice's k = r; it is
    kept for rz = 0..L//2, times 1/2 on the self-conjugate planes rz = 0
    and, for even L, L/2, which store both members of a pair.  The pair
    (a, b) is at a(a + 1)/2 + b, so row a is one slice.  W_a(k) = W_a(kx)
    W_a(ky) W_a(kz) is scale a's window transform, and P = W_a conj W_b
    has P(-k) = conj P(k) on each axis.  s_k^2 is computed a block of
    x-slabs at a time, for kx and ky = 0..N/2 alone, where it is even.

    For each pair of scales, a block's s^2 is folded along its ky, which
    are halved at ky = 0 and N/2 like the kz planes: each y-alias in
    increasing order, as two real products, s^2 Re P and s^2 Im P, each
    into its own float fold.  The fold y over every ky is y(ry) +
    conj y(-ry) of those, which is multiplied by P(kz) along the N/2 + 1
    stored kz and folded into c(ry, rz), and the fold over every kz is
    c(r) + conj c(-r), one (L, L//2 + 1) fold per slab.  Each slab's fold goes
    in as soon as it is made: slab x, times P(kx), into class x mod L,
    then for 0 < x < N/2 its mirror, times P(k_{N-x}), into class (N - x)
    mod L.  Slab by slab in increasing x, so a class adds its aliases in
    the order x = 0, 1, N - 1, 2, N - 2, ..., N/2 at any block size.  The
    build holds the packed array, one block of s^2 and two (block, L,
    N/2 + 1) complex-sized buffers, and no array of N^3 / 2 values.
    """
    n = spec.points_per_axis
    half = n // 2 + 1  # the stored kz; also the kx and ky = 0..N/2 whose s^2 is computed
    period = math.lcm(*(p.blocks for p in plans))
    minus = -np.arange(period) % period  # the class -r of each r along an axis
    pairs = [plans[a].transform * np.conj(plans[b].transform)
             for a in range(len(plans)) for b in range(a + 1)]
    cov = np.zeros((len(pairs), period, period, period // 2 + 1), dtype=np.complex128)
    folds = np.empty((2, min(_BLOCK_SLABS, half), period, half))  # of s^2 Re P and s^2 Im P
    y_buf = np.empty(folds.shape[1:], dtype=np.complex128)  # an alias's products, then y
    edges = slice(None, None, n // 2)  # k = 0 and N/2 along an axis, each its own -k
    for lo in range(0, half, _BLOCK_SLABS):
        hi = min(lo + _BLOCK_SLABS, half)
        power = _slab_std(spec, lo, hi, half)
        np.square(power, out=power)
        power[:, edges] *= 0.5
        power[:, :, edges] *= 0.5
        fold, y = folds[:, : hi - lo], y_buf[: hi - lo]
        products = y.reshape(-1).view(np.float64).reshape(fold.shape)
        for p, weight in enumerate(pairs):
            parts = np.stack((weight.real[:half], weight.imag[:half]))[:, None, :, None]
            # y's aliases one at a time, in increasing order, as ``_fold`` adds them
            np.multiply(power[:, :period], parts[:, :, :period], out=fold[:, :, :half])
            fold[:, :, half:] = 0.0  # classes of no ky, where L > N/2 + 1
            for y0 in range(period, half, period):
                ys = min(period, half - y0)
                fold[:, :, :ys] += np.multiply(power[:, y0 : y0 + ys], parts[:, :, y0 : y0 + ys],
                                               out=products[:, :, :ys])
            # every ky: y(ry) + conj y(-ry), where -ry is 0 for 0 and L - ry for the rest
            re, im = fold
            np.add(re[:, 1:], re[:, :0:-1], out=y.real[:, 1:])
            np.subtract(im[:, 1:], im[:, :0:-1], out=y.imag[:, 1:])
            np.add(re[:, 0], re[:, 0], out=y.real[:, 0])
            y.imag[:, 0] = 0.0
            yz = _fold(np.multiply(y, weight[None, None, :half], out=y), period, (2,))
            whole = yz[:, :, : period // 2 + 1]
            whole += np.conjugate(yz[:, minus[:, None], minus[: period // 2 + 1]])  # every kz
            # values first on y and z, the weight first on x: numpy's SIMD complex
            # multiply can round a * b and b * a apart, and the goldens pin these bits
            for x in range(lo, hi):
                cov[p, x % period] += weight[x] * whole[x - lo]
                if 0 < x < n // 2:  # slab N - x has the s^2 of slab x
                    cov[p, (n - x) % period] += weight[n - x] * whole[x - lo]
        del power  # before the next block's s^2 is built, not after
    cov[..., [0, period // 2] if period % 2 == 0 else [0]] *= 0.5
    return cov


def _factor_in_place(rows) -> None:
    """Overwrite each class's covariance with a lower factor F_r, F_r F_r^H = Cov_r.

    ``rows`` are the packed rows of ``class_covariance``: rows[a][b] is
    entry (a, b), b <= a, and becomes F_r[a, b].  Every class at once, in
    elementwise numpy with loops over the scales only.  Each class is
    scaled to its correlation matrix first, dividing entry (a, b) by
    sqrt(Cov_r[a, a]) and by sqrt(Cov_r[b, b]) one at a time:
    |Cov_r[a, b]| <= sqrt(Cov_r[a, a] Cov_r[b, b]) bounds each quotient,
    whatever the size of the diagonal entries.  A pivot at or below
    ``_PIVOT_FLOOR`` leaves its column zero, so a rank-deficient class (the
    tophat's transform has exact zeros) gets a semidefinite factor; a
    diagonal entry of 0 is such a pivot, and the scale it restores at the
    end zeroes its row.
    """
    s = len(rows)
    scale = np.sqrt(np.stack([row[a].real for a, row in enumerate(rows)]))
    divisor = np.where(scale > 0, scale, 1.0)
    for a, row in enumerate(rows):
        row /= divisor[a]
        row /= divisor[: a + 1]
    for j in range(s):
        pivot = rows[j][j].real.copy()
        for k in range(j):
            pivot -= rows[j][k].real ** 2 + rows[j][k].imag ** 2
        live = pivot > _PIVOT_FLOOR
        root = np.sqrt(np.where(live, pivot, 1.0))
        rows[j][j] = np.where(live, root, 0.0)
        for i in range(j + 1, s):
            for k in range(j):
                rows[i][j] -= rows[i][k] * np.conj(rows[j][k])
            rows[i][j] = np.where(live, rows[i][j] / root, 0.0)
    for a, row in enumerate(rows):
        row *= scale[a]


def _mode_columns(spec: LatticeSpec, plans) -> np.ndarray:
    """The half layout's modes as the factor's columns s_k W(k), shape (S, 1, N, N, N/2 + 1).

    The mode route's factor, at L = N, where the half layout is the class
    grid and each class one mode.  Filled a block of x-slabs at a time in
    one reused amplitude buffer, each scale's column as s_k W(kx), then
    times W(ky), then times W(kz).
    """
    n = spec.points_per_axis
    nz = n // 2 + 1
    factor = np.empty((len(plans), 1, n, n, nz), np.complex128)
    amplitude = np.empty((min(_BLOCK_SLABS, n), n, nz))
    for lo in range(0, n, _BLOCK_SLABS):
        hi = min(lo + _BLOCK_SLABS, n)
        block = amplitude[: hi - lo]
        block[...] = _slab_std(spec, lo, hi)
        block[:, :, :: n // 2] *= math.sqrt(0.5)
        for plan, out in zip(plans, factor):
            w = plan.transform
            weighted = block * w[lo:hi, None, None]
            weighted *= w[None, :, None]
            weighted *= w[None, None, :nz]
            out[0, lo:hi] = weighted
    return factor


def draw_mean_squares(law: ClassLaw, seed) -> list[float]:
    """One realization's mean square of the cube averages at each of the law's scales.

    Draws the class sums from ``law``: one ``standard_normal`` call fills
    the complex normals z_j(r), scaled by sqrt(1/2), and each scale's sums
    are z times its factor columns, summed over its columns in increasing
    j, so one scale's sums are held at a time.  Each scale folds its sums
    from L down to its nb classes, which is the fold F of one-sided
    amplitudes: the modes' B(k), whose coefficients are B(k) + conj B(-k),
    on the mode route, and on the Cholesky route the J(r) of K(r) = J(r) +
    conj J(-r) on the class grid's rz = 0..L/2.  A real window has W(-k) =
    conj W(k), so either way G(q) = F(q) + conj F(-q), and by Parseval the
    mean square of the cube averages is sum_q |G(q)|^2.
    Deterministic in (law, seed); seed may be an int or a numpy
    SeedSequence.  Every contraction is a fixed-order sum, so no FFT or
    BLAS call is made.
    """
    grid = law.columns[0].shape[1:]
    normals = np.empty((max(len(c) for c in law.columns), *grid), dtype=np.complex128)
    parts = normals.view(np.float64)  # each (re, im) pair read as one normal
    default_rng(seed).standard_normal(out=parts)
    parts *= math.sqrt(0.5)
    sums = np.empty(grid, dtype=np.complex128)
    term = np.empty_like(sums) if len(normals) > 1 else None
    out = []
    for nb, columns in zip(law.blocks, law.columns):
        np.multiply(columns[0], normals[0], out=sums)
        for j in range(1, len(columns)):
            sums += np.multiply(columns[j], normals[j], out=term)
        g = _complete(_fold(sums, nb, (0, 1, 2)))
        out.append(float(np.sum(g.real**2 + g.imag**2)))
    return out


def _complete(folded: np.ndarray) -> np.ndarray:
    """G(q) = F(q) + conj F(-q), built in the array of the reflection."""
    completed = _reflect(folded)
    completed += folded
    return completed


@frozen_record
class ScalingFit:
    exponent: float
    amplitude: float
    r_squared: float
    stderr_exponent: float


def fit_scaling(scales, rms, kappa: float = 1.0, box: float = 1.0) -> ScalingFit:
    """Ordinary least squares of log(rms) on log(scale).

    For a fit at box 1 and kappa 1, ``kappa`` and ``box`` give the amplitude
    in a box's units: its RMS at scale l is sqrt(kappa) / L^2 times the
    lattice RMS at l / L, so A = exp(intercept + ln(kappa) / 2 - (2 + p) ln L).
    Its log is checked before the exp, and an A that is not a normal float
    raises the ``DomainError`` of every other reported value.  The other
    fields do not depend on them.
    """
    n = len(scales)
    if n < 3:
        raise DomainError(f"need at least 3 scales to fit a power law, got {n}")
    x = np.log(np.asarray(scales))
    y = np.log(np.asarray(rms))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    log_amplitude = intercept + 0.5 * math.log(kappa) - (2.0 + slope) * math.log(box)
    if log_amplitude > _LOG_FLOAT_MAX:  # past the largest float, where math.exp overflows
        raise _outside_the_floats(f"exp({log_amplitude!r})")
    return ScalingFit(
        exponent=slope,
        amplitude=_reported(1.0, math.exp(log_amplitude)),
        r_squared=r_squared,
        stderr_exponent=stderr,
    )


def _z_score(mean_squares: np.ndarray, exact: float) -> float | None:
    """(pooled mean square - exact) / its standard error, None if that error is 0 or undefined.

    Taken on the mean squares over their exact mean, which are of order 1,
    so squaring them cannot overflow; both are in lattice units, so the
    score is the same at every kappa and box.
    """
    if len(mean_squares) < 2 or not exact > 0:
        return None
    ratio = mean_squares / exact
    spread = float(np.std(ratio, ddof=1))
    return (float(np.mean(ratio)) - 1.0) * math.sqrt(len(ratio)) / spread if spread > 0 else None


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # whose exp is still a float


def _outside_the_floats(value: str) -> DomainError:
    """The one refusal of a reported value, ``value`` as the message shows it."""
    return DomainError(f"kappa and box put a result at {value}, outside the normal floats")


def _reported(lattice: float, value: float) -> float:
    """``value``, refused unless it is a normal float, or 0 where its ``lattice`` value is."""
    if lattice and not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise _outside_the_floats(repr(value))
    return value


def _in_box(spec: LatticeSpec, values) -> tuple[float, ...]:
    """Lattice RMS-like ``values`` times sqrt(kappa) / L^2, each a ``_reported`` float.

    Multiplied one factor at a time: the lattice values are well inside the
    float range, so no intermediate leaves it unless the result does.
    """
    root_kappa, box = math.sqrt(spec.spectrum_normalization), spec.box_size
    return tuple(_reported(v, v * root_kappa / box / box) for v in values)


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
    the draws beyond that table.  A run whose peak (``_run_bytes``: the
    law's build, or its factor with one draw, and the table) exceeds
    physical memory is refused before any array is built.  Everything up
    to the fit is computed at box 1 and kappa 1, on the lattice scales m/N,
    and ``_in_box`` then puts the rms, stderr and exact RMS in the box's
    units.  A reported value, the amplitude too, that is not a normal float
    where its lattice value is not 0 raises ``DomainError``.
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
    n = spec.points_per_axis
    cells = [_cells_for_scale(spec, s) for s in ordered]
    for s, m in zip(ordered, cells):
        if 2 * m > n:
            raise DomainError(f"scale {s} exceeds half the box (the whole-box mean is pinned to 0)")
    need, memory = _run_bytes(n, [n // m for m in cells], draws), physical_memory_bytes()
    if need > memory:
        raise DomainError(
            f"{draws} draws at scales of {cells} cells on a {n}^3 grid need {need} bytes for "
            f"the class law, a draw and the table, over the {memory:.3g} bytes of physical memory"
        )
    plans = scale_plans(n, cells, window)
    law = class_law(spec, plans)
    table = np.empty((draws, len(ordered)))
    for i in range(draws):
        table[i] = draw_mean_squares(law, SeedSequence(seed, spawn_key=(i,)))
    per_scale_ms = table.T  # one row of per-draw mean squares per scale
    rms = [float(np.sqrt(np.mean(ms))) for ms in per_scale_ms]
    stderr = [math.sqrt(float(np.var(np.sqrt(ms), ddof=1)) / draws) if draws > 1 else 0.0
              for ms in per_scale_ms]
    exact_rms = [math.sqrt(e) for e in law.mean_squares]
    lattice_scales = [m / n for m in cells]
    kappa, box = spec.spectrum_normalization, spec.box_size
    fit = fit_scaling(lattice_scales, rms, kappa, box) if len(cells) >= 3 else None
    return CoarseGrainReport(
        scales=tuple(ordered),
        rms=_in_box(spec, rms),
        draws=draws,
        stderr=_in_box(spec, stderr),
        exact_rms=_in_box(spec, exact_rms),
        z_scores=tuple(_z_score(ms, e) for ms, e in zip(per_scale_ms, law.mean_squares)),
        exact_exponent=fit_scaling(lattice_scales, exact_rms).exponent if fit else None,
    ), fit
