"""The whole spectrum, the per-mode draw, and the class covariance built from sigma.

``mode_std`` builds sigma on the whole half layout in one block, which no
run does: a run computes it a block of x-slabs at a time.  The oracles
below take it as their input.

The per-mode draw, one complex Gaussian per live mode folded into each
scale's aliases, is the route a field draw took before it drew the
alias-class sums from their joint law, kept as the test oracle for that
law.  Each mode k of the half layout (N, N, N/2 + 1) gets the one-sided
amplitude B(k) = s_k xi_k, s_k = sigma_k times sqrt(1/2) on the kz = 0
and N/2 planes, xi_k an independent complex Gaussian with E|xi_k|^2 = 1.
The coefficients B(k) + conj B(-k) then have E|c_k|^2 = sigma_k^2.
``draw_modes`` streams the amplitudes into each scale's x-fold and
``coarse_mean_squares`` folds y and z and returns the energy of the
completed fold, which by Parseval is the mean square of the cube averages.
``class_covariance`` builds the class sums' covariance C on the whole
(L, L, L) class grid from the whole of sigma, every slab folded on its
own: through C_r + conj C_-r, the oracle for ``field.class_covariance``,
which computes each block's spectrum from the wavenumbers for kx and
ky = 0..N/2 only and keeps the one-sided class grid.  ``mode_columns``
likewise weights the whole padded amplitude array at once, the oracle
for ``field._mode_columns``.  ``plans_for`` resolves scales to cells as
``scaling_run`` does, for ``field.scale_plans``.
The oracles fold with ``fold_aliases_by_class``, one alias at a time,
and never with the module's ``field._fold``, which they check.
"""

import math

import numpy as np
from numpy.random import default_rng

from zpflab import field
from zpflab.field import _reflect

# The live normals are drawn a block of _BLOCK_SLABS x-slabs at a time, the
# last block taking what is left.
_BLOCK_SLABS = 8


def plans_for(spec, scales, window):
    """The run's plans for ``scales``, each resolved to its cells as ``scaling_run`` does."""
    cells = [field._cells_for_scale(spec, scale) for scale in scales]
    return field.scale_plans(spec.points_per_axis, cells, window)


def mode_std(spec) -> np.ndarray:
    """Per-mode sigma_k at box 1 and kappa 1, as a run builds it, on the whole half lattice.

    Zero for DC and beyond k_max.
    """
    return field._slab_std(spec, 0, spec.points_per_axis)


def fold_aliases_by_class(values, weights, blocks, axis):
    """sum_j values[j*blocks + q] * weights[j*blocks + q] along ``axis``, for q < blocks.

    Class by class, one alias at a time in increasing j, the order in which
    ``field._fold`` adds them and ``draw_modes`` streams its x-folds.  The
    extent along ``axis`` need not be whole periods: a class sums the
    aliases it has, and one with none is zero.
    """
    n = values.shape[axis]
    zero = np.zeros_like(np.take(values, 0, axis=axis), dtype=np.complex128)
    classes = []
    for q in range(blocks):
        total = zero
        for x in range(q, n, blocks):
            total = total + np.take(values, x, axis=axis) * weights[x]
        classes.append(total)
    return np.stack(classes, axis=axis)


def draw_modes(sigma: np.ndarray, seed, plans) -> list[np.ndarray]:
    """Draw one realization's one-sided amplitudes and return their x-fold for each plan.

    ``sigma`` is ``mode_std(spec)``.  Only the live modes (sigma_k > 0)
    are drawn, in C order of the half layout; the x-slab blocks they are
    drawn in split one stream, so the numbers do not depend on the block
    size.  Deterministic in (sigma, seed); seed may be an int or a numpy
    SeedSequence.  Each block, scaled, goes into one (nb, N, N/2 + 1) fold
    per plan, slab x times W(kx) into class x mod nb, in increasing x.
    """
    n = len(sigma)
    rng = default_rng(seed)
    slabs = min(_BLOCK_SLABS, n)
    block = np.empty((slabs, *sigma.shape[1:]), dtype=np.complex128)
    weighted = np.empty_like(block)
    folded = [np.empty((p.blocks, *sigma.shape[1:]), dtype=np.complex128) for p in plans]
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
    increasing x, the order in which ``fold_aliases_by_class`` sums them.
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


def coarse_mean_squares(folded, plans) -> list[float]:
    """Mean square of the cube averages at each planned scale, from ``draw_modes``'s x-folds.

    y is folded, then the N/2 + 1 stored kz, which leaves the fold F of B;
    the completion G(q) = F(q) + conj F(-q) commutes with every fold, and
    by Parseval the mean square of the cube averages is sum_q |G(q)|^2.
    """
    out = []
    for plan, x_folded in zip(plans, folded):
        y_folded = fold_aliases_by_class(x_folded, plan.transform, plan.blocks, 1)
        f = fold_aliases_by_class(y_folded, plan.transform, plan.blocks, 2)
        g = f + _reflect(f)
        out.append(float(np.sum(g.real**2 + g.imag**2)))
    return out


def class_covariance(sigma: np.ndarray, plans) -> np.ndarray:
    """C_r[a, b] = sum over k = r (mod L) of s_k^2 W_a(k) conj W_b(k), shape (S, S, L, L, L).

    ``sigma`` is ``mode_std(spec)``; s_k is sigma_k, times sqrt(1/2) on the
    kz = 0 and N/2 planes.  Each x-slab of s^2, weighted by P = W_a conj W_b,
    is folded along y, then along the N/2 + 1 stored kz, then added into
    class x mod L, in the slab order x = 0, 1, N - 1, 2, N - 2, ..., N/2:
    one pass over sigma for every pair of scales, each slab folded on its own.
    """
    n = len(sigma)
    period = field.class_layout(n, [p.blocks for p in plans])[0]
    pairs = [
        (a, b, plans[a].transform * np.conj(plans[b].transform))
        for a in range(len(plans))
        for b in range(a, len(plans))
    ]
    cov = np.zeros((len(plans), len(plans), period, period, period), dtype=np.complex128)
    planes = slice(None, None, n // 2)  # kz = 0 and N/2 store both members of a pair
    order = [0] + [x for k in range(1, n // 2) for x in (k, n - k)] + [n // 2]
    for x in order:
        power = np.square(sigma[x : x + 1])
        power[:, :, planes] *= 0.5
        for a, b, weight in pairs:
            y_folded = fold_aliases_by_class(power, weight, period, 1)
            folded = fold_aliases_by_class(y_folded, weight, period, 2)
            cov[a, b, x % period] += weight[x] * folded[0]
    for a, b, _ in pairs:
        if a != b:
            cov[b, a] = np.conj(cov[a, b])
    return cov


def mode_columns(sigma: np.ndarray, plans, period: int, lz: int) -> np.ndarray:
    """Each class's modes k = r + L j as the factor's columns s_k W(k), shape (S, M, L, L, Lz)."""
    n, nz = len(sigma), sigma.shape[2]
    kz = -(-nz // lz) * lz
    amplitude = np.zeros((n, n, kz))
    amplitude[:, :, :nz] = sigma
    amplitude[:, :, : nz : n // 2] *= math.sqrt(0.5)
    reps = n // period
    factor = np.empty((len(plans), reps * reps * (kz // lz), period, period, lz), np.complex128)
    for plan, out in zip(plans, factor):
        w = plan.transform
        weighted = amplitude * w[:, None, None]
        weighted *= w[None, :, None]
        weighted *= w[None, None, :kz]
        by_class = weighted.reshape(reps, period, reps, period, kz // lz, lz)
        out[...] = by_class.transpose(0, 2, 4, 1, 3, 5).reshape(out.shape)
    return factor
