"""Single harmonic-oscillator ground state: amplitude, width, sampling.

Works on plain positive reals in whatever unit system the caller uses;
hbar is passed in explicitly (typically from the active ConstantsTable).
The exact Gaussian variance hbar/(2 m omega) is the precise internal
quantity; ``fluctuation_width`` keeps the conventional order-of-magnitude
combination sqrt(hbar/(m omega)), which is larger by sqrt(2).  Width and
variance are plain ``math``; numpy is imported only by the functions that
compute with arrays, so a run that samples nothing never loads it.  The
sampling holds no more than a leaf of its draws at a time.
"""

from __future__ import annotations

import math

from .errors import DomainError, frozen_record, normal_float

QUADRATURE_NODES = 2**14 + 1  # trapezoid node count
QUADRATURE_HALF_WIDTH = 12.0  # support half-width in units of the Gaussian sigma
MAX_SAMPLES = 2**53  # above it a sample count is not an exact float64
_LEAF = 2**13  # draws held at once by sample_moments: 64 KiB, under glibc's mmap threshold


@frozen_record
class OscillatorParams:
    m: float
    omega: float
    hbar: float

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0):
                raise DomainError(f"oscillator parameter {name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, normal_float(float(v), f"oscillator parameter {name}"))
        normal_float(self.m * self.omega, "m*omega")
        normal_float(position_variance(self), "the variance hbar/(2 m omega)")


def ground_state_psi(x, p: OscillatorParams):
    """Ground-state amplitude (m omega / pi hbar)^(1/4) exp(-m omega x^2 / 2 hbar).

    Accepts a scalar or array x; strictly positive and even in x.
    """
    import numpy as np

    a = p.m * p.omega / p.hbar
    return (a / math.pi) ** 0.25 * np.exp(-0.5 * a * np.asarray(x, dtype=float) ** 2)


def fluctuation_width(p: OscillatorParams) -> float:
    """sqrt(hbar / (m omega)), the conventional fluctuation extent."""
    return math.sqrt(p.hbar / (p.m * p.omega))


def position_variance(p: OscillatorParams) -> float:
    """Exact variance of |psi|^2: hbar / (2 m omega) = fluctuation_width^2 / 2."""
    return p.hbar / (2.0 * p.m * p.omega)


def _pairwise_sum(n: int, leaf_sum):
    """The sum of n values as numpy's add.reduce takes it over a contiguous float64 array.

    numpy halves a run of more than 128 values at n // 2 rounded down to a
    multiple of 8 and adds the halves' sums.  Splitting the same way down to
    runs of at most _LEAF, and summing each with ``leaf_sum(k)`` over the
    next k values in order, gives the same float bit for bit.
    """
    if n <= _LEAF:
        return leaf_sum(n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(half, leaf_sum) + _pairwise_sum(n - half, leaf_sum)


def sample_moments(p: OscillatorParams, seed: int | None, n: int) -> tuple[float, float]:
    """Mean and unbiased variance of n draws from |psi|^2 (zero-mean Gaussian).

    Bit for bit ``x.mean()`` and ``x.var(ddof=1)`` of the draws
    ``x = default_rng(seed).normal(0, sigma, n)``, with at most _LEAF of
    them held at once: the stream is drawn twice, in _LEAF-sized pieces,
    once for the sum and once for the squared deviations from the mean,
    each summed in numpy's pairwise order.  Both passes are seeded from one
    ``SeedSequence(seed)``, so they read the same stream even for a seed
    of None, whose OS entropy is drawn once; a ``Generator``, whose stream
    a second pass could only continue, raises TypeError.  The passes hold
    numpy's raising float-error state, so a draw or square that overflows
    raises ``FloatingPointError``, not a warning.
    """
    if not 2 <= n <= MAX_SAMPLES:
        raise DomainError(
            f"sample count must be from 2 to 2**53, where it and n - 1 are exact "
            f"float divisors, got {n}"
        )
    import numpy as np

    sigma = math.sqrt(position_variance(p))
    seeds = np.random.SeedSequence(seed)  # an int seed's stream, bit for bit

    def summed(leaf_sum):  # one pass over the stream, drawn afresh from the seed
        rng = np.random.default_rng(seeds)
        return float(_pairwise_sum(n, lambda k: leaf_sum(rng.normal(0.0, sigma, size=k))))

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        mean = summed(np.add.reduce) / n
        squares = summed(lambda x: np.add.reduce(np.square(np.subtract(x, mean, out=x), out=x)))
    return mean, normal_float(squares / (n - 1), "the sample variance")


def normalization_quadrature(p: OscillatorParams) -> float:
    """Trapezoid integral of |psi|^2 over +-QUADRATURE_HALF_WIDTH sigma.

    Should equal 1 to ~1e-10 for any valid parameters; used as a
    self-consistency check of the analytic normalization.  The trapezoid
    rule converges exponentially for a Gaussian, and is written out
    because ``np.trapezoid`` needs numpy >= 2.
    """
    import numpy as np

    half = QUADRATURE_HALF_WIDTH * math.sqrt(position_variance(p))
    x, h = np.linspace(-half, half, QUADRATURE_NODES, retstep=True)
    y = ground_state_psi(x, p) ** 2
    return float(h * (y.sum() - 0.5 * (y[0] + y[-1])))
