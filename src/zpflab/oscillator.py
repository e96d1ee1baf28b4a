"""Single harmonic-oscillator ground state: amplitude, width, sampling.

Works on plain positive reals in whatever unit system the caller uses;
hbar is passed in explicitly (typically from the active ConstantsTable).
The exact Gaussian variance hbar/(2 m omega) is the precise internal
quantity; ``fluctuation_width`` keeps the conventional order-of-magnitude
combination sqrt(hbar/(m omega)), which is larger by sqrt(2).  Width and
variance are plain ``math``; numpy is imported only by the functions that
make arrays, so a run that samples nothing never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, physical_memory_bytes

QUADRATURE_NODES = 2**14 + 1  # trapezoid node count
QUADRATURE_HALF_WIDTH = 12.0  # support half-width in units of the Gaussian sigma


@dataclass(frozen=True)
class OscillatorParams:
    m: float
    omega: float
    hbar: float

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"oscillator parameter {name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not 0.0 < self.m * self.omega < math.inf:
            raise DomainError(f"m*omega must be finite and > 0, got {self.m * self.omega!r}")


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


def sample_positions(p: OscillatorParams, seed: int, n: int) -> np.ndarray:
    """n deterministic draws from |psi|^2 (zero-mean Gaussian)."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    memory = physical_memory_bytes()
    if 16 * n > memory:  # the draws, and the copy of them that a variance makes
        raise DomainError(
            f"{n} samples and their variance need {16 * n:.3g} bytes, "
            f"more than the {memory:.3g} bytes of physical memory"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(position_variance(p)), size=int(n))


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
