"""The oscillator's draws held whole, the oracle of ``oscillator.sample_moments``.

``sample_positions`` returns every one of the n draws as one array, as the
oscillator's sampling did before ``sample_moments`` streamed its moments.
The array's ``mean()`` and ``var(ddof=1)`` are what the streamed moments must
equal bit for bit.
"""

import math

from numpy.random import default_rng

from zpflab.oscillator import OscillatorParams, position_variance


def sample_positions(p: OscillatorParams, seed: int, n: int):
    """n deterministic draws from |psi|^2 (zero-mean Gaussian)."""
    rng = default_rng(seed)
    return rng.normal(0.0, math.sqrt(position_variance(p)), size=int(n))
