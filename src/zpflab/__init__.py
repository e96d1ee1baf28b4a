"""zpflab: a numerical laboratory for zero-point-field estimates.

Modules
-------
units       dimensions, quantities, pinned CODATA-2018 constants
oscillator  harmonic-oscillator ground state and sampling
field       spectral synthesis and coarse-grain scaling of the field proxy
casimir     closed-form force and regularized mode-sum coefficient
lamb        jitter-smeared potential and the hydrogen s-level shift
coil        induced tap-current estimates, exact vs charge-substituted
cli         the ``zpflab`` command-line front end with run manifests
"""

__version__ = "0.1.0"

from .units import (  # noqa: F401
    ConstantsTable,
    Dimension,
    Quantity,
    compton_time,
    constants_for,
    particle_mass,
)
