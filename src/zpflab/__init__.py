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

Importing the package loads none of them.  The names below are the ones
the command line's parser and manifest need and ``units`` serves: kept
here, so building the parser loads no ``units`` and with it no
``fractions`` or ``decimal``.
"""

__version__ = "0.1.0"

SYSTEMS = ("gaussian", "si", "natural")  # the unit systems
SNAPSHOT = "codata2018"  # the pinned constants snapshot, data/<SNAPSHOT>.txt
PARTICLES = {"electron": "m_e", "proton": "m_p"}  # the snapshot's mass entry for each particle
