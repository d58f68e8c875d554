"""qmforms: exact arithmetic for quasimodular q-expansions.

Subpackages by responsibility:

- ``qseries``   exact truncated Fourier expansions (the arithmetic core)
- ``forms``     classical generators: Eisenstein series, the discriminant,
                derivations, theta-type level-2 forms, composite forms
- ``extremal``  maximal-vanishing families at depths 1 and 2, level-2
                difference families, component decompositions
- ``identities`` registry of algebraic identities, verified to exact zero
- ``lambert``   monotonicity certificates for Lambert-type blocks
- ``positivity`` coefficient sign reports, densities, ratio infima
- ``numeric``   high-precision evaluation on the imaginary axis, scans
- ``cli``       the ``qmf`` command-line tool
"""

from .qseries import FourierSeries, lambert_block

__all__ = ["FourierSeries", "lambert_block"]
__version__ = "0.1.0"
