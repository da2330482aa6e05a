"""Spectral-lattice laboratory for Dirac sea vacua in 1+1 dimensions.

The package builds the free Dirac mode basis on a periodic grid, realizes
the bare / filled-sea / finite-band vacua, and provides three mutually
checking computational routes: exact Fock-space algebra at small mode
counts, Wick mode sums for commutator kernels and linear response, and
direct Slater-determinant time evolution under external potentials.
Names are imported from their modules (``from diracsea.lattice import
build_basis``); the package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
