"""Lattice cohomology, stability polygons, Eisenstein series, zeta integrals.

Subpackages by theme:

- numerics: completed zeta, K-Bessel, divisor sums
- lattice: exact rational lattices, theta counts, duality, short vectors
- stability: slopes, canonical polygons and filtrations, truncation indicators
- eis2: SL2 Eisenstein series, truncations, the cusp-region integral identity
- zeta: rank-1 and rank-2 zeta functions, residues, volume cross-checks
- eis3: SL3 coordinates, coset-sum Eisenstein series, constant-term harness
- tannaka: exact parabolic-bundle tensor calculus and the S3 fusion table
- cli / verify: command-line surface and the acceptance-check runner
"""

__version__ = "0.1.0"
