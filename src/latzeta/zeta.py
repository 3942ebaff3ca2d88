"""Rank-1 and rank-2 zeta functions over the lattice moduli spaces.

The rank-1 function integrates e^{h^0} - 1 = theta(V^2) - 1 over the scaling
moduli {V Z} and lands exactly on the completed Riemann zeta.  With t = V^2
it is the Epstein zeta Lambda_Z(s/2) / 2 of lattice._epstein_split, while
xi_completed sums its own omega on its own panels, so the agreement is a
genuine two-route cross-check, not an identity of implementations.

The rank-2 function is the height-1 truncated integral in closed form,
xi(2s)/(s-1) - xi(2s-1)/s, with a quadrature twin and a contour-based residue
extractor for the pole/volume bookkeeping.  Both simple poles are computed;
they come out opposite in sign (+-(pi/6 - 1/2)), and the ratio of the s = 1
residue to the hyperbolic area of the height-1 domain is 1/2.
"""

from __future__ import annotations

import cmath
import math

from .errors import ContourFailure, ConvergenceRegion, LatzetaError
from .eis2 import closed_form_IT, geo_truncated_integral_numeric
from .lattice import Lattice, _epstein_split
from .numerics import DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "zeta_rank1_numeric",
    "zeta_rank2",
    "zeta_rank2_numeric",
    "residue_at",
    "volume_d_T",
]


_Z = Lattice.from_basis([[1]])


def zeta_rank1_numeric(
    s: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Moduli integral of theta(V^2) - 1 against V^s dV/V, for Re(s) > 1 + margin.

    With t = V^2 it is (1/2) int_0^inf (theta_Z(t) - 1) t^{s/2 - 1} dt
    = Lambda_Z(s/2) / 2, evaluated by lattice._epstein_split.
    """
    s = complex(s)
    if s.real <= 1.0 + config.series_cutoff_margin:
        raise ConvergenceRegion(
            f"rank-1 moduli integral needs Re(s) > {1.0 + config.series_cutoff_margin}"
        )
    return _epstein_split(_Z, s / 2.0, config) / 2.0


def zeta_rank2(s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Closed form xi(2s)/(s-1) - xi(2s-1)/s (the height-1 degeneration)."""
    return closed_form_IT(complex(s), 1.0, config)


def zeta_rank2_numeric(s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Height-1 fundamental-domain quadrature of the rank-2 series."""
    return geo_truncated_integral_numeric(complex(s), 1.0, config)


def residue_at(f, s0: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """(1/2 pi i) contour integral of f around s0: radius 0.01, 32 nodes.

    Exact for simple poles up to the trapezoid error, which for a function
    meromorphic in a neighborhood decays geometrically in the node count.
    """
    s0 = complex(s0)
    radius = 0.01
    n_nodes = 32
    acc = 0.0 + 0.0j
    for k in range(n_nodes):
        w = radius * cmath.exp(2j * math.pi * k / n_nodes)
        try:
            acc += f(s0 + w) * w
        except (LatzetaError, ArithmeticError, ValueError) as exc:
            raise ContourFailure(
                f"evaluation failed at contour node {s0 + w}: {exc}"
            ) from exc
    return acc / n_nodes


def volume_d_T(T: float) -> float:
    """Hyperbolic area of the height-T cut of the fundamental domain."""
    if T < 1.0:
        raise ValueError("height must be >= 1")
    return math.pi / 3.0 - 1.0 / T


