"""Rank-1 and rank-2 zeta functions over the lattice moduli spaces.

The rank-1 function integrates e^{h^0} - 1 = theta(V^2) - 1 over the scaling
moduli {V Z} and lands exactly on the completed Riemann zeta; the computation
here folds the integral to [1, inf) with the theta inversion
theta(1/u) = sqrt(u) theta(u) and runs its own Gauss-Legendre panels, so the
agreement with xi_completed is a genuine two-route cross-check, not an
identity of implementations.

The rank-2 function is the height-1 truncated integral in closed form,
xi(2s)/(s-1) - xi(2s-1)/s, with a quadrature twin and a contour-based residue
extractor for the pole/volume bookkeeping.  Both simple poles are computed;
they come out opposite in sign (+-(pi/6 - 1/2)), and the ratio of the s = 1
residue to the hyperbolic area of the height-1 domain is 1/2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ContourFailure, ConvergenceRegion, LatzetaError, QuadratureBudget
from .eis2 import closed_form_IT, geo_truncated_integral_numeric
from .numerics import DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "zeta_rank1_numeric",
    "zeta_rank2",
    "zeta_rank2_numeric",
    "residue_at",
    "volume_d_T",
]


def _theta_minus_one(v: np.ndarray, abs_tol: float) -> np.ndarray:
    # theta(V^2) - 1 = 2 sum_{n>=1} exp(-pi n^2 V^2) for V >= 1
    n_max = 1
    while math.exp(-math.pi * (n_max + 1) ** 2) > abs_tol * 1e-3:
        n_max += 1
    acc = np.zeros_like(v)
    for n in range(1, n_max + 1):
        acc += np.exp(-math.pi * n * n * v * v)
    return 2.0 * acc


def zeta_rank1_numeric(
    s: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Moduli integral of theta(V^2) - 1 against V^s dV/V, folded to [1, inf).

    After folding: int_1^inf (theta(V^2)-1)(V^{s-1} + V^{-s}) dV
                   + 1/(s-1) - 1/s,  for Re(s) > 1 + margin.
    """
    s = complex(s)
    if s.real <= 1.0 + config.series_cutoff_margin:
        raise ConvergenceRegion(
            f"rank-1 moduli integral needs Re(s) > {1.0 + config.series_cutoff_margin}"
        )
    upper = math.sqrt((-math.log(config.abs_tol * 1e-3) / math.pi)) + 1.0
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def level(panels: int) -> complex:
        edges = np.linspace(1.0, upper, panels + 1)
        total = 0.0 + 0.0j
        for a, b in zip(edges, edges[1:]):
            h = 0.5 * (b - a)
            c = 0.5 * (b + a)
            v = c + h * nodes
            f = _theta_minus_one(v, config.abs_tol) * (
                v ** complex(s - 1) + v ** complex(-s)
            )
            total += h * complex(np.sum(weights * f))
        return total

    prev = level(2)
    panels = 2
    for _ in range(config.quadrature_depth):
        panels *= 2
        cur = level(panels)
        if abs(cur - prev) < config.abs_tol / 10.0:
            return cur + 1.0 / (s - 1.0) - 1.0 / s
        prev = cur
    raise QuadratureBudget("rank-1 moduli integral did not stabilize")


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


def _volume_quadrature(T: float, config: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Independent dx dy / y^2 quadrature of the same region (for checks)."""
    if T < 1.0:
        raise ValueError("height must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = 0.0 + 0.5 * (nodes + 1.0) * 0.5  # [0, 1/2], doubled by symmetry
    total = 0.0
    for x, wx in zip(xs, weights):
        y0 = math.sqrt(1.0 - x * x)
        # int_{y0}^{T} y^{-2} dy = 1/y0 - 1/T
        total += wx * 0.25 * (1.0 / y0 - 1.0 / T)
    return 2.0 * total
