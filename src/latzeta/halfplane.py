"""Upper half-plane points and reduction to the standard fundamental domain.

D = {|Re z| <= 1/2, |z| >= 1}, with the boundary identified; representatives
are canonicalized to the x >= 0 half of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonConvergence

__all__ = ["UpperHalfPoint", "reduce_sl2"]


@dataclass(frozen=True)
class UpperHalfPoint:
    """z = x + iy with y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise ValueError("upper half plane needs y > 0")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def reduce_sl2(z: UpperHalfPoint, max_iter: int = 256):
    """Reduce z into D; returns (z', gamma) with z' = gamma z, gamma in SL2(Z).

    The translate/invert loop strictly increases the imaginary part at every
    inversion, so it terminates for every valid input; the iteration cap only
    guards against NaN-style garbage.
    """
    w = complex(z.x, z.y)
    gamma = ((1, 0), (0, 1))
    for _ in range(max_iter):
        shift = round(w.real)
        if shift:
            w -= shift
            gamma = ((gamma[0][0] - shift * gamma[1][0], gamma[0][1] - shift * gamma[1][1]), gamma[1])
        norm2 = w.real * w.real + w.imag * w.imag
        if norm2 < 1.0 - 1e-15:
            w = -1.0 / w
            gamma = ((-gamma[1][0], -gamma[1][1]), (gamma[0][0], gamma[0][1]))
            continue
        # inside D; canonicalize boundary to the x >= 0 side
        if w.real < 0.0 and abs(w.real + 0.5) <= 1e-14:
            w += 1.0
            gamma = ((gamma[0][0] + gamma[1][0], gamma[0][1] + gamma[1][1]), gamma[1])
        if w.real < 0.0 and abs(norm2 - 1.0) <= 4e-15:
            w = -1.0 / w
            gamma = ((-gamma[1][0], -gamma[1][1]), (gamma[0][0], gamma[0][1]))
        return UpperHalfPoint(w.real, w.imag), gamma
    raise NonConvergence("sl2 reduction exceeded its iteration budget")
