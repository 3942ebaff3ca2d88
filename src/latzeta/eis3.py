"""Minimal-parabolic Eisenstein series on SL(3,Z)\\SL(3,R)/SO(3).

A point of the symmetric space is kept as the upper-triangular representative
R = diag(y1, y2, 1/(y1 y2)) . [[1,x1,x2],[0,1,x3],[0,0,1]], and the two
maximal-parabolic coordinate systems (parabolic_index 1 and 2) are read off R
by exact entry algebra.  The series

    E0(Y; s, t) = sum over cosets of  y(gY)^s u(gY)^t     (index-1 coords)

is evaluated by parametrizing the cosets with pairs (v, w) of primitive
integer vectors, v a bottom row and w orthogonal to it: with W = R R^T each
term equals N1^((t-3s)/2) N2^(-t) where N1 = v W v^T and N2 = w W^{-1} w^T.
The pair table at a given height is Y-independent, so it is cached and reused
across quadrature nodes; sums report an honest convergence estimate (the
difference between the full partial sum and the half-height partial sum)
instead of pretending to an absolute tolerance.

Every constant term is read off one table: the six Weyl images of (s, t)
and the three roots whose xi product is completion_factor.  The
minimal-parabolic constant term is the sum over the orbit; each
maximal-parabolic one groups the orbit in pairs through the completed
rank-2 series (constant terms in stages).  A unipotent-average evaluator
checks them numerically, and the substitution report states how far the
orbit sum moves under each of the five non-identity Weyl maps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceRegion, EnumerationOverflow, PoleProximity
from .halfplane import UpperHalfPoint
from .numerics import DEFAULT_CONFIG, NumericsConfig, pow_pos, xi_completed

__all__ = [
    "SL3Point",
    "LanglandsCoords",
    "SeriesValue",
    "coords",
    "sl3_eisenstein_direct",
    "sl3_completed",
    "completion_factor",
    "constant_term_p0_formula",
    "constant_term_pi_formula",
    "constant_term_numeric",
    "fe_adjudicate",
    "region_membership",
]


@dataclass(frozen=True)
class SL3Point:
    """Symmetric-space point: diag(y1, y2, 1/(y1 y2)) times upper unipotent."""

    y1: float
    y2: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if not (self.y1 > 0 and self.y2 > 0):
            raise ValueError("diagonal entries y1, y2 must be positive")

    def matrix(self) -> np.ndarray:
        y1, y2 = self.y1, self.y2
        return np.array(
            [
                [y1, y1 * self.x1, y1 * self.x2],
                [0.0, y2, y2 * self.x3],
                [0.0, 0.0, 1.0 / (y1 * y2)],
            ]
        )

    def to_json(self) -> dict:
        return {
            "y1": self.y1,
            "y2": self.y2,
            "x1": self.x1,
            "x2": self.x2,
            "x3": self.x3,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SL3Point":
        if not isinstance(payload, dict):
            raise ValueError("point payload must be an object")
        try:
            vals = {k: float(payload[k]) for k in ("y1", "y2", "x1", "x2", "x3")}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad point payload: {exc}") from exc
        return cls(**vals)


@dataclass(frozen=True)
class LanglandsCoords:
    """(y, z, x, t) block coordinates adapted to maximal parabolic 1 or 2."""

    parabolic_index: int
    y: float
    z: UpperHalfPoint
    x: float
    t: float

    def __post_init__(self) -> None:
        if self.parabolic_index not in (1, 2):
            raise ValueError("parabolic_index must be 1 or 2")
        if not self.y > 0:
            raise ValueError("y must be positive")


def coords(Y: SL3Point, i: int) -> LanglandsCoords:
    """Read the index-i block coordinates off the triangular representative.

    Index 1 splits off the lower-right diagonal entry, index 2 the upper-left
    one; in both cases z = v + iu is the shape of the 2x2 block and y is the
    sixth power of the central scaling.
    """
    r = Y.matrix()
    if i == 1:
        u = r[0, 0] / r[1, 1]
        v = r[0, 1] / r[1, 1]
        t = r[1, 2] / r[1, 1]
        x = (r[0, 2] - r[0, 1] * t) / r[0, 0]
        y = r[2, 2] ** -3.0
    elif i == 2:
        u = r[1, 1] / r[2, 2]
        v = r[1, 2] / r[2, 2]
        t = r[0, 1] / r[0, 0]
        x = r[0, 2] / r[0, 0]
        y = r[0, 0] ** -3.0
    else:
        raise ValueError("parabolic index must be 1 or 2")
    return LanglandsCoords(i, y, UpperHalfPoint(v, u), x, t)


def _recompose(c: LanglandsCoords) -> np.ndarray:
    # product of the three factors (2x2 block) . (central torus) . (unipotent)
    u, v = c.z.y, c.z.x
    su = math.sqrt(u)
    alpha = c.y ** (1.0 / 6.0)
    if c.parabolic_index == 1:
        block = np.array([[su, v / su, 0.0], [0.0, 1.0 / su, 0.0], [0.0, 0.0, 1.0]])
        torus = np.diag([alpha, alpha, alpha**-2.0])
        unip = np.array([[1.0, 0.0, c.x], [0.0, 1.0, c.t], [0.0, 0.0, 1.0]])
    else:
        block = np.array([[1.0, 0.0, 0.0], [0.0, su, v / su], [0.0, 0.0, 1.0 / su]])
        torus = np.diag([alpha**-2.0, alpha, alpha])
        unip = np.array([[1.0, c.t, c.x], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return block @ torus @ unip


def _point_from_form(w_form: np.ndarray) -> SL3Point:
    # upper-triangular square root with positive diagonal, via the flipped
    # Cholesky factor: J chol(J W J) J is upper triangular
    flip = w_form[::-1, ::-1]
    low = np.linalg.cholesky(flip)
    r = low[::-1, ::-1]
    return SL3Point(
        y1=r[0, 0],
        y2=r[1, 1],
        x1=r[0, 1] / r[0, 0],
        x2=r[0, 2] / r[0, 0],
        x3=r[1, 2] / r[1, 1],
    )


def apply_gl3(g, Y: SL3Point) -> SL3Point:
    """Left action of g (any real unimodular 3x3) on the symmetric space."""
    g = np.asarray(g, dtype=float)
    r = Y.matrix()
    w_form = (g @ r) @ (g @ r).T
    return _point_from_form(w_form)


# --- coset table -----------------------------------------------------------

_TABLE_CACHE: "OrderedDict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_CACHE_PAIR_CAP = 12_000_000


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _kernel_basis(v: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    # saturated basis of {w : w.v = 0}; cross(b1, b2) = +-v certifies saturation
    a, b, c = v
    if b == 0 and c == 0:
        return np.array([0, 1, 0]), np.array([0, 0, 1])
    d, y0, z0 = _ext_gcd(b, c)
    b1 = np.array([0, c // d, -b // d])
    b2 = np.array([d, -a * y0, -a * z0])
    # Lagrange reduction keeps the coefficient boxes small
    while True:
        n1 = int(b1 @ b1)
        n2 = int(b2 @ b2)
        if n1 > n2:
            b1, b2 = b2, b1
            n1, n2 = n2, n1
        mu = round(Fraction(int(b1 @ b2), n1))
        if mu == 0:
            break
        b2 = b2 - mu * b1
    return b1, b2


def _primitive_v_list(height: int) -> np.ndarray:
    # canonical representatives: first nonzero coordinate positive, gcd 1
    h = height
    rng = np.arange(-h, h + 1)
    aa, bb, cc = np.meshgrid(np.arange(0, h + 1), rng, rng, indexing="ij")
    a = aa.ravel()
    b = bb.ravel()
    c = cc.ravel()
    lead = np.where(a != 0, a, np.where(b != 0, b, c))
    keep = (lead > 0) & (np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c)) == 1)
    return np.stack([a[keep], b[keep], c[keep]], axis=1)


def _pairs_for_v(v_row: np.ndarray, height: int) -> np.ndarray:
    """All canonical primitive w with w.v = 0 and sup-norm <= height."""
    b1, b2 = _kernel_basis((int(v_row[0]), int(v_row[1]), int(v_row[2])))
    area = math.sqrt(float(v_row @ v_row))
    lim = math.sqrt(3.0) * height
    c1_max = int(lim * math.sqrt(float(b2 @ b2)) / area) + 1
    c2_max = int(lim * math.sqrt(float(b1 @ b1)) / area) + 1
    c1 = np.arange(-c1_max, c1_max + 1)
    c2 = np.arange(-c2_max, c2_max + 1)
    g1, g2 = np.meshgrid(c1, c2, indexing="ij")
    g1 = g1.ravel()
    g2 = g2.ravel()
    coprime = np.gcd(np.abs(g1), np.abs(g2)) == 1
    g1 = g1[coprime]
    g2 = g2[coprime]
    w = g1[:, None] * b1[None, :] + g2[:, None] * b2[None, :]
    inside = np.max(np.abs(w), axis=1) <= height
    w = w[inside]
    lead = np.where(w[:, 0] != 0, w[:, 0], np.where(w[:, 1] != 0, w[:, 1], w[:, 2]))
    return w[lead > 0]


def _coset_table(
    height: int, config: NumericsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v rows, w rows, per-pair sup-norm heights), cached per height."""
    cached = _TABLE_CACHE.get(height)
    if cached is not None:
        if len(cached[0]) > config.vector_budget:
            raise EnumerationOverflow(
                f"coset table at height {height} holds {len(cached[0])} pairs"
            )
        _TABLE_CACHE.move_to_end(height)
        return cached
    v_rows = _primitive_v_list(height)
    v_blocks: list[np.ndarray] = []
    w_blocks: list[np.ndarray] = []
    h_blocks: list[np.ndarray] = []
    count = 0
    for v_row in v_rows:
        w = _pairs_for_v(v_row, height)
        if len(w) == 0:
            continue
        count += len(w)
        if count > config.vector_budget:
            raise EnumerationOverflow(
                f"coset enumeration at height {height} exceeded the budget "
                f"of {config.vector_budget} pairs"
            )
        v_sup = int(np.max(np.abs(v_row)))
        h_blocks.append(
            np.maximum(np.max(np.abs(w), axis=1), v_sup).astype(np.int32)
        )
        w_blocks.append(w.astype(np.int32))
        v_blocks.append(np.broadcast_to(v_row, (len(w), 3)).astype(np.int32))
    table = (
        np.concatenate(v_blocks),
        np.concatenate(w_blocks),
        np.concatenate(h_blocks),
    )
    _TABLE_CACHE[height] = table
    held = sum(len(t[0]) for t in _TABLE_CACHE.values())
    while held > _CACHE_PAIR_CAP and len(_TABLE_CACHE) > 1:
        _, evicted = _TABLE_CACHE.popitem(last=False)
        held -= len(evicted[0])
    return table


class SeriesValue(complex):
    """Coset-sum value carrying its convergence estimate and pair count."""

    estimate: float
    pairs: int

    def __new__(cls, value: complex, estimate: float, pairs: int):
        obj = super().__new__(cls, value.real, value.imag)
        obj.estimate = estimate
        obj.pairs = pairs
        return obj


def _check_region(s: complex, t: complex, config: NumericsConfig) -> None:
    margin = config.series_cutoff_margin
    if not (3.0 * s.real - t.real > 2.0 + margin and t.real > 1.0 + margin):
        raise ConvergenceRegion(
            "coset sum needs 3 Re(s) - Re(t) > 2 and Re(t) > 1 (plus margin)"
        )


def _table_sums(
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
    w_form: np.ndarray,
    w_inv: np.ndarray,
    s: complex,
    t: complex,
    half_height: int,
) -> tuple[complex, complex]:
    v_rows, w_rows, heights = table
    e1 = 0.5 * (t - 3.0 * s)
    e2 = -t
    real_exps = e1.imag == 0.0 and e2.imag == 0.0
    total = 0.0 + 0.0j
    total_half = 0.0 + 0.0j
    chunk = 1 << 20
    for lo in range(0, len(v_rows), chunk):
        v = v_rows[lo : lo + chunk].astype(np.float64)
        w = w_rows[lo : lo + chunk].astype(np.float64)
        n1 = np.einsum("ij,jk,ik->i", v, w_form, v)
        n2 = np.einsum("ij,jk,ik->i", w, w_inv, w)
        if real_exps:
            terms = n1 ** e1.real * n2 ** e2.real
        else:
            terms = np.exp(e1 * np.log(n1) + e2 * np.log(n2))
        total += complex(np.sum(terms))
        mask = heights[lo : lo + chunk] <= half_height
        total_half += complex(np.sum(terms[mask]))
    return total, total_half


def sl3_eisenstein_direct(
    Y: SL3Point,
    s: complex,
    t: complex,
    height: int,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> SeriesValue:
    """Partial coset sum up to the given height, with convergence estimate.

    The estimate is |partial(height) - partial(height // 2)|, a heuristic,
    not a bound: at heights 6 to 10 it understated |E(Y) - E(gY)| by up to
    19.8 times for points far from the fundamental domain (g a product of
    three elementary matrices with entries in [-2, 2]); at heights 12 to 20
    the difference stayed below 0.32 times the estimate.
    """
    s = complex(s)
    t = complex(t)
    _check_region(s, t, config)
    if not (isinstance(height, int) and height >= 1):
        raise ValueError("height must be a positive integer")
    table = _coset_table(height, config)
    r = Y.matrix()
    w_form = r @ r.T
    w_inv = np.linalg.inv(w_form)
    total, total_half = _table_sums(table, w_form, w_inv, s, t, height // 2)
    return SeriesValue(total, abs(total - total_half), len(table[0]))


# --- Weyl orbit --------------------------------------------------------------

# An affine form (a, b, c) stands for a s + b t + c.  Each Weyl row is a name
# and the two forms (a, b, c, d, e, f) giving the image (s', t').
_WEYL: tuple[tuple[str, tuple[Fraction, ...]], ...] = (
    ("id", (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0))),
    ("i", (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(1))),
    ("ii", (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2))),
    ("iii", (Fraction(-1, 2), Fraction(-1, 2), Fraction(1), Fraction(-3, 2), Fraction(1, 2), Fraction(1))),
    ("iv", (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), Fraction(3, 2))),
    ("v", (Fraction(-1, 2), Fraction(-1, 2), Fraction(1), Fraction(3, 2), Fraction(-1, 2), Fraction(0))),
)
_FE_SUBSTITUTIONS = _WEYL[1:]

# the roots 2t, 3s - t and 3s + t - 1; xi over all three is completion_factor
_ROOTS = ((0, 2, 0), (3, -1, 0), (3, 1, -1))

# maximal parabolic i: the Levi root, the y_i-power as an affine form, and
# Weyl representatives of the cosets of the Levi's Weyl group
_MAXIMAL = {
    1: (0, (1, 0, 0), ("id", "ii", "v")),
    2: (1, (Fraction(-1, 2), Fraction(-1, 2), 0), ("id", "iv", "i")),
}


def _affine(form, s: complex, t: complex) -> complex:
    a, b, c = (float(q) for q in form)
    return a * s + b * t + c


def _fe_image(coeffs, s: complex, t: complex) -> tuple[complex, complex]:
    return _affine(coeffs[:3], s, t), _affine(coeffs[3:], s, t)


def _weyl_orbit(s: complex, t: complex) -> dict[str, tuple[complex, complex]]:
    return {name: _fe_image(coeffs, s, t) for name, coeffs in _WEYL}


def completion_factor(
    s: complex, t: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """xi(2t) xi(3s-t) xi(3s+t-1); the scalar turning E0 into its completion."""
    s = complex(s)
    t = complex(t)
    a, b, c = (xi_completed(_affine(form, s, t), config) for form in _ROOTS)
    return a * b * c


def sl3_completed(
    Y: SL3Point,
    s: complex,
    t: complex,
    height: int,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> SeriesValue:
    """Completed series: completion_factor(s, t) times the direct sum."""
    factor = completion_factor(s, t, config)
    raw = sl3_eisenstein_direct(Y, s, t, height, config)
    return SeriesValue(factor * complex(raw), abs(factor) * raw.estimate, raw.pairs)


# --- constant terms --------------------------------------------------------


def constant_term_p0_formula(
    Y: SL3Point, s: complex, t: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Minimal-parabolic constant term of the completed series.

    The sum over the six Weyl images (s', t') of completion_factor(s', t')
    y^s' u^t', in index-1 coordinates (y, u) (Langlands, LNM 544; Bump,
    LNM 1083).
    """
    c = coords(Y, 1)
    return sum(
        completion_factor(si, ti, config) * pow_pos(c.y, si) * pow_pos(c.z.y, ti)
        for si, ti in _weyl_orbit(complex(s), complex(t)).values()
    )


def constant_term_pi_formula(
    Y: SL3Point,
    s: complex,
    t: complex,
    i: int,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> complex:
    """Constant term along the index-i maximal parabolic.

    One product per coset representative (s', t') of the Levi's Weyl group:
    xi at the two non-Levi roots of (s', t'), times a power of y_i, times the
    completed rank-2 series at z_i with parameter half the Levi root.  The
    rank-2 values come from the Fourier evaluator, so the guard behavior
    matches it.  The rank-2 constant term of each product is the pair of
    orbit terms of (s', t') and its Levi reflection, so the constant term of
    this expression is the minimal-parabolic one (constant terms in stages).
    """
    from .eis2 import eisenstein_fourier

    c = coords(Y, i)
    levi, y_form, reps = _MAXIMAL[i]
    orbit = _weyl_orbit(complex(s), complex(t))
    total = 0.0 + 0.0j
    for name in reps:
        si, ti = orbit[name]
        roots = [_affine(form, si, ti) for form in _ROOTS]
        a, b = (xi_completed(r, config) for k, r in enumerate(roots) if k != levi)
        total += (
            a * b
            * pow_pos(c.y, _affine(y_form, si, ti))
            * eisenstein_fourier(c.z, roots[levi] / 2.0, config)
        )
    return total


_UNIPOTENT_SLOTS = {
    "P0": ((0, 1), (0, 2), (1, 2)),
    "P1": ((0, 2), (1, 2)),
    "P2": ((0, 1), (0, 2)),
}


def constant_term_numeric(
    Y: SL3Point,
    s: complex,
    t: complex,
    P: str,
    height: int,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> complex:
    """Average of the raw coset sum over the compact unipotent torus of P.

    Product Gauss-Legendre with 8 nodes per axis over the unit cube in the
    free entries of the unipotent radical (three axes for P0, two for P1 and
    P2).  Returns the raw average; multiply by completion_factor to compare
    with the completed constant-term expressions.
    """
    if P not in _UNIPOTENT_SLOTS:
        raise ValueError("P must be one of 'P0', 'P1', 'P2'")
    s = complex(s)
    t = complex(t)
    _check_region(s, t, config)
    table = _coset_table(height, config)
    r = Y.matrix()
    w_base = r @ r.T
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes01 = 0.5 * (nodes + 1.0)
    weights01 = 0.5 * weights
    slots = _UNIPOTENT_SLOTS[P]
    dim = len(slots)
    total = 0.0 + 0.0j
    for idx in np.ndindex(*(8,) * dim):
        n_mat = np.eye(3)
        weight = 1.0
        for (row, col), k in zip(slots, idx):
            n_mat[row, col] = nodes01[k]
            weight *= weights01[k]
        w_form = n_mat @ w_base @ n_mat.T
        w_inv = np.linalg.inv(w_form)
        value, _ = _table_sums(table, w_form, w_inv, s, t, 0)
        total += weight * value
    return total


# --- functional-equation report --------------------------------------------

def _cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def fe_adjudicate(
    s: complex,
    t: complex,
    Y: SL3Point,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> dict:
    """Deviation report for the five parameter substitutions.

    Evaluates the minimal-parabolic constant term at (s, t) and at each
    substituted pair; records per-equation absolute deviations, which are
    rounding-sized because the orbit sum is Weyl-invariant.  Guard-disk hits
    on a substituted pair are recorded in that entry, never raised.
    """
    s = complex(s)
    t = complex(t)
    base = constant_term_p0_formula(Y, s, t, config)
    equations = []
    for name, coeffs in _FE_SUBSTITUTIONS:
        s_img, t_img = _fe_image(coeffs, s, t)
        entry: dict = {
            "name": name,
            "s_image": _cpair(s_img),
            "t_image": _cpair(t_img),
        }
        try:
            value = constant_term_p0_formula(Y, s_img, t_img, config)
        except PoleProximity as exc:
            entry["value"] = None
            entry["abs_deviation"] = None
            entry["error"] = str(exc)
        else:
            entry["value"] = _cpair(value)
            entry["abs_deviation"] = abs(value - base)
            entry["error"] = None
        equations.append(entry)
    return {
        "s": _cpair(s),
        "t": _cpair(t),
        "base_value": _cpair(base),
        "equations": equations,
    }


# --- region predicates ------------------------------------------------------

_REGIONS = ("F_N0", "F_0", "F_1", "F_2")


def region_membership(Y: SL3Point, region: str) -> bool:
    """Membership in the four named cusp-neighborhood regions.

    Strict inequalities stay strict and the unit-circle conditions stay
    closed; the identity point sits on the boundary of the
    strict conditions and is therefore excluded from F_0.
    """
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}")
    c1 = coords(Y, 1)
    v, x, t = c1.z.x, c1.x, c1.t
    in_n0 = -0.5 < v < 0.5 and -0.5 < x < 0.5 and -0.5 < t < 0.5
    if region == "F_N0":
        return bool(in_n0)
    in_f0 = in_n0 and v + x > 0 and v + t > 0 and x + t > 0
    if region == "F_0":
        return bool(in_f0)
    j = 1 if region == "F_1" else 2
    cj = c1 if j == 1 else coords(Y, 2)
    return bool(in_f0 and cj.z.x**2 + cj.z.y**2 >= 1.0)
