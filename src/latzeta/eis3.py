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
across quadrature nodes.  It is stored in CSR form: the unique v rows, the
start of each v's block of w rows, the w rows and the per-pair heights, in
int8 up to height 127.  A sum is factored per block as
N1(v)^e1 . sum over the block of N2(w)^e2, so N1 is evaluated once per v and
the pair terms are summed per block with np.add.reduceat.  Sums report an
honest convergence estimate (the difference between the full partial sum
and the half-height partial sum) instead of pretending to an absolute
tolerance.

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
from typing import NamedTuple

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


class _CosetTable(NamedTuple):
    """CSR pair table: block j pairs v[j] with w[starts[j] : starts[j + 1]]."""

    v: np.ndarray  # (blocks, 3) unique v rows, lexicographic
    starts: np.ndarray  # (blocks,) offset of each v's block into w
    w: np.ndarray  # (pairs, 3) w rows, block by block
    heights: np.ndarray  # (pairs,) max of the sup-norms of v and w


_TABLE_CACHE: "OrderedDict[int, _CosetTable]" = OrderedDict()
_CACHE_BYTE_CAP = 1 << 28
_BUILD_CHUNK = 1 << 18  # (c1, c2) box points per build step
_SUM_CHUNK = 1 << 16  # pairs per summation step, rounded to whole blocks


def _entry_dtype(height: int) -> np.dtype:
    # the smallest signed dtype holding -(height + 1) holds +-height
    return np.min_scalar_type(-height - 1)


def _batched_ext_gcd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Batched extended Euclid: (g, x, y) with a x + b y = g >= 0."""
    old_r, r = a.copy(), b.copy()
    old_x, x = np.ones_like(a), np.zeros_like(a)
    old_y, y = np.zeros_like(a), np.ones_like(a)
    while True:
        live = r != 0
        if not live.any():
            break
        q = old_r // np.where(live, r, 1)
        old_r, r = np.where(live, r, old_r), np.where(live, old_r - q * r, r)
        old_x, x = np.where(live, x, old_x), np.where(live, old_x - q * x, x)
        old_y, y = np.where(live, y, old_y), np.where(live, old_y - q * y, y)
    sign = np.where(old_r < 0, -1, 1)
    return sign * old_r, sign * old_x, sign * old_y


def _kernel_bases(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-reduced bases (b1, b2) of {w : w.v = 0}, one per row of v.

    cross(b1, b2) = +-v certifies that each basis spans the whole kernel.
    """
    a, b, c = v.T
    d, y0, z0 = _batched_ext_gcd(b, c)
    axis = d == 0  # v = (1, 0, 0)
    d = np.where(axis, 1, d)
    b1 = np.stack([np.zeros_like(a), c // d, -b // d], axis=1)
    b2 = np.stack([d, -a * y0, -a * z0], axis=1)
    b1[axis] = (0, 1, 0)
    b2[axis] = (0, 0, 1)
    live = np.arange(len(v))
    while len(live):
        p, q = b1[live], b2[live]
        n1 = np.einsum("ij,ij->i", p, p)
        n2 = np.einsum("ij,ij->i", q, q)
        swap = (n1 > n2)[:, None]
        p, q = np.where(swap, q, p), np.where(swap, p, q)
        # exact ties stay exact in float64 at these sizes, and np.rint
        # rounds them to even like round(Fraction)
        mu = np.rint(np.einsum("ij,ij->i", p, q) / np.minimum(n1, n2))
        mu = mu.astype(np.int64)
        b1[live], b2[live] = p, q - mu[:, None] * p
        live = live[mu != 0]
    return b1, b2


def _v_slices(height: int):
    """Canonical primitive v (first nonzero coordinate positive), one slice
    per first coordinate, in lexicographic order."""
    rng = np.arange(-height, height + 1)
    b, c = (g.ravel() for g in np.meshgrid(rng, rng, indexing="ij"))
    for a in range(height + 1):
        keep = np.gcd(np.gcd(a, np.abs(b)), np.abs(c)) == 1
        if a == 0:
            keep &= np.where(b != 0, b, c) > 0
        yield np.stack([np.full(keep.sum(), a), b[keep], c[keep]], axis=1)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # for each slot of the concatenated ranges: its range and its index in it
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _kernel_pairs(v, b1, b2, c1, c2, height):
    """Canonical primitive w = g1 b1 + g2 b2 with sup-norm <= height.

    The coefficients obey |g1| <= c1 and |g2| <= c2.  For each g1, the g2
    that keep the three coordinates of w within +-height form an interval
    (c2 bounds it where a coordinate of b2 is 0), and so do those that make
    the first nonzero coordinate positive: with |w_i| <= height that is
    key(w) > 0 for the linear key(w) = (w_0 B + w_1) B + w_2, B = 2 height + 1.
    Returns the owning row of v, the w rows with gcd(g1, g2) = 1 and the
    pair heights, in the order of v, then g1, then g2.
    """
    row_v, k = _ragged(2 * c1 + 1)
    g1 = k - c1[row_v]
    p = b1.T[:, row_v] * g1  # coordinates as rows: w = p + g2 q per g1
    q = b2.T[:, row_v]
    # |p_i + g2 q_i| <= height, with signs flipped so that q_i >= 0
    p_flip = np.where(q < 0, -p, p)
    q_abs = np.abs(q)
    free = q_abs == 0
    q_safe = np.where(free, 1, q_abs)
    bound = c2[row_v]
    lo = np.where(free, -bound, -((height + p_flip) // q_safe)).max(axis=0)
    hi = np.where(free, bound, (height - p_flip) // q_safe).min(axis=0)
    # a free coordinate out of range empties the row
    hi = np.where((free & (np.abs(p) > height)).any(axis=0), lo - 1, hi)
    # key(p) + g2 key(q) > 0, i.e. g2 > m or g2 < -m by the sign of key(q);
    # key(q) != 0 since a reduced kernel basis has |b2| <= 2 height < B
    base = 2 * height + 1
    key_p = (p[0] * base + p[1]) * base + p[2]
    key_q = (q[0] * base + q[1]) * base + q[2]
    m = -key_p // np.abs(key_q)
    lo = np.where(key_q > 0, np.maximum(lo, m + 1), lo)
    hi = np.where(key_q < 0, np.minimum(hi, -m - 1), hi)
    row, j = _ragged(np.maximum(hi - lo + 1, 0))
    g2 = lo[row] + j
    keep = np.gcd(g1[row], g2) == 1
    row = row[keep]
    w = p[:, row] + g2[keep] * q[:, row]
    owner = row_v[row]
    heights = np.maximum(np.abs(w).max(axis=0), np.abs(v).max(axis=1)[owner])
    return owner, w.T, heights


def _coset_table(height: int, config: NumericsConfig) -> _CosetTable:
    """The CSR pair table at a given height, cached per height.

    A pair is a canonical primitive v (first nonzero coordinate positive)
    and a canonical primitive w orthogonal to it, both of sup-norm <= height.
    The table holds the unique v rows, the start of each v's block of w
    rows, the w rows and the per-pair heights.  Every v has a pair (w =
    +-(b, -a, 0) / gcd(a, b), or (1, 0, 0) when v = (0, 0, 1)), so no block
    is empty.  Entries use the smallest signed dtype holding +-height: int8
    up to height 127, 4 bytes a pair.

    The build runs across all v at once: batched kernel bases, then the
    ragged coefficient ranges of each basis (_kernel_pairs), walked in steps
    of about _BUILD_CHUNK points of the bounding (c1, c2) boxes.  The budget is
    checked after every step, so an over-budget table is never built.  The
    cache holds every table and evicts the oldest while the arrays it holds
    exceed _CACHE_BYTE_CAP bytes; the newest table always stays.
    """
    cached = _TABLE_CACHE.get(height)
    if cached is not None:
        if len(cached.w) > config.vector_budget:
            raise EnumerationOverflow(
                f"coset table at height {height} holds {len(cached.w)} pairs"
            )
        _TABLE_CACHE.move_to_end(height)
        return cached
    dtype = _entry_dtype(height)
    parts: list[tuple[np.ndarray, ...]] = []
    count = 0
    for v in _v_slices(height):
        b1, b2 = _kernel_bases(v)
        # g1 = +-(b2 x v).w / |v|^2 and g2 = +-(b1 x v).w / |v|^2, so on
        # the cube |g1| <= height |b2 x v|_1 / |v|^2, and likewise g2
        norm2 = np.einsum("ij,ij->i", v, v)
        c1 = height * np.abs(np.cross(b2, v)).sum(axis=1) // norm2
        c2 = height * np.abs(np.cross(b1, v)).sum(axis=1) // norm2
        ends = np.cumsum((2 * c1 + 1) * (2 * c2 + 1))
        lo = 0
        while lo < len(v):
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _BUILD_CHUNK, "right")))
            owner, w, heights = _kernel_pairs(
                v[lo:hi], b1[lo:hi], b2[lo:hi], c1[lo:hi], c2[lo:hi], height
            )
            count += len(w)
            if count > config.vector_budget:
                raise EnumerationOverflow(
                    f"coset enumeration at height {height} exceeded the budget "
                    f"of {config.vector_budget} pairs"
                )
            parts.append((
                v[lo:hi].astype(dtype),
                np.bincount(owner, minlength=hi - lo),
                w.astype(dtype, order="C"),
                heights.astype(dtype),
            ))
            lo = hi
    v_rows, sizes, w_rows, heights = (np.concatenate(p) for p in zip(*parts))
    table = _CosetTable(v_rows, np.cumsum(sizes) - sizes, w_rows, heights)
    _TABLE_CACHE[height] = table
    held = sum(_nbytes(t) for t in _TABLE_CACHE.values())
    while held > _CACHE_BYTE_CAP and len(_TABLE_CACHE) > 1:
        _, evicted = _TABLE_CACHE.popitem(last=False)
        held -= _nbytes(evicted)
    return table


def _nbytes(table: _CosetTable) -> int:
    return sum(a.nbytes for a in table)


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


def _power(x: np.ndarray, e: complex) -> np.ndarray:
    # x ** e for positive x; real arrays stay real
    if e.imag == 0.0:
        return x ** e.real
    return np.exp(e * np.log(x))


def _table_sums(
    table: _CosetTable,
    w_form: np.ndarray,
    w_inv: np.ndarray,
    s: complex,
    t: complex,
    half_height: int,
) -> tuple[complex, complex]:
    """Full and half-height sums of N1^((t-3s)/2) N2^(-t) over the table.

    Factored per block: N1^e1 is taken once per unique v, N2^e2 once per
    pair with N2 = w W^{-1} w^T as a six-monomial quadratic form, the pair
    terms are summed per block with np.add.reduceat, and the block sums are
    dotted with the N1^e1.  Steps of about _SUM_CHUNK pairs over whole
    blocks bound the float temporaries.  The half-height sum keeps the
    pairs of height <= half_height and is only formed when that is
    positive; otherwise it is returned as 0.
    """
    v, starts, w_rows, heights = table
    v = v.astype(np.float64)
    n1 = np.einsum("ij,jk,ik->i", v, w_form, v)
    n1e1 = _power(n1, 0.5 * (t - 3.0 * s))
    q = w_inv
    total = 0.0 + 0.0j
    total_half = 0.0 + 0.0j
    bounds = np.append(starts, len(w_rows))
    marks = np.arange(0, len(w_rows), _SUM_CHUNK)
    edges = np.unique(np.searchsorted(starts, marks, "right") - 1)
    for lo, hi in zip(edges, np.append(edges[1:], len(starts))):
        p0, p1 = bounds[lo], bounds[hi]
        x, y, z = np.asarray(w_rows[p0:p1].T, dtype=np.float64, order="C")
        n2 = x * (q[0, 0] * x + 2.0 * q[0, 1] * y + 2.0 * q[0, 2] * z)
        n2 += y * (q[1, 1] * y + 2.0 * q[1, 2] * z) + q[2, 2] * z * z
        terms = _power(n2, -t)
        local = starts[lo:hi] - p0
        total += np.add.reduceat(terms, local) @ n1e1[lo:hi]
        if half_height > 0:
            kept = np.where(heights[p0:p1] <= half_height, terms, 0.0)
            total_half += np.add.reduceat(kept, local) @ n1e1[lo:hi]
    return complex(total), complex(total_half)


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
    return SeriesValue(total, abs(total - total_half), len(table.w))


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
