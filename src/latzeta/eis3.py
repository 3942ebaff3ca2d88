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
across points and quadrature nodes.  It is stored in CSR form: the unique v
rows, the start of each v's block of w rows and the w rows, in int8 up to
height 127.  The table is closed under the signed
permutations of Z^3, so it is built by orbits: only the representatives
a >= b >= c >= 0 of v are enumerated, and each block is copied, rotated,
into the blocks of the other v of its orbit.  The blocks are therefore in
orbit order, not lexicographic.  A sum is factored per block as
N1(v)^e1 . sum over the block of N2(w)^e2, so N1 is evaluated once per v and
the pair terms are summed per block with np.add.reduceat.  One pass over the
table sums it for a whole stack of Gram forms W, such as every node of a
unipotent average, with N1 and N2 as six monomials times a coefficient
matrix.  Complex powers keep their real and imaginary parts as float arrays,
with the phase from a tangent half-angle.  Sums report an honest convergence
estimate (the difference between the partial sums over the height-h and the
cached height-h//2 tables) instead of pretending to an absolute tolerance.

Every constant term is read off one table: the six Weyl images of (s, t)
and the three roots whose xi product is completion_factor.  The
minimal-parabolic constant term is the sum over the orbit; each
maximal-parabolic one groups the orbit in pairs through the completed
rank-2 series (constant terms in stages).  A unipotent-average evaluator
checks them numerically, and the substitution report states how far the
orbit sum moves under each of the five non-identity Weyl maps.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceRegion, EnumerationOverflow, PoleProximity
from .halfplane import UpperHalfPoint
from .numerics import DEFAULT_CONFIG, NumericsConfig, _gl_nodes, pow_pos, xi_completed

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
    """CSR pair table: block j pairs v[j] with w[starts[j] : starts[j + 1]].

    The blocks come in the order of the orbit build (_coset_table), not in
    lexicographic v order; sums over the table depend on the order only
    through rounding.
    """

    v: np.ndarray  # (blocks, 3) unique v rows, in build order
    starts: np.ndarray  # (blocks,) offset of each v's block into w
    w: np.ndarray  # (pairs, 3) w rows, block by block


_TABLE_CACHE: "OrderedDict[int, _CosetTable]" = OrderedDict()
_CACHE_BYTE_CAP = 1 << 28
_V_SLICE = 1 << 12  # orbit representatives per build slice (bounds _orbit_images)
_BUILD_CHUNK = 1 << 18  # (c1, c2) box points per build step
_SUM_CHUNK = 1 << 16  # pair terms plus monomials per summation step


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
    """Orbit representatives v = (a, b, c), a >= b >= c >= 0, a >= 1 and
    gcd 1, in lexicographic order, in slices of whole a of at least
    _V_SLICE rows (the last may hold fewer).

    Every canonical primitive v of sup-norm <= height is, up to sign, the
    image of exactly one of them under the 24 rotations of the cube.
    """
    reps = []
    for a in range(1, height + 1):
        b, c = np.tril_indices(a + 1)
        keep = np.gcd(np.gcd(a, b), c) == 1
        reps.append(np.stack([np.full(keep.sum(), a), b[keep], c[keep]], axis=1))
        if a == height or sum(map(len, reps)) >= _V_SLICE:
            yield np.concatenate(reps)
            reps = []


# the 24 rotations of the cube, the signed permutations of det +1: rotation r
# takes a row x to x[_PERMS[r]] * _SIGNS[r].  The det is the parity of the
# permutation times the product of the signs, and a permutation of three is
# even exactly when it is a cyclic shift, (p[1] - p[0]) % 3 == 1.
_ROTATIONS = [
    (p, s)
    for p in itertools.permutations(range(3))
    for s in itertools.product((1, -1), repeat=3)
    if math.prod(s) == (1 if (p[1] - p[0]) % 3 == 1 else -1)
]
_PERMS, _SIGNS = (np.array(part, np.int8) for part in zip(*_ROTATIONS))


def _first_sign(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The sign of the first nonzero of (x, y, z), elementwise (0 if none)."""
    return np.sign(4 * np.sign(x) + 2 * np.sign(y) + np.sign(z))


def _orbit_images(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical images of each row of v under the 24 rotations, (n, 24, 3),
    and the (n, 24) mask of the rotations giving an image that no earlier
    rotation gives, so each distinct image is kept once."""
    images = v[:, _PERMS] * _SIGNS
    images *= _first_sign(*np.moveaxis(images, 2, 0))[..., None]
    same = (images[:, :, None] == images[:, None, :]).all(axis=3)
    return images, ~np.tril(same, -1).any(axis=2)


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
    Returns the owning row of v, the w with gcd(g1, g2) = 1 as the rows of
    a (3, pairs) array of coordinates, in the order of v, then g1, then g2.
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
    return row_v[row], w


def _coset_table(height: int, config: NumericsConfig) -> _CosetTable:
    """The CSR pair table at a given height, cached per height.

    A pair is a canonical primitive v (first nonzero coordinate positive)
    and a canonical primitive w orthogonal to it, both of sup-norm <= height.
    The table holds the unique v rows, the start of each v's block of w
    rows and the w rows.  Every v has a pair (w = +-(b, -a, 0) / gcd(a, b),
    or (1, 0, 0) when v = (0, 0, 1)), so no block is empty.  Entries use the
    smallest signed dtype holding +-height: int8 up to height 127, 3 bytes a
    pair and 11 bytes a block.

    The table is closed under the 24 rotations of the cube (the signed
    permutations of det +1; with -I they give all 48): a rotation keeps
    w.v = 0, primitivity and both sup-norms, and maps the block of v onto
    the block of its image once both are made canonical.  So the build
    enumerates only the blocks of the orbit representatives (_v_slices),
    1/20 of the pairs at height 20, and copies each, rotated, into the
    block of every distinct image of its v (_orbit_images).  Blocks come
    step by step, and rotation by rotation within a step.

    Each slice of representatives gets batched kernel bases, and their
    ragged coefficient ranges (_kernel_pairs) are walked in steps of about
    _BUILD_CHUNK points of the bounding (c1, c2) boxes.  The budget counts
    expanded pairs, block size times orbit size, and is checked before a
    step writes anything, so an over-budget table is never built.  Each
    step is written in the table's dtype into three buffers grown in place
    (_put), so the build holds about one table at its peak.  The cache
    holds every table and evicts the oldest while the arrays it holds
    exceed _CACHE_BYTE_CAP bytes; the newest table always stays.  A height
    that is not a positive integer raises ValueError.
    """
    if not (isinstance(height, int) and height >= 1):
        raise ValueError("height must be a positive integer")
    cached = _TABLE_CACHE.get(height)
    if cached is not None:
        if len(cached.w) > config.vector_budget:
            raise EnumerationOverflow(
                f"coset table at height {height} holds {len(cached.w)} pairs"
            )
        _TABLE_CACHE.move_to_end(height)
        return cached
    dtype = _entry_dtype(height)
    v_rows, sizes = np.empty((0, 3), dtype), np.empty(0, np.int64)
    w_rows = np.empty((0, 3), dtype)
    blocks = count = 0
    for v in _v_slices(height):
        b1, b2 = _kernel_bases(v)
        images, distinct = _orbit_images(v)
        orbit = distinct.sum(axis=1)
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
            owner, w = _kernel_pairs(
                v[lo:hi], b1[lo:hi], b2[lo:hi], c1[lo:hi], c2[lo:hi], height
            )
            size = np.bincount(owner, minlength=hi - lo)
            if count + int(size @ orbit[lo:hi]) > config.vector_budget:
                raise EnumerationOverflow(
                    f"coset enumeration at height {height} exceeded the budget "
                    f"of {config.vector_budget} pairs"
                )
            # rotation r maps the block of v onto the block of its image
            w = w.astype(dtype)
            for r, (perm, signs) in enumerate(zip(_PERMS, _SIGNS)):
                kept = distinct[lo:hi, r]
                rows = kept[owner]
                image = [w[i][rows] * sign for i, sign in zip(perm, signs)]
                flip = _first_sign(*image)
                _put(v_rows, blocks, images[lo:hi, r][kept])
                _put(sizes, blocks, size[kept])
                _put(w_rows, count, np.stack([x * flip for x in image], axis=1))
                blocks += int(kept.sum())
                count += len(flip)
            lo = hi
    for buf, used in ((v_rows, blocks), (sizes, blocks), (w_rows, count)):
        buf.resize((used,) + buf.shape[1:], refcheck=False)
    table = _CosetTable(v_rows, np.cumsum(sizes) - sizes, w_rows)
    _TABLE_CACHE[height] = table
    held = sum(_nbytes(t) for t in _TABLE_CACHE.values())
    while held > _CACHE_BYTE_CAP and len(_TABLE_CACHE) > 1:
        _, evicted = _TABLE_CACHE.popitem(last=False)
        held -= _nbytes(evicted)
    return table


def _put(buf: np.ndarray, at: int, rows: np.ndarray) -> None:
    """Write rows into buf from row at on, growing buf in place when full.

    It grows by at least an eighth.  ndarray.resize reallocates, and on
    Linux realloc moves a large buffer by remapping its pages, not by
    copying them, so a build holds about one table at its peak.  No view of
    buf may exist.
    """
    end = at + len(rows)
    if end > len(buf):
        buf.resize((max(end, len(buf) + len(buf) // 8),) + buf.shape[1:], refcheck=False)
    buf[at:end] = rows


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


def _power(x: np.ndarray, e: complex) -> tuple[np.ndarray, ...]:
    """x ** e for positive x: its real part and, for complex e, its imaginary part.

    x ** e = x^a (cos + i sin)(b log x) for e = a + b i.  The phase comes from
    one tau = tan(b log x / 2), as cos = (1 - tau^2) / (1 + tau^2) and
    sin = 2 tau / (1 + tau^2).  One float tan costs less than a sin and a
    cos, and far less than a complex exp (numpy vectorizes tan with
    AVX512).  The error is that of rounding log x, as in exp(e log x).
    """
    if e.imag == 0.0:
        return (x ** e.real,)
    log_x = np.log(x)
    tau = np.tan(log_x * (0.5 * e.imag))
    tau2 = np.square(tau)
    # in place from here: fresh temporaries took a third of the time
    scale = np.exp(np.multiply(log_x, e.real, out=log_x), out=log_x)
    scale /= 1.0 + tau2
    cos = np.subtract(1.0, tau2, out=tau2)
    cos *= scale
    sin = np.multiply(tau, 2.0, out=tau)
    sin *= scale
    return cos, sin


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    # the array from its real part, or from its real and imaginary parts
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


# (i, j) of the six monomials x_i x_j of a ternary quadratic form, and the
# factor of the form's (i, j) entry in its coefficient
_MONOMIALS = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])
_MONOMIAL_SCALE = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)


def _quadratic(rows: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """x F x^T for every integer row x and every symmetric 3x3 form F.

    One matmul of the (forms, 6) coefficients with the (6, rows) monomials,
    transposed to (rows, forms).
    """
    i, j = _MONOMIALS
    x, y, z = rows.T.astype(np.float64)
    monomials = np.stack([x * x, y * y, z * z, x * y, x * z, y * z])
    return ((forms[:, i, j] * _MONOMIAL_SCALE) @ monomials).T


def _table_sums(
    table: _CosetTable, forms: np.ndarray, s: complex, t: complex
) -> np.ndarray:
    """Sums of N1^((t-3s)/2) N2^(-t) over the table, one for every Gram form
    W in the (n, 3, 3) stack forms.

    One pass over the table serves every form, with one batched inverse.
    N1 = v W v^T and N2 = w W^{-1} w^T are six monomials of the rows times
    a (6, n) coefficient matrix (_quadratic).  A step takes _SUM_CHUNK //
    (n + 6) pairs, so its temporaries hold about _SUM_CHUNK floats whatever
    n is.  The real and imaginary parts of N2^e2 stay float arrays; they
    are summed per block with np.add.reduceat, and the block sums are
    dotted with the N1^e1 of their v.  A block split between two steps
    gives a partial sum to each.
    """
    v_rows, starts, w_rows = table
    inverses = np.linalg.inv(forms)
    e1, e2 = 0.5 * (t - 3.0 * s), -t
    total = np.zeros(len(forms), complex)
    step = max(1, _SUM_CHUNK // (len(forms) + 6))
    for p0 in range(0, len(w_rows), step):
        p1 = min(p0 + step, len(w_rows))
        # blocks lo:hi meet the step; the first may have begun before it
        lo = np.searchsorted(starts, p0, "right") - 1
        hi = np.searchsorted(starts, p1)
        local = np.maximum(starts[lo:hi] - p0, 0)
        n1e1 = _joined(_power(_quadratic(v_rows[lo:hi], forms), e1))
        terms = _power(_quadratic(w_rows[p0:p1], inverses), e2)
        sums = _joined([np.add.reduceat(p, local, axis=0) for p in terms])
        total += np.einsum("bn,bn->n", sums, n1e1)
    return total


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
    the difference stayed below 0.32 times the estimate.  The height // 2
    sum is taken over the cached height // 2 table, the pairs of the
    height table with both sup-norms <= height // 2; it is fetched first,
    so the requested table is the newest in the cache and always stays.
    At height 1 there is no half table and the half sum is 0.
    """
    s = complex(s)
    t = complex(t)
    _check_region(s, t, config)
    r = Y.matrix()
    form = (r @ r.T)[None]
    half = 0j
    if height // 2 >= 1:
        half = complex(_table_sums(_coset_table(height // 2, config), form, s, t)[0])
    table = _coset_table(height, config)
    total = complex(_table_sums(table, form, s, t)[0])
    return SeriesValue(total, abs(total - half), len(table.w))


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
    P2).  The Gram forms of all 8^dim nodes go through one _table_sums pass,
    and the average is the weighted sum of their values.  Returns the raw
    average; multiply by completion_factor to compare with the completed
    constant-term expressions.
    """
    if P not in _UNIPOTENT_SLOTS:
        raise ValueError("P must be one of 'P0', 'P1', 'P2'")
    s = complex(s)
    t = complex(t)
    _check_region(s, t, config)
    table = _coset_table(height, config)
    r = Y.matrix()
    nodes, weights = _gl_nodes(8)
    rows, cols = np.transpose(_UNIPOTENT_SLOTS[P])
    # product node k takes the Gauss-Legendre node idx[a, k] on axis a
    idx = np.indices((8,) * len(rows)).reshape(len(rows), -1)
    n_mats = np.tile(np.eye(3), (idx.shape[1], 1, 1))
    n_mats[:, rows, cols] = 0.5 * (nodes[idx].T + 1.0)
    forms = n_mats @ (r @ r.T) @ n_mats.transpose(0, 2, 1)
    values = _table_sums(table, forms, s, t)
    return (0.5 * weights[idx]).prod(axis=0) @ values


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
