"""Slopes, semistability, canonical polygons and filtrations.

The canonical polygon records, for each intermediate rank k, the best
normalized degree deg(sub) - (k/r) deg(L) any rank-k sublattice achieves,
completed to an upper concave hull with zero endpoints.  Its strict vertices
carry the canonical filtration (successive quotient slopes strictly
decreasing).  Sublattice search is provably complete at rank <= 4:

  * rank-1 candidates are primitive vectors inside the Hermite ball
    gamma_r * covol^{2/r} with gamma_r = (4/3)^{(r-1)/2};
  * corank-1 candidates are the hyperplanes w . x = 0 of primitive dual
    vectors w inside the dual's Hermite ball (covol of the hyperplane is
    covol(L) * |w|), each spanned by its Koszul vectors w_j e_i - w_i e_j;
  * rank-2-in-rank-4 candidates come from vector pairs, bounded through
    Minkowski's second theorem: the best rank-2 sublattice is spanned by
    vectors no longer than (2/sqrt(3)) * covol(best) / lambda_1(L).

The search runs once per lattice and NumericsConfig and is shared by
canonical_polygon, canonical_filtration and is_semistable; the result is
held only while the lattice lives.  Rank-1 determinants are the exact norms
the enumerator already computed.

Destabilizing comparisons are exact: slope(S) > slope(L) iff
det(Gram S)^r < det(Gram L)^k over Q, no logarithms involved.  Flag steps
are checked by one integer invariant, the gcd of their maximal minors: 0
for dependent rows, 1 exactly for a primitive step.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import InvalidFlag
from .intmat import bareiss_det, contains, maximal_minor_gcd, row_hnf
from .lattice import Lattice, _enumerate_classes, _log_frac, degree, dual, minkowski_point
from .numerics import DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "Polygon",
    "Flag",
    "slope",
    "is_semistable",
    "canonical_polygon",
    "canonical_filtration",
    "flag_polygon",
    "truncation_indicator",
    "parabolic_sum_indicator_rank2",
    "arthur_correspondence_rank2",
]

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Polygon:
    """Piecewise-linear function on [0, rank], pinned to 0 at both ends."""

    rank: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("polygon rank must be positive")
        if len(self.values) != self.rank + 1:
            raise ValueError("polygon needs rank+1 values")
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            raise ValueError("polygon endpoints must be zero")

    def eval_at(self, x: float) -> float:
        if not 0 <= x <= self.rank:
            raise ValueError("argument outside [0, rank]")
        k = min(int(math.floor(x)), self.rank - 1)
        frac = x - k
        return self.values[k] * (1 - frac) + self.values[k + 1] * frac

    @staticmethod
    def zero(rank: int) -> "Polygon":
        return Polygon(rank, (0.0,) * (rank + 1))

    @staticmethod
    def from_json(data: dict) -> "Polygon":
        return Polygon(int(data["rank"]), tuple(float(v) for v in data["values"]))

    def to_json(self) -> dict:
        return {"rank": self.rank, "values": list(self.values)}


@dataclass(frozen=True)
class Flag:
    """Ascending chain of primitive sublattices ending at the full lattice.

    Each step is a generator matrix in Hermite normal form whose rows are
    integer coordinates with respect to the ambient basis.
    """

    steps: tuple[IntRows, ...]

    @staticmethod
    def from_json(data: list) -> "Flag":
        return Flag(tuple(tuple(tuple(int(v) for v in row) for row in step) for step in data))

    def to_json(self) -> list:
        return [[list(row) for row in step] for step in self.steps]


def _sub_gram_det(L: Lattice, rows) -> Fraction:
    """det(R G R^T) for integer coordinate rows R: det(R G_int R^T) / den^k."""
    g, den = L._int_gram
    rg = [[sum(a * col for a, col in zip(row, cols)) for cols in zip(*g)] for row in rows]
    sub = [[sum(a * b for a, b in zip(x, row)) for row in rows] for x in rg]
    return Fraction(bareiss_det(sub), den ** len(rows))


def _sub_degree(L: Lattice, rows) -> float:
    return -0.5 * _log_frac(_sub_gram_det(L, rows))


def _hermite_ball(L: Lattice) -> float:
    r = L.rank
    gamma = (4.0 / 3.0) ** ((r - 1) / 2.0)
    return gamma * math.exp(-2.0 * degree(L) / r)


def _primitive_lines(
    L: Lattice, ball: float, config: NumericsConfig
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Primitive vectors (one per +- pair) with squared length <= ball, and
    their exact norms, in the enumerator's norm order.

    A multiple k p (k > 1) comes after p in that order, so keeping the rows
    with gcd 1 keeps every line once, at its primitive vector.
    """
    # slight inflation so an exactly-attained Hermite bound cannot be lost to rounding
    bound = Fraction(ball) * Fraction(1_000_000_001, 1_000_000_000)
    x, q = _enumerate_classes(L, bound, config)
    den = L._int_gram[1]
    return [
        (tuple(v), Fraction(n, den))
        for v, n in zip(x.tolist(), q.tolist())
        if math.gcd(*v) == 1
    ]


def _hyperplane(w: tuple[int, ...]) -> IntRows:
    """HNF basis of {x : w . x = 0} for primitive w.

    With a . w = 1, any such x is sum_{i,j} x_i a_j (w_j e_i - w_i e_j), so
    these Koszul vectors span the hyperplane.
    """
    r = len(w)
    koszul = [
        [w[j] * (t == i) - w[i] * (t == j) for t in range(r)] for i in range(r) for j in range(i)
    ]
    return tuple(tuple(row) for row in row_hnf(koszul))


Candidates = Mapping[int, tuple[tuple[IntRows, Fraction], ...]]

# one search per (lattice, config), dropped with its lattice
_SEARCHES: weakref.WeakKeyDictionary[Lattice, dict[NumericsConfig, Candidates]] = (
    weakref.WeakKeyDictionary()
)


def _candidate_sublattices(L: Lattice, config: NumericsConfig) -> Candidates:
    """_search(L, config), run once while L lives.

    The key is the whole config, so a smaller vector_budget searches again
    and raises where the search would.
    """
    memo = _SEARCHES.setdefault(L, {})
    if config not in memo:
        memo[config] = _search(L, config)
    return memo[config]


def _search(L: Lattice, config: NumericsConfig) -> Candidates:
    """For each intermediate rank k, candidates (HNF rows, Gram det) whose
    minimum det realizes the canonical polygon value at k."""
    r = L.rank
    out: dict[int, tuple[tuple[IntRows, Fraction], ...]] = {}
    if r == 1:
        return MappingProxyType(out)

    lines = _primitive_lines(L, _hermite_ball(L), config)
    out[1] = tuple(sorted(((v,), q) for v, q in lines))

    if r >= 3:
        D = dual(L)
        hyps: dict[IntRows, Fraction] = {}
        for w, _ in _primitive_lines(D, _hermite_ball(D), config):
            rows = _hyperplane(w)
            if rows not in hyps:
                hyps[rows] = _sub_gram_det(L, rows)
        out[r - 1] = tuple(sorted(hyps.items()))

    if r == 4:
        out[2] = _rank2_in_rank4(L, lines, config)
    return MappingProxyType(out)


def _rank2_in_rank4(
    L: Lattice, lines: list[tuple[tuple[int, ...], Fraction]], config: NumericsConfig
) -> tuple[tuple[IntRows, Fraction], ...]:
    # lower bound on the best rank-2 degree: pairs of Hermite-ball vectors
    # and the first two coordinate axes; lines are in norm order
    lam1_sq = float(lines[0][1])
    seeds = lines
    if len(lines) < 2:
        # Minkowski second theorem with gamma_4^4 = 4: lambda_1^2 lambda_2^6
        # <= 4 det G, so this ball holds two independent vectors
        ball = (4.0 * float(L.gram_det()) / lam1_sq) ** (1.0 / 3.0)
        seeds = _primitive_lines(L, ball, config)
    seed_rows: list[IntRows] = [((1, 0, 0, 0), (0, 1, 0, 0))]
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            seed_rows.append((seeds[i][0], seeds[j][0]))
    best_det = None
    for rows in seed_rows:
        d = _sub_gram_det(L, rows)
        if d > 0 and (best_det is None or d < best_det):
            best_det = d
    # Minkowski second theorem: the maximizer is spanned by vectors with
    # |v|^2 <= (4/3) * det(best) / lambda_1^2
    ball = (4.0 / 3.0) * float(best_det) / lam1_sq
    vecs = [v for v, _ in _primitive_lines(L, ball, config)]
    det_cut = best_det * Fraction(1_000_001, 1_000_000)
    cands: dict[IntRows, Fraction] = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            rows = (vecs[i], vecs[j])
            d = _sub_gram_det(L, rows)
            if d == 0 or d > det_cut:
                continue
            hnf = tuple(tuple(row) for row in row_hnf([list(vecs[i]), list(vecs[j])]))
            if hnf not in cands:
                cands[hnf] = _sub_gram_det(L, hnf)
    return tuple(sorted(cands.items()))


def slope(L: Lattice) -> float:
    return degree(L) / L.rank


def is_semistable(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> bool:
    """Exact test: some sublattice destabilizes iff the minimum candidate
    Gram det at some rank k satisfies det^r < det(L)^k."""
    if L.rank == 1:
        return True
    det_full = L.gram_det()
    for k, cands in _candidate_sublattices(L, config).items():
        d_min = min(d for _, d in cands)
        if d_min**L.rank < det_full**k:
            return False
    return True


def _upper_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # monotone chain, collinear-within-tolerance points dropped
    hull: list[tuple[float, float]] = []
    for pt in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            cross = (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox)
            if cross >= -1e-12:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _hull_values(hull: list[tuple[float, float]], rank: int) -> tuple[float, ...]:
    values = []
    for k in range(rank + 1):
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            if x0 <= k <= x1:
                frac = 0.0 if x1 == x0 else (k - x0) / (x1 - x0)
                values.append(y0 * (1 - frac) + y1 * frac)
                break
        else:
            values.append(0.0)
    values[0] = 0.0
    values[rank] = 0.0
    return tuple(values)


def _canonical_hull(L: Lattice, cands: Candidates) -> list[tuple[float, float]]:
    # upper hull of (k, normalized degree of the best rank-k sublattice)
    r = L.rank
    deg = degree(L)
    pts: list[tuple[float, float]] = [(0.0, 0.0)]
    for k in range(1, r):
        if k in cands:
            d_min = min(d for _, d in cands[k])
            pts.append((float(k), -0.5 * _log_frac(d_min) - (k / r) * deg))
    pts.append((float(r), 0.0))
    return _upper_hull(pts)


def canonical_polygon(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> Polygon:
    hull = _canonical_hull(L, _candidate_sublattices(L, config))
    return Polygon(L.rank, _hull_values(hull, L.rank))


def canonical_filtration(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> Flag:
    """Steps at the strict vertices of the canonical polygon; within a rank,
    exact-det ties break to the lexicographically smallest HNF."""
    r = L.rank
    full: IntRows = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    if r == 1:
        return Flag((full,))
    cands = _candidate_sublattices(L, config)
    hull = _canonical_hull(L, cands)
    steps: list[IntRows] = []
    for x, _y in hull[1:-1]:
        k = int(round(x))
        d_min = min(d for _, d in cands[k])
        ties = [rows for rows, d in cands[k] if d == d_min]
        steps.append(min(ties))
    for prev, nxt in zip(steps, steps[1:]):
        if not contains([list(row) for row in nxt], [list(row) for row in prev]):
            raise InvalidFlag("canonical filtration steps failed to nest")
    steps.append(full)
    return Flag(tuple(steps))


def flag_polygon(L: Lattice, f: Flag, config: NumericsConfig = DEFAULT_CONFIG) -> Polygon:
    r = L.rank
    if not f.steps:
        raise InvalidFlag("flag has no steps")
    prev: IntRows = ()
    breakpoints: list[tuple[float, float]] = [(0, 0.0)]
    deg = degree(L)
    for step in f.steps:
        if any(len(row) != r for row in step):
            raise InvalidFlag("step width does not match the ambient rank")
        k = len(step)
        if k <= len(prev):
            raise InvalidFlag("step ranks must strictly increase")
        g = maximal_minor_gcd(step)
        if g == 0:
            raise InvalidFlag("step rows are linearly dependent")
        if g != 1:
            raise InvalidFlag("step is not primitive in the ambient lattice")
        # a primitive rank-r step is Z^r itself: it holds every earlier step
        # and its normalized degree is 0
        if k < r:
            if prev and not contains(step, prev):
                raise InvalidFlag("steps are not nested")
            breakpoints.append((k, _sub_degree(L, step) - (k / r) * deg))
        prev = step
    if len(prev) != r:
        raise InvalidFlag("last step must be the full lattice")
    return Polygon(r, _hull_values(breakpoints + [(r, 0.0)], r))


def truncation_indicator(
    L: Lattice, p: Polygon, config: NumericsConfig = DEFAULT_CONFIG
) -> int:
    if p.rank != L.rank:
        raise ValueError("polygon rank must match lattice rank")
    pbar = canonical_polygon(L, config)
    return int(all(a <= b for a, b in zip(pbar.values, p.values)))


def parabolic_sum_indicator_rank2(
    L: Lattice, p: Polygon, config: NumericsConfig = DEFAULT_CONFIG
) -> int:
    """1 minus the number of lines beating p(1) in normalized degree.

    For p(1) >= 0 two distinct primitive lines cannot both exceed the
    threshold (their degrees sum to at most deg L), so the count is 0 or 1
    and the result agrees with truncation_indicator.
    """
    if L.rank != 2:
        raise ValueError("rank-2 operation")
    if p.rank != 2:
        raise ValueError("polygon rank must be 2")
    p1 = p.values[1]
    if p1 < 0:
        raise ValueError("needs a nonnegative polygon")
    deg = degree(L)
    threshold = p1 + 0.5 * deg
    # deg(line) > threshold iff |v|^2 < e^{-2 threshold}
    ball = math.exp(-2.0 * threshold)
    count = 0
    for _, q in _primitive_lines(L, ball, config):
        if float(q) < ball:
            count += 1
    return 1 - count


def arthur_correspondence_rank2(
    L: Lattice, T: float, config: NumericsConfig = DEFAULT_CONFIG
) -> tuple[bool, bool]:
    """Polygon-side and height-side truncation indicators at threshold T.

    Both sides are scale-invariant so any covolume is accepted.  The two
    booleans agree for T >= 1; below T = 1 the polygon side saturates at the
    zero polygon while the height side still moves, so no contract is
    claimed there.
    """
    if L.rank != 2:
        raise ValueError("rank-2 operation")
    if T <= 0:
        raise ValueError("threshold must be positive")
    p_t1 = 0.5 * math.log(T)
    polygon_side = canonical_polygon(L, config).values[1] > p_t1
    z, _t = minkowski_point(L)
    height_side = z.y > math.exp(2.0 * p_t1)
    return (polygon_side, height_side)
