"""Z-lattices in R^r (r <= 4) with exact rational data.

A lattice is carried either by a basis matrix (rows are basis vectors) or by
an exact Gram matrix; the Gram form admits sqrt(3)-style geometry without
leaving Q.  Degree is -log covolume, duality is inverse-transpose (Gram
inverse), and the cohomology counts are log-theta sums

    h0(L) = log sum_{x in L} exp(-pi |x|^2),    h1(L) = h0(dual L),

so h0 - h1 - deg == 0 is exactly Poisson summation and doubles as the
module's global self-test.

Exact work runs on integer matrices: a rational matrix is M / den with den
the lcm of its entry denominators.  The Gram is G_int / den, built on first
use, and a norm x^T G x is the integer x^T G_int x over den.  A basis
B = M / den has Gram M M^T / den^2.  A determinant is a Bareiss elimination
(intmat.bareiss_det), and duality is the adjugate built from its minors:
B^-1 = den adj(M) / det(M), whose transpose is the dual basis, and the dual
Gram is den adj(G_int) / det(G_int).  Vector enumeration is Fincke-Pohst
from a float Cholesky factor, expanded one coordinate level at a time over
all prefixes at once and filtered by the integer norm, so no vector inside
the bound is ever missed or misreported.

Both theta routes, theta_h0 and the Epstein zeta _epstein_split (two theta
integrals over t >= 1, on L and on its dual, joined at t = 1 by the same
Poisson step), enumerate at a radius from Banaszczyk's bound (Math. Ann.
296, 1993, Lemma 1.5): for c >= 1/sqrt(2 pi) the Gaussian mass of a rank-n
lattice outside the ball of radius c sqrt(n) is below beta^n times the
whole, beta = c sqrt(2 pi e) exp(-pi c^2), whatever its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EnumerationOverflow, NonConvergence, PoleProximity, SingularBasis
from .halfplane import UpperHalfPoint
from .intmat import adjugate, bareiss_det, row_hnf
from .jsonio import frac_to_str, str_to_frac
from .numerics import DEFAULT_CONFIG, NumericsConfig, _gl_orders, _gl_panels

__all__ = [
    "Lattice",
    "CohomologyReport",
    "covolume",
    "degree",
    "dual",
    "theta_h0",
    "theta_h1",
    "riemann_roch",
    "short_vectors",
    "minkowski_point",
    "scale",
    "direct_sum",
    "hnf_basis",
]

FracMatrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def _as_frac_matrix(rows) -> FracMatrix:
    out = tuple(tuple(Fraction(v) for v in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(row) != n for row in out):
        raise ValueError("matrix must be square and nonempty")
    return out


def _scaled_integer(m: FracMatrix) -> tuple[IntMatrix, int]:
    """(M, den) with m == M / den, den the lcm of the entry denominators."""
    den = math.lcm(*(v.denominator for row in m for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in m), den


def _log_frac(q: Fraction) -> float:
    if q <= 0:
        raise ValueError("log of nonpositive rational")
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class Lattice:
    """Full-rank Z-lattice, rank 1..4, with exact rational Gram matrix.

    Construct via from_basis (rows are basis vectors) or from_gram.  The
    basis is kept when given so duality can return honest coordinates;
    Gram-only lattices stay Gram-only through every operation.
    """

    rank: int
    gram: FracMatrix
    basis: FracMatrix | None = None

    @staticmethod
    def from_basis(rows) -> "Lattice":
        b = _as_frac_matrix(rows)
        r = len(b)
        if not 1 <= r <= 4:
            raise ValueError(f"rank must be in 1..4, got {r}")
        m, den = _scaled_integer(b)
        if bareiss_det(m) == 0:
            raise SingularBasis("basis rows are linearly dependent")
        g = tuple(tuple(Fraction(sum(x * y for x, y in zip(u, v)), den * den) for v in m) for u in m)
        return Lattice(rank=r, gram=g, basis=b)

    @staticmethod
    def from_gram(rows) -> "Lattice":
        g = _as_frac_matrix(rows)
        r = len(g)
        if not 1 <= r <= 4:
            raise ValueError(f"rank must be in 1..4, got {r}")
        for i in range(r):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        # Sylvester: every leading principal minor positive
        gi = _scaled_integer(g)[0]
        if any(bareiss_det([row[:k] for row in gi[:k]]) <= 0 for k in range(1, r + 1)):
            raise SingularBasis("Gram matrix is not positive definite")
        return Lattice(rank=r, gram=g)

    @staticmethod
    def from_json(data: dict) -> "Lattice":
        r = data["rank"]
        if "basis" in data:
            rows = [[str_to_frac(v) for v in row] for row in data["basis"]]
            lat = Lattice.from_basis(rows)
        elif "gram" in data:
            rows = [[str_to_frac(v) for v in row] for row in data["gram"]]
            lat = Lattice.from_gram(rows)
        else:
            raise ValueError("lattice JSON needs a 'basis' or 'gram' key")
        if lat.rank != r:
            raise ValueError(f"declared rank {r} does not match matrix size {lat.rank}")
        return lat

    def to_json(self) -> dict:
        if self.basis is not None:
            return {
                "rank": self.rank,
                "basis": [[frac_to_str(v) for v in row] for row in self.basis],
            }
        return {
            "rank": self.rank,
            "gram": [[frac_to_str(v) for v in row] for row in self.gram],
        }

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """A hash of the compared fields, computed once: the Fraction entries
        make it cost tens of microseconds, and memo lookups hash every call.

        A missing basis hashes as (), not None, so the value is the same in
        every process and stays valid in a pickled lattice (before Python
        3.12, hash(None) varies from process to process).
        """
        return hash((self.rank, self.gram, self.basis or ()))

    @cached_property
    def _int_gram(self) -> tuple[IntMatrix, int]:
        """(G_int, den) with gram == G_int / den, built on first use."""
        return _scaled_integer(self.gram)

    @cached_property
    def _dual(self) -> "Lattice":
        """(M / den)^-1 = den adj(M) / det(M), on the basis or the Gram."""
        m, den = self._int_gram if self.basis is None else _scaled_integer(self.basis)
        adj = adjugate(m)
        det = sum(a * row[0] for a, row in zip(m[0], adj))
        inv = [[Fraction(den * v, det) for v in row] for row in adj]
        if self.basis is None:
            return Lattice.from_gram(inv)
        return Lattice.from_basis(list(zip(*inv)))

    def gram_det(self) -> Fraction:
        g, den = self._int_gram
        return Fraction(bareiss_det(g), den**self.rank)


@dataclass(frozen=True)
class CohomologyReport:
    h0: float
    h1: float
    degree: float
    rr_defect: float


def covolume(L: Lattice) -> float:
    return math.exp(-degree(L))


def degree(L: Lattice) -> float:
    d = L.gram_det()
    if d <= 0:
        raise SingularBasis("Gram determinant must be positive")
    return -0.5 * _log_frac(d)


def dual(L: Lattice) -> Lattice:
    """Inverse-transpose basis, or inverse Gram, built once per lattice."""
    return L._dual


def _enumerate_classes(
    L: Lattice, norm_bound, config: NumericsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """All +-classes of nonzero x with q(x) <= norm_bound, and den * q(x).

    Rows of the first array are the classes, first nonzero coordinate
    positive, ordered by norm and then by descending coordinates; the second
    array holds their integer norms x^T G_int x.  Candidates come from a
    float Cholesky factor with slack; membership is settled by the integer
    form, so float error can only cost a handful of wasted candidates, never
    a wrong answer.  Each level adds its candidate count to visited and
    checks the budget before the level is built, so memory stays
    proportional to vector_budget.
    """
    bound = Fraction(norm_bound)
    if bound <= 0:
        raise ValueError("norm_bound must be positive")
    r = L.rank
    g = np.array([[float(v) for v in row] for row in L.gram], dtype=float)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularBasis("Gram matrix is numerically singular") from exc
    R = chol.T  # upper triangular, q(x) = |R x|^2
    budget = config.vector_budget
    visited = 0.0
    # one row per prefix (x_i, ..., x_{r-1}): its coordinates, the partial
    # sums of x_j R[:, j] over j >= i, and the squared length still allowed
    coords = np.zeros((1, 0), dtype=np.int64)
    shift = np.zeros((1, r))
    remaining = np.array([float(bound) * (1.0 + 1e-9) + 1e-9])
    for i in range(r - 1, -1, -1):
        rii = R[i, i]
        c = -shift[:, i] / rii
        half_width = np.sqrt(np.maximum(remaining, 0.0)) / abs(rii)
        lo = np.ceil(c - half_width - 1e-9)
        hi = np.floor(c + half_width + 1e-9)
        if i == r - 1:
            lo = np.maximum(lo, 0.0)  # +-symmetry: leading coordinate nonnegative
        counts = np.maximum(hi - lo + 1.0, 0.0)
        visited += counts.sum()
        if visited > budget:
            raise EnumerationOverflow(f"vector enumeration exceeded budget {budget}")
        counts = counts.astype(np.int64)
        parent = np.repeat(np.arange(len(counts)), counts)
        xi = lo[parent] + (np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent])
        t = rii * xi + shift[parent, i]
        rem = remaining[parent] - t * t
        keep = rem >= -1e-9
        parent, xi = parent[keep], xi[keep]
        coords = np.column_stack([xi.astype(np.int64), coords[parent]])
        shift = shift[parent] + xi[:, None] * R[:, i]
        remaining = np.maximum(rem[keep], 0.0)

    x = coords[np.any(coords != 0, axis=1)]
    lead = x[np.arange(len(x)), np.argmax(x != 0, axis=1)]
    x = x * np.sign(lead)[:, None]
    gi, den = L._int_gram
    # |x^T G x| <= max|G| (sum |x_i|)^2 bounds every partial sum too
    size = max(abs(v) for row in gi for v in row) * int(np.abs(x).sum(axis=1).max(initial=1)) ** 2
    dtype = np.int64 if size < 2**62 else object
    xd = x.astype(dtype)
    q = ((xd @ np.array(gi, dtype=dtype)) * xd).sum(axis=1)
    # bound * den may carry a 2^52 denominator: compare with its floor
    keep = q <= bound.numerator * den // bound.denominator
    x, q = x[keep], q[keep]
    order = np.lexsort((*(-x[:, ::-1].T), q))
    x, q = x[order], q[order]
    # both orientations of a vector on the x_{r-1} = 0 hyperplane are reached;
    # sorted, the copies are adjacent (np.unique(axis=0) imports 1 MB of numpy.ma)
    fresh = np.ones(len(x), dtype=bool)
    fresh[1:] = np.any(x[1:] != x[:-1], axis=1)
    return x[fresh], q[fresh]


def short_vectors(
    L: Lattice, norm_bound, config: NumericsConfig = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """Nonzero vectors with squared length <= norm_bound, one per +- pair."""
    return [tuple(x) for x in _enumerate_classes(L, norm_bound, config)[0].tolist()]


def _theta_radius2(rank: int, tol: float) -> float:
    """n c^2 at which Banaszczyk's tail factor beta(c)^n equals min(tol, 1) / 10.

    With u = pi c^2, log beta = log(2 e u) / 2 - u, so the condition is
    f(u) = u - log(2 e u) / 2 - target = 0.  f is increasing and convex for
    u > 1/2, so after Newton's first step every iterate lies at or right of
    the root and is a valid radius; four steps reach double precision.
    """
    target = -math.log(min(tol, 1.0) / 10.0) / rank
    u = 1.0 + target
    for _ in range(4):
        u -= (u - 0.5 * math.log(2.0 * math.e * u) - target) / (1.0 - 0.5 / u)
    return rank * u / math.pi


def theta_h0(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> float:
    """log sum_{x in L} exp(-pi |x|^2), truncated at Banaszczyk's radius.

    At beta^n = abs_tol / 10 the vectors left out cost at most
    -log(1 - beta^n) <= beta^n / (1 - beta^n) of h0.  The only failure is
    EnumerationOverflow past vector_budget, never NonConvergence.
    """
    _, q = _enumerate_classes(L, Fraction(_theta_radius2(L.rank, config.abs_tol)), config)
    den = L._int_gram[1]
    return math.log1p(math.fsum(2.0 * np.exp(-math.pi * (q.astype(float) / float(den)))))


def theta_h1(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> float:
    return theta_h0(dual(L), config)


def _epstein_split(L: Lattice, s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Lambda_L(s) = pi^-s Gamma(s) sum' |v|^-2s, off the poles 0 and n/2, as

        int_1^inf (theta_L - 1) t^{s-1} dt + V^-1 int_1^inf (theta_{L*} - 1) t^{n/2-s-1} dt
        - 1/s - V^-1 / (n/2 - s)

    (Riemann 1859; Epstein, Math. Ann. 56, 1903).  Both thetas are cut at one
    radius rho: Banaszczyk's bound, theta_L(1) = V^-1 theta_{L*}(1) <=
    prod (1 + 1/b*_i) over the Gram-Schmidt lengths, and e^{-pi t q} <=
    e^{-pi q} e^{-pi rho^2 (t - 1)} bound what is left out.  The panels
    1, 2, 4, ..., U are sized by the Bernstein-ellipse bound, and U by the
    tail bound W e^{-pi q_0 (t - 1)} U^{Re a} e^{max(Re a, 0) (t - U) / U},
    W = sum 2 e^{-pi q}.  Each of the six errors is under abs_tol / 60.
    """
    s, n = complex(s), L.rank
    if abs(s) < config.pole_guard_radius or abs(s - n / 2) < config.pole_guard_radius:
        raise PoleProximity(f"Epstein zeta pole guard at s = {s}")
    tol, v = config.abs_tol / 60.0, covolume(L)
    theta1 = float(np.prod(1.0 + 1.0 / np.diag(np.linalg.cholesky(np.array(L.gram, dtype=float)))))
    # pi rho^2 >= 1 + max(Re a, 0) keeps int_1^inf e^{-pi rho^2 (t - 1)} |t^a| dt <= 1
    rho2 = max(_theta_radius2(n, 10.0 * tol / theta1), max(s.real, n / 2 - s.real, 1.0) / math.pi)

    def side(M: Lattice, a: complex, tol: float) -> complex:
        """int_1^inf (theta_M - 1) t^a dt over M's vectors inside rho, to 2 tol."""
        q = _enumerate_classes(M, rho2, config)[1].astype(float) / float(M._int_gram[1])
        if len(q) == 0:
            return 0j
        c, sig = math.pi * q[0], max(a.real, 0.0)

        def theta(x, shift=0.0):
            # sum_q 2 e^{-pi (q - shift) x} at every x, 1024 norms at a time
            parts = (np.multiply.outer(x, q[i : i + 1024] - shift) for i in range(0, len(q), 1024))
            return sum(2.0 * np.exp(-math.pi * p).sum(axis=-1) for p in parts)

        def log_weight(r, _m=None, _big_r=None):
            # |theta(t)| <= theta(Re t); e^{-pi q_0 r} is taken out so the log stays finite
            return np.log(theta(r, q[0])) - c * r

        u, log_w = 2.0, log_weight(1.0) - math.log(tol)
        while c <= sig / u or log_w + a.real * math.log(u) - c * (u - 1.0) > math.log(c - sig / u):
            u *= 2.0
        edges = 2.0 ** np.arange(round(math.log2(u)) + 1)
        t, w = _gl_panels(edges, _gl_orders(edges, (a,), log_weight, tol / (len(edges) - 1)))
        return complex(w @ (theta(t) * t**a))

    lam = side(L, s - 1.0, tol) + side(dual(L), n / 2 - s - 1.0, tol * v) / v
    return lam - 1.0 / s - 1.0 / (v * (n / 2 - s))


def riemann_roch(L: Lattice, config: NumericsConfig = DEFAULT_CONFIG) -> CohomologyReport:
    h0 = theta_h0(L, config)
    h1 = theta_h1(L, config)
    deg = degree(L)
    return CohomologyReport(h0=h0, h1=h1, degree=deg, rr_defect=h0 - h1 - deg)


def minkowski_point(L: Lattice) -> tuple[UpperHalfPoint, float]:
    """Reduce a rank-2 lattice to its shape point in the fundamental domain.

    Exact Gauss reduction on the Gram matrix; returns (z, t) with z = x + iy,
    |x| <= 1/2, x^2 + y^2 >= 1, and t = det^{1/4} the similarity scale to a
    covolume-1 lattice.  Gram data cannot see orientation, so x >= 0 always
    (ties on the boundary land at +1/2).
    """
    if L.rank != 2:
        raise ValueError("minkowski_point needs a rank-2 lattice")
    a = L.gram[0][0]
    b = L.gram[0][1]
    c = L.gram[1][1]
    for _ in range(10000):
        k = round(Fraction(b, a))
        if k:
            c = c - 2 * k * b + k * k * a
            b = b - k * a
        if c < a:
            a, b, c = c, -b, a
            continue
        if 2 * abs(b) <= a:
            break
    else:
        raise NonConvergence("Gauss reduction did not terminate")
    det = a * c - b * b
    x = float(abs(Fraction(b, a)))
    y = math.exp(0.5 * _log_frac(det) - _log_frac(a))
    t = math.exp(0.25 * _log_frac(det))
    return UpperHalfPoint(x, y), t


def scale(L: Lattice, t) -> Lattice:
    """The lattice t*L (every vector multiplied by t > 0)."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    if L.basis is not None:
        return Lattice.from_basis(tuple(tuple(t * v for v in row) for row in L.basis))
    t2 = t * t
    return Lattice.from_gram(tuple(tuple(t2 * v for v in row) for row in L.gram))


def direct_sum(L1: Lattice, L2: Lattice) -> Lattice:
    """Orthogonal direct sum; theta factorizes so h0 adds."""
    r = L1.rank + L2.rank
    if r > 4:
        raise ValueError("direct sum exceeds the supported rank 4")
    if L1.basis is not None and L2.basis is not None:
        z1 = (Fraction(0),) * L2.rank
        z2 = (Fraction(0),) * L1.rank
        rows = [row + z1 for row in L1.basis] + [z2 + row for row in L2.basis]
        return Lattice.from_basis(rows)
    z1 = (Fraction(0),) * L2.rank
    z2 = (Fraction(0),) * L1.rank
    rows = [row + z1 for row in L1.gram] + [z2 + row for row in L2.gram]
    return Lattice.from_gram(rows)


def hnf_basis(L: Lattice) -> FracMatrix:
    """Canonical basis via scaled-integer Hermite normal form.

    Two basis-backed lattices are equal as subsets of R^r iff this agrees.
    """
    if L.basis is None:
        raise ValueError("hnf_basis needs a basis-backed lattice")
    m, den = _scaled_integer(L.basis)
    h = row_hnf(m)
    return tuple(tuple(Fraction(v, den) for v in row) for row in h)
