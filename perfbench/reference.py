"""Reference values computed apart from latzeta.

Only mpmath, numpy and the standard library are used; nothing here imports
latzeta or reuses its code.  Special functions come from mpmath, the SL3
constant terms are built from the two simple reflections of the parameter
space and the block coordinates of the point, and the exact lattice
quantities come from brute-force box enumeration.  Slow is fine: none of
this runs inside a timed span.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np

mp.mp.dps = 30


# --- special functions ------------------------------------------------------


def xi(s) -> mp.mpc:
    """Completed zeta pi^(-s/2) Gamma(s/2) zeta(s), taken at max(s, 1 - s).

    xi(s) = xi(1 - s); on Re s >= 1/2 the product has no removable
    singularities (at s = -2, -4, ... Gamma's poles meet zeta's zeros).
    """
    s = mp.mpc(s)
    if s.real < 0.5:
        s = 1 - s
    return mp.power(mp.pi, -s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def k_bessel(nu, y) -> complex:
    return complex(mp.besselk(mp.mpc(nu), mp.mpf(y)))


def _sigma(a, n: int) -> mp.mpc:
    return mp.fsum(mp.power(d, a) for d in range(1, n + 1) if n % d == 0)


def ehat(z: tuple[float, float], s) -> complex:
    """Completed SL2 Eisenstein series xi(2s) E(z, s) from its Fourier expansion.

    xi(2s) y^s + xi(2s-1) y^(1-s)
      + 4 sqrt(y) sum_n n^(s-1/2) sigma_(1-2s)(n) K_(s-1/2)(2 pi n y) cos(2 pi n x).
    """
    x, y = mp.mpf(z[0]), mp.mpf(z[1])
    s = mp.mpc(s)
    total = xi(2 * s) * mp.power(y, s) + xi(2 * s - 1) * mp.power(y, 1 - s)
    n_max = int(50 / (2 * math.pi * float(y))) + 6
    for n in range(1, n_max + 1):
        total += (
            4
            * mp.sqrt(y)
            * mp.power(n, s - mp.mpf(1) / 2)
            * _sigma(1 - 2 * s, n)
            * mp.besselk(s - mp.mpf(1) / 2, 2 * mp.pi * n * y)
            * mp.cos(2 * mp.pi * n * x)
        )
    return complex(total)


def height_cut_integral(s, T) -> complex:
    """I_T(s) = xi(2s) T^(s-1)/(s-1) - xi(2s-1) T^(-s)/s."""
    s = mp.mpc(s)
    T = mp.mpf(T)
    return complex(xi(2 * s) * mp.power(T, s - 1) / (s - 1) - xi(2 * s - 1) * mp.power(T, -s) / s)


def rank2_residues() -> tuple[complex, complex]:
    """Residues of I_1 at s = 1 and s = 0: xi(2) - 1/2 and 1/2 - xi(2)."""
    r = xi(2) - mp.mpf(1) / 2
    return complex(r), complex(-r)


# --- SL3 constant terms -------------------------------------------------------

# An affine map of the (s, t) plane is ((a, b, c), (d, e, f)):
# (s, t) -> (a s + b t + c, d s + e t + f).
_ID = ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))
# SL2 functional equation in the index-1 block: u^t <-> u^(1-t), y fixed.
_R1 = ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1), Fraction(1)))
# The same in the index-2 block, where y^s u^t = y2^(-(s+t)/2) u2^((3s-t)/2):
# keep s + t, send (3s - t)/2 to 1 - (3s - t)/2.
_R2 = (
    (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2)),
)


def _compose(p, q):
    """p after q."""
    (a, b, c), (d, e, f) = p
    (a2, b2, c2), (d2, e2, f2) = q
    return (
        (a * a2 + b * d2, a * b2 + b * e2, a * c2 + b * f2 + c),
        (d * a2 + e * d2, d * b2 + e * e2, d * c2 + e * f2 + f),
    )


def weyl_group():
    """Closure of the two simple reflections: the six-element Weyl group."""
    group = [_ID]
    frontier = [_ID]
    while frontier:
        nxt = []
        for g in frontier:
            for r in (_R1, _R2):
                h = _compose(r, g)
                if h not in group:
                    group.append(h)
                    nxt.append(h)
        frontier = nxt
    return group


def _apply(m, s, t):
    (a, b, c), (d, e, f) = m
    return (
        float(a) * s + float(b) * t + float(c),
        float(d) * s + float(e) * t + float(f),
    )


def completion_factor(s, t) -> complex:
    return complex(xi(2 * mp.mpc(t)) * xi(3 * mp.mpc(s) - t) * xi(3 * mp.mpc(s) + t - 1))


def block_coords(p, i: int) -> tuple[float, tuple[float, float]]:
    """(y, (x, u)) of the index-i block decomposition of the point p.

    With R = diag(y1, y2, 1/(y1 y2)) times the unipotent (x1, x2, x3): index 1
    takes the upper-left 2x2 block of R against the last diagonal entry,
    index 2 the lower-right block against the first.
    """
    y1, y2, x1, x2, x3 = p
    if i == 1:
        return (y1 * y2) ** 3, (x1 * y1 / y2, y1 / y2)
    return y1**-3.0, (x3 * y1 * y2 * y2, y1 * y2 * y2)


def _block_exponents(m, i: int):
    """Affine (y_i power, u_i power) of the term y^s' u^t', (s', t') = m(s, t)."""
    if i == 1:
        return m
    (a, b, c), (d, e, f) = m
    half = Fraction(1, 2)
    return (
        (-(a + d) * half, -(b + e) * half, -(c + f) * half),
        ((3 * a - d) * half, (3 * b - e) * half, (3 * c - f) * half),
    )


def p0_constant_term(p, s, t) -> complex:
    """Six-term Weyl sum: sum_w completion_factor(w(s,t)) y^s' u^t' (index 1)."""
    y, (_x, u) = block_coords(p, 1)
    total = mp.mpc(0)
    for w in weyl_group():
        si, ti = _apply(w, s, t)
        total += completion_factor(si, ti) * mp.power(y, si) * mp.power(u, ti)
    return complex(total)


def pi_constant_term(p, s, t, i: int) -> complex:
    """Three-product constant term along the index-i maximal parabolic.

    The six Weyl terms, written in the index-i coordinates, pair up as
    y_i^c u_i^d and y_i^c u_i^(1-d); each pair is the constant term of
    coefficient * y_i^c * ehat(z_i, d), with coefficient = term / xi(2d).
    """
    y, z = block_coords(p, i)
    group = weyl_group()
    exps = [_block_exponents(w, i) for w in group]
    one = (Fraction(0), Fraction(0), Fraction(1))
    used: set[int] = set()
    total = 0j
    for a in range(len(group)):
        if a in used:
            continue
        partner = next(
            b
            for b in range(len(group))
            if b != a
            and b not in used
            and exps[b][0] == exps[a][0]
            and tuple(x + y_ for x, y_ in zip(exps[a][1], exps[b][1])) == one
        )
        used.update((a, partner))
        sa, ta = _apply(group[a], s, t)
        c, d = _apply(exps[a], s, t)
        coeff = completion_factor(sa, ta) / complex(xi(2 * mp.mpc(d)))
        total += coeff * complex(mp.power(y, c)) * ehat(z, d)
    return total


def coset_pair_count(height: int) -> int:
    """Pairs (v, w) of primitive vectors, v . w = 0, sup-norms <= height.

    Both v and w are taken up to sign.  Brute force: for every v the third
    coordinate of w is solved from the first two, or ranges freely when v
    has third coordinate zero.
    """
    h = height
    r = np.arange(-h, h + 1)
    a, b, c = (m.ravel() for m in np.meshgrid(r, r, r, indexing="ij"))

    def canonical_primitive(x, y, z):
        lead = np.where(x != 0, x, np.where(y != 0, y, z))
        return (lead > 0) & (np.gcd(np.gcd(np.abs(x), np.abs(y)), np.abs(z)) == 1)

    keep = canonical_primitive(a, b, c)
    vs = np.stack([a[keep], b[keep], c[keep]], axis=1)
    w0, w1 = (m.ravel() for m in np.meshgrid(r, r, indexing="ij"))
    total = 0
    solved = vs[vs[:, 2] != 0]
    for lo in range(0, len(solved), 256):
        v = solved[lo : lo + 256]
        num = -(v[:, :1] * w0[None, :] + v[:, 1:2] * w1[None, :])
        den = v[:, 2:3]
        ok = (num % den == 0)
        w2 = np.where(ok, num // den, h + 1)
        ok &= np.abs(w2) <= h
        x = np.broadcast_to(w0, ok.shape)
        y = np.broadcast_to(w1, ok.shape)
        total += int(np.sum(ok & canonical_primitive(x, y, w2)))
    flat = vs[vs[:, 2] == 0]
    for v in flat:
        ok = v[0] * a + v[1] * b == 0
        total += int(np.sum(ok & canonical_primitive(a, b, c)))
    return total


# --- exact lattices ---------------------------------------------------------


def gram(basis) -> list[list[Fraction]]:
    n = len(basis)
    return [
        [sum((basis[i][k] * basis[j][k] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def frac_inverse(m) -> list[list[Fraction]]:
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def frac_det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    return sum(
        ((-1) ** j) * m[0][j] * frac_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
    )


def log_frac(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def lattice_degree(g) -> float:
    return -0.5 * log_frac(frac_det(g))


def sub_degree(g, rows) -> float:
    """Degree of the sublattice spanned by integer coordinate rows."""
    n = len(g)
    sub = [
        [sum(Fraction(ra[i]) * g[i][j] * rb[j] for i in range(n) for j in range(n)) for rb in rows]
        for ra in rows
    ]
    return -0.5 * log_frac(frac_det(sub))


def _box(g, radius2: float) -> np.ndarray:
    """Integer points x with |x_i| <= sqrt(radius2 (G^-1)_ii), a superset of the ball."""
    ginv = np.linalg.inv(np.array(g, dtype=float))
    lims = [int(math.floor(math.sqrt(radius2 * ginv[i, i]) + 1e-9)) for i in range(len(g))]
    axes = [np.arange(-m, m + 1) for m in lims]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def box_theta_h0(g) -> float:
    """log sum_{x in Z^r} exp(-pi x^T G x) over a box holding every x with
    pi x^T G x <= 40, beyond which the tail is below 1e-15."""
    pts = _box(g, 40.0 / math.pi + 2.0)
    q = np.einsum("ij,jk,ik->i", pts, np.array(g, dtype=float), pts)
    return math.log(math.fsum(np.exp(-math.pi * q)))


def box_short_vectors(g, bound: Fraction) -> set[tuple[int, ...]]:
    """Canonical (first nonzero positive) x != 0 with x^T G x <= bound, exactly."""
    pts = _box(g, float(bound) + 1e-6)
    q = np.einsum("ij,jk,ik->i", pts, np.array(g, dtype=float), pts)
    out = set()
    n = len(g)
    for x in pts[q <= float(bound) + 1e-6]:
        x = tuple(int(v) for v in x)
        if not any(x):
            continue
        exact = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
        if exact <= bound:
            lead = next(v for v in x if v)
            out.add(x if lead > 0 else tuple(-v for v in x))
    return out


def rank2_best_line_value(g) -> float:
    """values[1] of the rank-2 canonical polygon: max(0, deg(best line) - deg(L)/2).

    The shortest vector is no longer than the first basis vector, so the
    box for |x|^2 <= G_11 holds it.
    """
    pts = _box(g, float(g[0][0]) + 1e-6)
    best = min(
        sum(int(x[i]) * g[i][j] * int(x[j]) for i in range(2) for j in range(2))
        for x in pts
        if any(x)
    )
    return max(0.0, -0.5 * log_frac(best) - 0.5 * lattice_degree(g))


def flag_polygon_values(g, steps) -> list[float]:
    r = len(g)
    deg = lattice_degree(g)
    pts = [(0, 0.0)] + [(len(rows), sub_degree(g, rows) - len(rows) / r * deg) for rows in steps]
    values = []
    for k in range(r + 1):
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= k <= x1:
                values.append(y0 + (y1 - y0) * (k - x0) / (x1 - x0))
                break
    values[0] = values[r] = 0.0
    return values


# --- S3 fusion --------------------------------------------------------------

# classes of S3: identity, transpositions, 3-cycles
_CLASS_SIZES = (1, 3, 2)
_CHARACTERS = {"trivial": (1, 1, 1), "sign": (1, -1, 1), "standard": (2, 0, -1)}
# the built-in bundles of ranks 1, 1, 2 are named after these irreducibles
BUNDLE_IRREP = {"s11": "trivial", "s12": "sign", "s21": "standard"}


def s3_fusion_table() -> dict[tuple[str, str], tuple[str, ...]]:
    """Tensor-product decompositions of S3 irreducibles from the character table."""
    name_of = {v: k for k, v in BUNDLE_IRREP.items()}
    table = {}
    for a, b in product(sorted(BUNDLE_IRREP), repeat=2):
        chi = [x * y for x, y in zip(_CHARACTERS[BUNDLE_IRREP[a]], _CHARACTERS[BUNDLE_IRREP[b]])]
        parts = []
        for irrep, psi in _CHARACTERS.items():
            mult = sum(n * x * y for n, x, y in zip(_CLASS_SIZES, chi, psi)) // 6
            parts += [name_of[irrep]] * mult
        table[(a, b)] = tuple(sorted(parts))
    return table


def par_degree(bundle) -> Fraction:
    """Ordinary degree plus every parabolic weight, for (rank, degrees, weights)."""
    _rank, degrees, weights = bundle
    return Fraction(sum(degrees)) + sum((sum(ws, Fraction(0)) for ws in weights.values()), Fraction(0))
