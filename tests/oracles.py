"""Independent oracle routes used to freeze expected values.

Everything here is deliberately written from scratch against the classical
definitions (Euler integral, Dirichlet series, brute-force enumerations) so
that the package under test is never compared against itself.  Slow is fine;
these run once per test session on small inputs.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

# ---------- quadrature helper ----------


def gl_panel(f, a: float, b: float, n: int = 80) -> complex:
    """Gauss-Legendre integral of f over [a, b] with n nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))


def gl_panels(f, cuts, n: int = 80) -> complex:
    return sum(gl_panel(f, a, b, n) for a, b in zip(cuts[:-1], cuts[1:]))


# ---------- gamma by the Euler integral ----------


def gamma_euler(s: complex) -> complex:
    """Gamma(s) from the Euler integral, shifted right for stability.

    For Re(s) < 8 computes Gamma(s+k) with the integral and divides back by
    the recurrence; the integrand is then smooth and the [0,120] panels give
    ~1e-14.  Poles are the caller's problem.
    """
    s = complex(s)
    k = 0
    while (s.real + k) < 8.0:
        k += 1
    shifted = s + k

    def integrand(t: float) -> complex:
        return cmath.exp((shifted - 1) * math.log(t) - t)

    val = gl_panels(integrand, [1e-12, 1.0, 5.0, 20.0, 60.0, 120.0, 220.0], n=96)
    for j in range(k):
        val /= s + j
    return val


def gamma_reflection_residual(s: complex) -> float:
    """|Gamma(s)Gamma(1-s) - pi/sin(pi s)| as a cross-check of the oracle."""
    lhs = gamma_euler(s) * gamma_euler(1 - s)
    rhs = math.pi / cmath.sin(math.pi * s)
    return abs(lhs - rhs)


# ---------- zeta / L-values by direct series ----------


def zeta_em(s: complex, n_terms: int = 20000) -> complex:
    """Riemann zeta by Euler-Maclaurin off a direct partial sum (Re s > 1)."""
    s = complex(s)
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = np.sum(ns ** (-s))
    big_n = float(n_terms)
    tail = big_n ** (1 - s) / (s - 1) - 0.5 * big_n ** (-s)
    tail += s * big_n ** (-s - 1) / 12.0
    tail -= s * (s + 1) * (s + 2) * big_n ** (-s - 3) / 720.0
    return complex(partial + tail)


def catalan() -> float:
    """Catalan's constant by the alternating series with half-term correction."""
    n = np.arange(0, 2_000_000, dtype=np.float64)
    terms = (-1.0) ** n / (2.0 * n + 1.0) ** 2
    correction = 0.5 * (-1.0) ** 2_000_000 / (2.0 * 2_000_000 + 1.0) ** 2
    return float(np.sum(terms) + correction)


def xi_oracle(s: complex) -> complex:
    """Completed zeta pi^{-s/2} Gamma(s/2) zeta(s); Re s > 1 or by reflection."""
    s = complex(s)
    if s.real < 0.5:
        s = 1 - s
    return cmath.exp(-s / 2 * math.log(math.pi)) * gamma_euler(s / 2) * zeta_em(s)


# ---------- theta sums, brute force ----------


def theta_1d(u: float, terms: int = 60) -> float:
    return 1.0 + 2.0 * math.fsum(math.exp(-math.pi * n * n * u) for n in range(1, terms))


def theta_box(gram, beyond: float = -1.0) -> float:
    """Sum of exp(-pi x^T G x) over integer x with x^T G x > beyond.

    Scans the box |x_i| <= sqrt(Q (G^-1)_ii), which holds every x with
    x^T G x <= Q = 60 / pi; each point left out weighs below e^-60.
    """
    r = len(gram)
    g = np.array([[float(x) for x in row] for row in gram])
    ginv = np.linalg.inv(g)
    q_max = 60.0 / math.pi
    axes = [np.arange(-m, m + 1) for m in (int(math.sqrt(q_max * ginv[i, i])) + 1 for i in range(r))]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r).astype(float)
    norms = np.einsum("ij,jk,ik->i", pts, g, pts)
    return math.fsum(np.exp(-math.pi * norms[norms > beyond]))


# ---------- Eisenstein / Epstein direct sums ----------


def epstein_full_sum(z: complex, s: complex, n_max: int = 3000) -> complex:
    """pi^{-s} Gamma(s) sum_{(m,n) != 0} y^s / |mz+n|^{2s}, truncated box."""
    y = z.imag
    total = 0.0 + 0.0j
    ns = np.arange(-n_max, n_max + 1, dtype=np.float64)
    for m in range(-n_max, n_max + 1):
        w = m * z + ns
        mod2 = w.real**2 + w.imag**2
        if m == 0:
            mod2[n_max] = 1.0  # placeholder for (0,0), zeroed below
        vals = mod2 ** complex(-s)
        if m == 0:
            vals[n_max] = 0.0
        total += complex(np.sum(vals))
    total *= y ** complex(s)
    return cmath.exp(-s * math.log(math.pi)) * gamma_euler(s) * total


def eisenstein_coset_sum(z: complex, s: complex, n_max: int = 2000) -> complex:
    """xi(2s) * sum over coprime pairs (c,d)/± of y^s / |cz+d|^{2s}."""
    y = z.imag
    acc = 0.0 + 0.0j
    for c in range(0, n_max + 1):
        d_start = 1 if c == 0 else -n_max
        for d in range(d_start, n_max + 1):
            if c == 0 and d != 1:
                continue
            if c > 0 and math.gcd(c, d) != 1:
                continue
            w = c * z + d
            acc += (w.real**2 + w.imag**2) ** complex(-s)
    acc *= y ** complex(s)
    return xi_oracle(2 * s) * acc


def epstein_ball(gram, s: complex, radius: float) -> complex:
    """pi^-s Gamma(s) sum' |v|^-2s for Re s > n/2, from the vectors in a ball.

    Sums q^-s over the nonzero points with q = x^T G x <= radius^2 (scanned
    in the box |x_i| <= radius sqrt((G^-1)_ii), which holds the ball) and
    adds the radial tail (area of the unit sphere / V) radius^(n-2s) / (2s-n)
    of the points outside.
    """
    s = complex(s)
    r = len(gram)
    g = np.array([[float(x) for x in row] for row in gram])
    ginv = np.linalg.inv(g)
    axes = [np.arange(-m, m + 1) for m in (int(radius * math.sqrt(ginv[i, i])) + 1 for i in range(r))]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r).astype(float)
    norms = np.einsum("ij,jk,ik->i", pts, g, pts)
    norms = norms[(norms > 0.0) & (norms <= radius * radius)]
    sphere = 2.0 * math.pi ** (r / 2.0) / math.gamma(r / 2.0)
    tail = sphere / math.sqrt(np.linalg.det(g)) * radius ** (r - 2.0 * s) / (2.0 * s - r)
    total = complex(np.sum(np.exp(-s * np.log(norms)))) + tail
    return cmath.exp(-s * math.log(math.pi)) * gamma_euler(s) * total


# ---------- K-Bessel at order 0: ascending series ----------


def k0_series(y: float) -> float:
    """K_0(y) for small y from the ascending series (Abramowitz-Stegun 9.6.13)."""
    i0 = 0.0
    acc = 0.0
    harmonic = 0.0
    term = 1.0  # (y^2/4)^k / (k!)^2 at k=0
    for k in range(0, 40):
        if k > 0:
            term *= (y * y / 4.0) / (k * k)
            harmonic += 1.0 / k
        i0 += term
        acc += term * harmonic
    euler_gamma = 0.5772156649015328606
    return -(math.log(y / 2.0) + euler_gamma) * i0 + acc


# ---------- SL2(Z) reduction, brute force over short words ----------


def _apply(mat, z: complex) -> complex:
    (a, b), (c, d) = mat
    return (a * z + b) / (c * z + d)


def _mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


def sl2_bruteforce_reduce(z: complex, max_len: int = 6):
    """All words of length <= max_len in {T, T^-1, S}; best fundamental-domain hit.

    Returns (z', matrix) with |Re z'| <= 1/2, |z'| >= 1, canonicalized to the
    x >= 0 side on the boundary.
    """
    gens = {
        "T": ((1, 1), (0, 1)),
        "t": ((1, -1), (0, 1)),
        "S": ((0, -1), (1, 0)),
    }
    ident = ((1, 0), (0, 1))
    frontier = [ident]
    seen = {ident}
    words = [ident]
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for g in gens.values():
                mm = _mul(g, m)
                if mm not in seen and tuple(map(tuple, (-np.array(mm)))) not in seen:
                    seen.add(mm)
                    nxt.append(mm)
                    words.append(mm)
        frontier = nxt
    best = None
    for m in words:
        w = _apply(m, z)
        if abs(w.real) <= 0.5 + 1e-12 and abs(w) >= 1 - 1e-12:
            key = (-w.imag, -w.real)  # max height, then prefer x >= 0
            if best is None or key < best[0]:
                best = (key, w, m)
    assert best is not None, "word length too small for this input"
    return best[1], best[2]


# ---------- divisor sums, exact ----------


def sigma_exact(s_int: int, n: int) -> Fraction:
    total = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total += Fraction(d) ** s_int
    return total


# ---------- short vectors / rank-2 sublattice search, naive box scan ----------


def short_vectors_box(gram, bound, box):
    """All +-classes of nonzero integer vectors with x^T G x <= bound; exact.

    Scans |x_i| <= box, an int or one half-width per coordinate.  A float
    pass drops the points clearly outside; Fraction arithmetic decides the
    rest.  Ordered by norm, then by descending coordinates.
    """
    r = len(gram)
    widths = [box] * r if isinstance(box, int) else list(box)
    g = [[Fraction(x) for x in row] for row in gram]
    axes = [np.arange(-w, w + 1) for w in widths]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    approx = np.einsum("ij,jk,ik->i", pts, np.array(g, dtype=float), pts)
    out = []
    for coeffs in pts[approx <= float(bound) * (1 + 1e-9) + 1e-9].tolist():
        if all(c == 0 for c in coeffs):
            continue
        first = next(c for c in coeffs if c != 0)
        if first < 0:
            continue
        q = Fraction(0)
        for i in range(r):
            for j in range(r):
                q += g[i][j] * coeffs[i] * coeffs[j]
        if q <= bound:
            out.append((tuple(coeffs), q))
    out.sort(key=lambda it: (it[1], tuple(-c for c in it[0])))
    return out


def frac_det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def primitive_box(rows) -> bool | None:
    """Whether k integer rows span every integer point of their rational span.

    None for dependent rows.  A point of the span missing from the row
    lattice exists iff one has the form sum c_i r_i with 0 <= c_i < 1, so
    its coordinates lie in the box |x_j| <= sum_i |r_ij|.  The scan runs
    over that box on k columns with a nonzero minor: each integer point
    there fixes the coefficients c by Cramer's rule, and an integer point of
    the span with a fractional c is the witness.
    """
    k, n = len(rows), len(rows[0])
    cols = next(
        (c for c in combinations(range(n), k) if frac_det([[r[j] for j in c] for r in rows]) != 0),
        None,
    )
    if cols is None:
        return None
    sub = [[r[j] for j in cols] for r in rows]
    d = frac_det(sub)
    box = max(sum(abs(r[j]) for r in rows) for j in range(n))
    for y in product(range(-box, box + 1), repeat=k):
        c = [frac_det(sub[:i] + [list(y)] + sub[i + 1 :]) / d for i in range(k)]
        x = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
        if all(v.denominator == 1 for v in x) and any(ci.denominator != 1 for ci in c):
            return False
    return True


def best_line_degree_box(gram, covol: float, box: int = 6) -> float:
    """max over primitive lines of deg(line) = -log |v|, naive box scan."""
    best = -math.inf
    vecs = short_vectors_box(gram, Fraction(10**9), box)
    for coeffs, q in vecs:
        if math.gcd(*[abs(c) for c in coeffs]) != 1:
            continue
        best = max(best, -0.5 * math.log(float(q)))
    return best


# ---------- SL3 coset pairs, brute force ----------


def coset_pairs_bruteforce(height: int) -> set[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every (v, w, h) with v, w primitive integer 3-vectors whose first
    nonzero coordinate is positive, sup-norm <= height, w . v = 0, and h the
    larger of the two sup-norms; a scan of all vector pairs in the cube."""
    box = range(-height, height + 1)
    vecs = [
        p for p in product(box, repeat=3)
        if any(p) and next(c for c in p if c != 0) > 0 and math.gcd(*p) == 1
    ]
    arr = np.array(vecs)
    sup = np.max(np.abs(arr), axis=1)
    rows, cols = np.nonzero(arr @ arr.T == 0)
    return {
        (vecs[i], vecs[j], int(max(sup[i], sup[j])))
        for i, j in zip(rows.tolist(), cols.tolist())
    }


# ---------- S3 character ring ----------

S3_RANKS = {"triv": 1, "sgn": 1, "std": 2}

S3_FUSION = {
    ("triv", "triv"): ["triv"],
    ("triv", "sgn"): ["sgn"],
    ("triv", "std"): ["std"],
    ("sgn", "triv"): ["sgn"],
    ("sgn", "sgn"): ["triv"],
    ("sgn", "std"): ["std"],
    ("std", "triv"): ["std"],
    ("std", "sgn"): ["std"],
    ("std", "std"): ["triv", "sgn", "std"],
}
