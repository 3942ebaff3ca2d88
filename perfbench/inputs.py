"""Seeded workload inputs as plain data.

Both the worker (which hands them to latzeta's constructors) and the checker
(which hands them to the reference code) build the inputs from here, so the
two sides see the same numbers without either one importing the other.
Nothing here imports latzeta.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("sl3-averages", "sl3-height-sweep", "sl2-height-cut", "exact-lattices")

IDENTITY = (1.0, 1.0, 0.0, 0.0, 0.0)
GENERIC = (1.3, 0.8, 0.21, -0.35, 0.4)
ST_REAL = (3.0, 2.0)
ST_COMPLEX = (3.0, 2.0 + 0.7j)


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


def _sl3_averages(rng: random.Random) -> dict:
    # fixed points and parameters: the kept P0 failures must not depend on
    # the seed, and the averages' accuracy was measured at exactly these
    return {
        "identity": IDENTITY,
        "generic": GENERIC,
        "st_real": ST_REAL,
        "st_complex": ST_COMPLEX,
        "avg_height": 16,
        "p0_height": 10,
    }


def _elementary_product(rng: random.Random) -> list[list[int]]:
    # three elementary factors with entries in [-2, 2], as the sl3 verify suite
    g = np.eye(3, dtype=int)
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        e = np.eye(3, dtype=int)
        e[i, j] = rng.randint(-2, 2)
        g = g @ e
    return g.tolist()


def sl3_matrix(p) -> np.ndarray:
    y1, y2, x1, x2, x3 = p
    return np.array(
        [[y1, y1 * x1, y1 * x2], [0.0, y2, y2 * x3], [0.0, 0.0, 1.0 / (y1 * y2)]]
    )


def translate_point(g, p) -> tuple[float, ...]:
    """The point gY in the same (y1, y2, x1, x2, x3) coordinates.

    gY is the upper-triangular R' with R' R'^T = (g R)(g R)^T, read off the
    Cholesky factor of the index-reversed form.
    """
    gr = np.asarray(g, dtype=float) @ sl3_matrix(p)
    low = np.linalg.cholesky((gr @ gr.T)[::-1, ::-1])
    r = low[::-1, ::-1]
    return (
        float(r[0, 0]),
        float(r[1, 1]),
        float(r[0, 1] / r[0, 0]),
        float(r[0, 2] / r[0, 0]),
        float(r[1, 2] / r[1, 1]),
    )


def _sl3_height_sweep(rng: random.Random) -> dict:
    steps = []
    for height in range(6, 21, 2):
        g = _elementary_product(rng)
        steps.append({"height": height, "g": g, "moved": translate_point(g, GENERIC)})
    return {"point": GENERIC, "st_real": ST_REAL, "st_complex": ST_COMPLEX, "steps": steps}


def _sl2_height_cut(rng: random.Random) -> dict:
    fourier = []
    for k in range(150):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(math.sqrt(1.0 - x * x), 2.5)
        if k % 2:
            s = complex(rng.uniform(0.6, 2.8), rng.uniform(0.5, 4.0))
        else:
            # real s keeps 0.1 away from the pole of the completed series at 1
            s = complex(rng.choice((rng.uniform(0.6, 0.9), rng.uniform(1.1, 3.0))), 0.0)
        w = -1.0 / complex(x, y)
        fourier.append({"z": (x, y), "inverted": (w.real, w.imag), "s": s})
    # Re(nu) <= 1.5: from Re(nu) = 2 at y = 0.05 on, k_bessel raises
    # QuadratureBudget (see the FOUND line on numerics._k_bessel_many in
    # CHANGES.md)
    orders = [complex(rng.uniform(0.0, 1.5), rng.uniform(0.0, 5.0)) for _ in range(6)]
    ys = [float(v) for v in np.geomspace(0.05, 30.0, 24)]
    direct = [
        {
            "z": (rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0)),
            "s": complex(rng.uniform(3.0, 4.0), rng.uniform(0.0, 2.0)),
        }
        for _ in range(4)
    ]
    zeta_points = [complex(rng.uniform(-1.0, 2.0), rng.uniform(0.3, 3.0)) for _ in range(20)]
    xi_points = [complex(rng.uniform(-2.0, 3.0), rng.uniform(0.3, 6.0)) for _ in range(20)]
    return {
        "cuts": [(1.5 + 0j, 1.0), (2.0 + 0j, 1.5), (1.5 + 2j, 3.0)],
        "fourier": fourier,
        "bessel_orders": orders,
        "bessel_ys": ys,
        "direct": direct,
        "zeta_points": zeta_points,
        "xi_points": xi_points,
        "residue_points": [1.0, 0.0],
    }


def _random_basis(rng: random.Random, rank: int, denominators) -> list[list[Fraction]]:
    """Rows U D (I + E): D diagonal in [2/3, 3/2], E strictly upper triangular,
    U a small unimodular change of basis.

    The Gram-Schmidt lengths of D (I + E) are the entries of D, so the
    shortest vector of the lattice and of its dual is at least 2/3, and the
    covolume prod(D) is held in [1/2, 2].  Enumeration cost then depends on
    the shape the seed picks, never on a degenerate scale.  Unequal entries
    of D give the canonical polygons vertices.

    At rank 4 the Hermite ball must hold two independent vectors: with one,
    canonical_polygon bounds its rank-2 search by the first two basis rows
    and can run for minutes (see the FOUND line on
    stability._rank2_in_rank4 in CHANGES.md).
    """
    while True:
        diag = []
        for _ in range(rank):
            den = rng.choice(denominators)
            low, high = -(-2 * den // 3), 3 * den // 2
            diag.append(Fraction(rng.randint(low, high), den))
        if not Fraction(1, 2) <= math.prod(diag) <= 2:
            continue
        rows = []
        for i in range(rank):
            row = [Fraction(0)] * rank
            row[i] = Fraction(1)
            for j in range(i + 1, rank):
                row[j] = Fraction(rng.randint(-2, 2), rng.choice(denominators))
            rows.append([diag[i] * v for v in row])
        for _ in range(3 if rank > 1 else 0):
            i, j = rng.sample(range(rank), 2)
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rank < 4 or _hermite_directions(rows) >= 2:
            return rows


def _hermite_directions(rows) -> int:
    """Rank of the set of lattice vectors inside the Hermite ball
    |x|^2 <= (4/3)^((r-1)/2) det(G)^(1/r), found by a box search."""
    b = np.array(rows, dtype=float)
    g = b @ b.T
    r = len(rows)
    ball = (4.0 / 3.0) ** ((r - 1) / 2.0) * np.linalg.det(g) ** (1.0 / r)
    ginv = np.linalg.inv(g)
    axes = [np.arange(-m, m + 1) for m in (int(math.sqrt(ball * ginv[i, i])) for i in range(r))]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    q = np.einsum("ij,jk,ik->i", pts, g, pts)
    inside = pts[(q <= ball * (1 + 1e-9)) & np.any(pts != 0, axis=1)]
    return int(np.linalg.matrix_rank(inside)) if len(inside) else 0


def _random_flag(rng: random.Random, rank: int) -> list[list[list[int]]]:
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(12):
        i, j = rng.sample(range(rank), 2)
        c = rng.randint(-2, 2)
        for k in range(rank):
            u[i][k] += c * u[j][k]
    ks = sorted(rng.sample(range(1, rank), rng.randint(0, rank - 1))) + [rank]
    return [[list(row) for row in u[:k]] for k in ks]


LATTICE_MIX = ((1, 8), (2, 40), (3, 60), (4, 36))
FLAGS_PER_LATTICE = 6


def _exact_lattices(rng: random.Random) -> dict:
    lattices = []
    for rank, count in LATTICE_MIX:
        for k in range(count):
            denominators = (5, 7) if k % 6 == 5 else (1, 2, 3)
            basis = _random_basis(rng, rank, denominators)
            flags = [_random_flag(rng, rank) for _ in range(FLAGS_PER_LATTICE)] if rank >= 2 else []
            lattices.append({"basis": basis, "flags": flags, "short_bound": Fraction(3)})
    return {"lattices": lattices}


_BUILDERS = {
    "sl3-averages": _sl3_averages,
    "sl3-height-sweep": _sl3_height_sweep,
    "sl2-height-cut": _sl2_height_cut,
    "exact-lattices": _exact_lattices,
}
