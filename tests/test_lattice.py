"""Lattice layer: degree, duality, theta cohomology, enumeration, reduction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from latzeta.errors import EnumerationOverflow, PoleProximity, SingularBasis
from latzeta.lattice import (
    CohomologyReport,
    Lattice,
    _enumerate_classes,
    _epstein_split,
    _theta_radius2,
    covolume,
    degree,
    direct_sum,
    dual,
    hnf_basis,
    minkowski_point,
    riemann_roch,
    scale,
    short_vectors,
    theta_h0,
    theta_h1,
)
from latzeta.numerics import DEFAULT_CONFIG, NumericsConfig

# direct summation oracles (independent of the package enumeration)
H0_Z1 = 0.08290152003105464          # log(1 + 2 sum e^{-pi n^2})
H0_2Z = 6.974660389446011e-06        # log(1 + 2e^{-4pi} + 2e^{-16pi} + ...)
THETA_HEX = 1.2597886341224682       # brute force over the box [-25,25]^2

Z1 = Lattice.from_basis([[1]])
Z2 = Lattice.from_basis([[1, 0], [0, 1]])
Z3 = Lattice.from_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
Z4 = Lattice.from_basis([[int(i == j) for j in range(4)] for i in range(4)])
HEX = Lattice.from_gram([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])


def random_lattice(rng, rank, span=3):
    while True:
        rows = [[Fraction(rng.randint(-span, span)) for _ in range(rank)] for _ in range(rank)]
        try:
            return Lattice.from_basis(rows)
        except (SingularBasis, ValueError):
            continue


def shaped_rows(rng, rank):
    """Rows D (I + E) with E strictly upper triangular: the Gram-Schmidt
    lengths are the diagonal D in [1/2, 2]."""
    rows = []
    for i in range(rank):
        d = Fraction(rng.randint(2, 8), 4)
        rows.append([d * (1 if j == i else 0 if j < i else Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))))
                     for j in range(rank)])
    return rows


def shaped_lattice(rng, rank):
    """shaped_rows mixed by unimodular row operations, so neither the
    lattice nor its dual has a very short vector and box scans stay small."""
    rows = shaped_rows(rng, rank)
    for _ in range(3 if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        sign = rng.choice((-1, 1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return Lattice.from_basis(rows)


def box_widths(L, bound) -> list[int]:
    """Half-widths of a coordinate box holding every x with x^T G x <= bound."""
    ginv = np.linalg.inv(np.array(L.gram, dtype=float))
    return [int(math.sqrt(float(bound) * d)) + 1 for d in np.diag(ginv)]


# denominators near 10^12 push x^T G_int x past int64
BIG_DEN = Lattice.from_gram(
    [
        [1 + Fraction(1, 10**12 + 39), Fraction(1, 2) - Fraction(1, 10**12 + 3)],
        [Fraction(1, 2) - Fraction(1, 10**12 + 3), Fraction(4, 3) + Fraction(7, 10**12 + 9)],
    ]
)


class TestDegree:
    def test_identity(self):
        for L in (Z1, Z2, Z3):
            assert covolume(L) == 1.0
            assert degree(L) == 0.0

    def test_rank1_scale(self):
        assert abs(degree(Lattice.from_basis([[2]])) + math.log(2)) < 1e-15

    def test_matches_exact_determinant(self):
        L = Lattice.from_basis([[Fraction(3, 2), 1], [0, Fraction(4, 5)]])
        assert abs(covolume(L) - 6 / 5) < 1e-15

    def test_singular_rejected(self):
        with pytest.raises(SingularBasis):
            Lattice.from_basis([[1, 2], [2, 4]])
        with pytest.raises(SingularBasis):
            Lattice.from_gram([[1, 2], [2, 1]])  # indefinite


def test_shaped_lattice_mixes_by_unimodular_steps():
    # the steps keep the covolume prod D; one sign per step keeps them unimodular
    rows = shaped_rows(random.Random(4), 4)
    L = shaped_lattice(random.Random(4), 4)
    assert L.gram_det() == math.prod(rows[i][i] for i in range(4)) ** 2


class TestDual:
    def test_self_dual(self):
        assert hnf_basis(dual(Z2)) == hnf_basis(Z2)

    def test_built_once_per_lattice(self):
        L = Lattice.from_gram([[2, 1], [1, 3]])
        assert dual(L) is dual(L)
        assert dual(L).gram == ((Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5)))

    def test_involution_and_degree_flip(self):
        rng = random.Random(11)
        for _ in range(20):
            L = random_lattice(rng, rng.choice([1, 2, 3]))
            D = dual(L)
            assert abs(degree(D) + degree(L)) < 1e-12
            assert hnf_basis(dual(D)) == hnf_basis(L)

    def test_gram_only_involution(self):
        D = dual(HEX)
        assert dual(D).gram == HEX.gram

    def test_exact_inverses(self):
        # rational bases with mixed denominators; the Gram-only copy must
        # carry the inverse Gram and the basis copy the inverse transpose
        rng = random.Random(23)
        for _ in range(60):
            r = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(r)] for _ in range(r)]
            if oracles.frac_det(rows) == 0:
                continue
            eye = [[int(i == j) for j in range(r)] for i in range(r)]
            B = Lattice.from_basis(rows)
            assert [[sum(a * b for a, b in zip(u, v)) for v in dual(B).basis] for u in rows] == eye
            L = Lattice.from_gram(B.gram)
            G, H = L.gram, dual(L).gram
            assert [[sum(G[i][t] * H[t][j] for t in range(r)) for j in range(r)] for i in range(r)] == eye
            assert dual(dual(L)).gram == L.gram

    def test_covolume_reciprocal(self):
        L = Lattice.from_basis([[2, 1], [0, 3]])
        assert abs(covolume(dual(L)) - 1 / 6) < 1e-15


class TestTheta:
    def test_rank1_values(self):
        assert abs(theta_h0(Z1) - H0_Z1) < 1e-12
        assert abs(theta_h0(scale(Z1, 2)) - H0_2Z) < 1e-14

    def test_hexagonal_gram(self):
        assert abs(theta_h0(HEX) - math.log(THETA_HEX)) < 1e-12

    def test_direct_sum_additive(self):
        lhs = theta_h0(direct_sum(Z1, scale(Z1, 2)))
        assert abs(lhs - (theta_h0(Z1) + theta_h0(scale(Z1, 2)))) < 1e-12

    def test_h1_is_dual_h0(self):
        rng = random.Random(5)
        for _ in range(5):
            L = random_lattice(rng, 2)
            assert theta_h1(L) == theta_h0(dual(L))

    def test_monotone_under_scaling(self):
        prev = theta_h0(Z2)
        for t in (Fraction(5, 4), Fraction(3, 2), 2, 3):
            cur = theta_h0(scale(Z2, t))
            assert cur < prev
            prev = cur

    def test_nonnegative(self):
        assert theta_h0(scale(Z1, 50)) >= 0.0

    def test_budget_overflow(self):
        tiny = NumericsConfig(vector_budget=10)
        with pytest.raises(EnumerationOverflow):
            theta_h0(scale(Z2, Fraction(1, 20)), tiny)


SHAPED = [shaped_lattice(random.Random(100 * rank + k), rank) for rank in (1, 2, 3, 4) for k in range(3)]
THETA_CASES = (
    SHAPED
    + [dual(L) for L in SHAPED]
    + [scale(Z3, Fraction(1, 3)), scale(Z1, 5), HEX, BIG_DEN]
)


class TestThetaOracle:
    """theta_h0 against the box-scan oracle, and the Banaszczyk radius
    against the oracle's own tail beyond it."""

    @pytest.mark.parametrize("L", THETA_CASES, ids=lambda L: f"rank{L.rank}")
    def test_matches_box_sum(self, L):
        assert abs(theta_h0(L) - math.log(oracles.theta_box(L.gram))) <= 1e-12

    @pytest.mark.parametrize("L", THETA_CASES, ids=lambda L: f"rank{L.rank}")
    def test_tail_beyond_radius(self, L):
        tol = DEFAULT_CONFIG.abs_tol
        radius2 = _theta_radius2(L.rank, tol)
        assert oracles.theta_box(L.gram, beyond=radius2) <= tol / 10 * oracles.theta_box(L.gram)

    def test_radius_values(self):
        got = [_theta_radius2(n, 1e-12) for n in (1, 2, 3, 4)]
        assert [round(v, 2) for v in got] == [10.35, 10.97, 11.53, 12.04]


A3 = Lattice.from_gram([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
SKEW3 = Lattice.from_basis(
    [[Fraction(3, 2), Fraction(1, 3), 0], [Fraction(1, 2), Fraction(5, 4), Fraction(-1, 2)],
     [0, Fraction(2, 3), Fraction(7, 5)]]
)
SKEW4 = Lattice.from_basis(  # the basis of test_stability.TestSkewRank4
    [
        [Fraction(3, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(-4, 3)],
        [0, Fraction(4, 3), Fraction(8, 3), 0],
        [0, 0, Fraction(2, 3), Fraction(-4, 3)],
        [Fraction(3, 2), Fraction(1, 2), -1, Fraction(3, 2)],
    ]
)


class TestEpsteinSplit:
    """The theta split against ball sums with their radial tail, and the
    functional equation Lambda_L(s) = V^-1 Lambda_{L*}(n/2 - s)."""

    @pytest.mark.parametrize(
        "L, radius, points",
        [
            (Z3, 30, (4.0, complex(3.0, 2.0))),
            (A3, 30, (4.0, complex(3.0, 2.0))),
            (SKEW3, 30, (4.0, complex(3.0, 2.0))),
            (SKEW4, 6, (5.0, complex(4.0, 1.5))),
        ],
        ids=["Z3", "A3", "skew3", "skew4"],
    )
    def test_matches_ball_sum(self, L, radius, points):
        # the oracle's own error, the lattice-point discrepancy of the ball
        # against its radial tail, is of order radius^(n - 1 - 2 Re s)
        for s in points:
            tol = 0.1 * radius ** (L.rank - 1 - 2 * complex(s).real)
            assert abs(_epstein_split(L, s) - oracles.epstein_ball(L.gram, s, radius)) < tol, s

    def test_rank1_is_twice_xi(self):
        for s in (3.0, complex(0.3, 2.0), complex(-2.0, 1.0)):
            assert abs(_epstein_split(Z1, s / 2) - 2 * oracles.xi_oracle(s)) < 1e-11, s

    def test_pole_guard(self):
        for L, pole in ((Z1, 0.5), (Z3, 0.0), (SKEW4, 2.0)):
            with pytest.raises(PoleProximity):
                _epstein_split(L, pole)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        rank=st.integers(1, 4),
        seed=st.integers(0, 10**6),
        s=st.complex_numbers(max_magnitude=4.0).filter(lambda z: abs(z.imag) <= 3.0),
    )
    def test_functional_equation(self, rank, seed, s):
        L = shaped_lattice(random.Random(seed), rank)
        assume(min(abs(s), abs(s - rank / 2)) > 0.1)
        lhs = _epstein_split(L, s)
        rhs = _epstein_split(dual(L), rank / 2 - s) / covolume(L)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs)), (L, s)


class TestRiemannRoch:
    def test_identity_exact(self):
        for L in (Z1, Z2, Z3):
            rep = riemann_roch(L)
            assert isinstance(rep, CohomologyReport)
            assert abs(rep.rr_defect) < 1e-12

    def test_scaled_rank1(self):
        assert abs(riemann_roch(scale(Z1, 3)).rr_defect) < 1e-9

    def test_random_rank3(self):
        rng = random.Random(23)
        for _ in range(10):
            L = random_lattice(rng, 3)
            assert abs(riemann_roch(L).rr_defect) < 1e-9


class TestShortVectors:
    def test_z2_bound1(self):
        assert short_vectors(Z2, 1) == [(1, 0), (0, 1)]

    def test_z2_bound2_order(self):
        assert short_vectors(Z2, 2) == [(1, 0), (0, 1), (1, 1), (1, -1)]

    def test_hexagonal_minimal_classes(self):
        assert len(short_vectors(HEX, 1)) == 3

    def test_exact_boundary(self):
        # norm exactly on the bound is included, just above is not
        L = Lattice.from_gram([[Fraction(9, 4)]])
        assert short_vectors(L, Fraction(9, 4)) == [(1,)]
        assert short_vectors(L, Fraction(9, 4) - Fraction(1, 10**9)) == []

    def test_matches_box_bruteforce(self):
        rng = random.Random(31)
        for rank in [2, 3, 4] * 6:
            L = shaped_lattice(rng, rank)
            bound = Fraction(rng.randint(2, 8), rng.choice((1, 2, 3)))
            want = oracles.short_vectors_box(L.gram, bound, box_widths(L, bound))
            assert short_vectors(L, bound) == [x for x, _ in want]

    def test_hyperplane_duplicates_removed(self):
        # with x_4 = 0 both orientations of (1, -1, 0, 0) etc. are reached
        want = oracles.short_vectors_box(Z4.gram, 2, 2)
        assert len(want) == 16
        assert short_vectors(Z4, 2) == [x for x, _ in want]

    def test_big_denominators_use_python_ints(self):
        bound = BIG_DEN.gram[0][0] + BIG_DEN.gram[1][1]
        x, q = _enumerate_classes(BIG_DEN, bound, DEFAULT_CONFIG)
        assert q.dtype == object
        want = oracles.short_vectors_box(BIG_DEN.gram, bound, box_widths(BIG_DEN, bound))
        assert short_vectors(BIG_DEN, bound) == [v for v, _ in want]
        assert short_vectors(BIG_DEN, bound - Fraction(1, 10**40)) == [v for v, n in want if n < bound]
        assert short_vectors(BIG_DEN, Fraction(1, 10)) == []

    # N counts the candidate coordinates tried, as a depth-first Fincke-Pohst
    # with the same bounds counts them; the budget raises iff visited > N
    @pytest.mark.parametrize(
        "L, bound, visited",
        [
            (Z4, 2, 48),
            (
                Lattice.from_basis(
                    [
                        [1, 0, 0, 0],
                        [Fraction(1, 2), 1, 0, 0],
                        [Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2), 0],
                        [1, 1, Fraction(1, 2), Fraction(4, 5)],
                    ]
                ),
                5,
                109,
            ),
        ],
    )
    def test_budget_contract(self, L, bound, visited):
        assert short_vectors(L, bound, NumericsConfig(vector_budget=visited))
        with pytest.raises(EnumerationOverflow):
            short_vectors(L, bound, NumericsConfig(vector_budget=visited - 1))


class TestMinkowski:
    def test_z2(self):
        z, t = minkowski_point(Z2)
        assert (z.x, z.y, t) == (0.0, 1.0, 1.0)

    def test_hexagonal_tie(self):
        z, t = minkowski_point(HEX)
        assert abs(z.x - 0.5) < 1e-15
        assert abs(z.y - math.sqrt(3) / 2) < 1e-15

    def test_domain_and_lambda1(self):
        rng = random.Random(47)
        for _ in range(40):
            L = random_lattice(rng, 2)
            z, t = minkowski_point(L)
            assert abs(z.x) <= 0.5 + 1e-15
            assert z.x * z.x + z.y * z.y >= 1 - 1e-12
            assert z.x >= 0.0
            bound = min(L.gram[0][0], L.gram[1][1])
            lam1_sq = min(
                sum(L.gram[i][j] * v[i] * v[j] for i in range(2) for j in range(2))
                for v in short_vectors(L, bound)
            )
            lam1 = math.sqrt(float(lam1_sq)) / t
            assert abs(lam1 - z.y ** -0.5) < 1e-10

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            minkowski_point(Z3)


class TestJson:
    def test_basis_round_trip(self):
        L = Lattice.from_basis([[Fraction(3, 2), 1], [0, Fraction(4, 5)]])
        assert Lattice.from_json(L.to_json()) == L

    def test_gram_round_trip(self):
        assert Lattice.from_json(HEX.to_json()) == HEX

    def test_rationals_as_strings(self):
        j = HEX.to_json()
        assert j["gram"][0][1] == "1/2"

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            Lattice.from_json({"rank": 2})
        with pytest.raises(ValueError):
            Lattice.from_json({"rank": 3, "basis": [["1", "0"], ["0", "1"]]})
