"""Stability layer: slopes, polygons, filtrations, truncation indicators."""

import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from latzeta import stability
from latzeta.errors import EnumerationOverflow, InvalidFlag
from latzeta.intmat import adjugate, bareiss_det, maximal_minor_gcd
from latzeta.lattice import Lattice, degree, scale
from latzeta.numerics import DEFAULT_CONFIG, NumericsConfig
from latzeta.stability import (
    Flag,
    Polygon,
    _candidate_sublattices,
    _hermite_ball,
    _hyperplane,
    _primitive_lines,
    _sub_degree,
    _sub_gram_det,
    arthur_correspondence_rank2,
    canonical_filtration,
    canonical_polygon,
    flag_polygon,
    is_semistable,
    parabolic_sum_indicator_rank2,
    slope,
    truncation_indicator,
)

Z2 = Lattice.from_basis([[1, 0], [0, 1]])
Z3 = Lattice.from_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
DIAG_HALF_2 = Lattice.from_basis([[Fraction(1, 2), 0], [0, 2]])
DIAG_HALF_1_2 = Lattice.from_basis([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 2]])
HEX = Lattice.from_gram([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
LOG2 = math.log(2)


def random_lattice(rng, rank, span=3):
    while True:
        rows = [[Fraction(rng.randint(-span, span)) for _ in range(rank)] for _ in range(rank)]
        try:
            return Lattice.from_basis(rows)
        except Exception:
            continue


def random_unimodular(rank, rng, ops=12):
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(ops):
        i, j = rng.sample(range(rank), 2)
        c = rng.randint(-2, 2)
        for k in range(rank):
            u[i][k] += c * u[j][k]
    return u


def random_flag(rank, rng):
    u = random_unimodular(rank, rng)
    ks = sorted(rng.sample(range(1, rank), rng.randint(0, rank - 1))) + [rank]
    return Flag(tuple(tuple(tuple(row) for row in u[:k]) for k in ks))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def gram_and_rows(draw):
    """A random rational Gram B B^T of rank 1..4 and k <= rank integer rows;
    about half the draws make the last row a combination of the others."""
    r = draw(st.integers(1, 4))
    basis = draw(st.lists(st.lists(RATIONALS, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(oracles.frac_det(basis) != 0)
    k = draw(st.integers(1, r))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r), min_size=k, max_size=k))
    singular = draw(st.booleans())
    if singular:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(r)]
    return Lattice.from_basis(basis), rows, singular


class TestIntegerDeterminants:
    @settings(max_examples=300, deadline=None)
    @given(gram_and_rows())
    def test_match_fraction_elimination(self, case):
        L, rows, singular = case
        g = L.gram
        r = L.rank
        sub = [[sum(a[i] * g[i][j] * b[j] for i in range(r) for j in range(r)) for b in rows] for a in rows]
        assert _sub_gram_det(L, rows) == oracles.frac_det(sub)
        assert Lattice.from_gram(g).gram_det() == L.gram_det() == oracles.frac_det(g)
        if singular:
            assert _sub_gram_det(L, rows) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_bareiss_on_any_square_matrix(self, m):
        # zero pivots and row swaps, which a positive semidefinite Gram never needs;
        # the empty matrix has determinant 1
        assert bareiss_det(m) == oracles.frac_det(m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_adjugate_inverts_up_to_det(self, m):
        n, adj, det = len(m), adjugate(m), oracles.frac_det(m)
        product = [[sum(m[i][t] * adj[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


# k <= 3 rows keep the oracle's box scan under 13^3 points
ROW_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, min(n, 3)).flatmap(
        lambda k: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=k, max_size=k)
    )
)


class TestMinorsAndHyperplanes:
    @settings(max_examples=150, deadline=None)
    @given(ROW_MATRICES)
    def test_minor_gcd_matches_box_primitivity(self, rows):
        g = maximal_minor_gcd(rows)
        primitive = oracles.primitive_box(rows)
        assert (g == 0) == (primitive is None)
        if primitive is not None:
            assert (g == 1) == primitive

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda r: st.lists(st.integers(-6, 6), min_size=r, max_size=r)))
    def test_koszul_hnf_spans_the_hyperplane(self, w):
        assume(math.gcd(*w) == 1)
        rows = _hyperplane(tuple(w))
        assert len(rows) == len(w) - 1
        assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in rows)
        assert maximal_minor_gcd(rows) == 1


SMALL_DENOMINATORS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def lattice_and_ball(draw):
    """A rank-2..4 lattice, basis-backed or Gram-only, and a ball of 1 or 4
    times its Hermite bound; 4 lets multiples of the shortest lines in."""
    r = draw(st.integers(2, 4))
    basis = draw(st.lists(st.lists(SMALL_DENOMINATORS, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(oracles.frac_det(basis) != 0)
    L = Lattice.from_basis(basis)
    if draw(st.booleans()):
        L = Lattice.from_gram(L.gram)
    return L, draw(st.sampled_from([1, 4])) * _hermite_ball(L)


class TestPrimitiveLines:
    @settings(max_examples=150, deadline=None)
    @given(lattice_and_ball())
    def test_gcd_one_rows_of_the_box_scan_with_their_norms(self, case):
        L, ball = case
        # the same inflation _primitive_lines applies to its float ball
        bound = Fraction(ball) * Fraction(1_000_000_001, 1_000_000_000)
        ginv = np.linalg.inv(np.array(L.gram, dtype=float))
        widths = [int(math.sqrt(float(bound) * d)) + 1 for d in np.diag(ginv)]
        assume(math.prod(2 * w + 1 for w in widths) <= 200_000)
        want = [(v, q) for v, q in oracles.short_vectors_box(L.gram, bound, widths) if math.gcd(*v) == 1]
        got = _primitive_lines(L, ball, DEFAULT_CONFIG)
        assert got == want
        g, r = L.gram, L.rank
        for v, q in got:
            sub = [[sum(v[i] * g[i][j] * v[j] for i in range(r) for j in range(r))]]
            assert q == oracles.frac_det(sub)


class TestSlope:
    def test_trivial(self):
        assert slope(Z3) == 0.0
        assert abs(slope(Lattice.from_basis([[2]])) + LOG2) < 1e-15

    def test_weighted_mean(self):
        from latzeta.lattice import direct_sum

        a = Lattice.from_basis([[2]])
        b = Lattice.from_basis([[Fraction(1, 3)]])
        s = direct_sum(a, b)
        assert abs(2 * slope(s) - (degree(a) + degree(b))) < 1e-12


class TestSemistable:
    def test_standard(self):
        assert is_semistable(Z2)
        assert is_semistable(Z3)

    def test_destabilized_diagonal(self):
        assert not is_semistable(DIAG_HALF_2)

    def test_hexagonal(self):
        assert is_semistable(HEX)

    def test_rank4(self):
        assert is_semistable(
            Lattice.from_basis(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            )
        )
        assert not is_semistable(
            Lattice.from_basis(
                [[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
            )
        )


class TestCanonicalPolygon:
    def test_semistable_zero(self):
        assert canonical_polygon(Z3).values == (0.0, 0.0, 0.0, 0.0)
        assert canonical_polygon(HEX).values == (0.0, 0.0, 0.0)

    def test_rank2_example(self):
        assert abs(canonical_polygon(DIAG_HALF_2).values[1] - LOG2) < 1e-12

    def test_rank3_example(self):
        p = canonical_polygon(DIAG_HALF_1_2)
        assert abs(p.values[1] - LOG2) < 1e-12
        assert abs(p.values[2] - LOG2) < 1e-12

    def test_convexity(self):
        rng = random.Random(2)
        for _ in range(20):
            L = random_lattice(rng, rng.choice([2, 3]))
            v = canonical_polygon(L).values
            for k in range(1, len(v) - 1):
                assert v[k] >= (v[k - 1] + v[k + 1]) / 2 - 1e-12

    def test_scaling_equivariance(self):
        rng = random.Random(9)
        for _ in range(10):
            L = random_lattice(rng, 3)
            a = canonical_polygon(L).values
            b = canonical_polygon(scale(L, Fraction(7, 3))).values
            assert all(abs(x - y) < 1e-10 for x, y in zip(a, b))


class TestSkewRank4:
    # one primitive line in the Hermite ball; seeding the rank-2 search from
    # the coordinate axes alone gives a ball holding 13,803 primitive vectors
    L = Lattice.from_basis(
        [
            [Fraction(3, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(-4, 3)],
            [0, Fraction(4, 3), Fraction(8, 3), 0],
            [0, 0, Fraction(2, 3), Fraction(-4, 3)],
            [Fraction(3, 2), Fraction(1, 2), -1, Fraction(3, 2)],
        ]
    )

    def test_polygon_filtration_and_semistability_agree(self):
        L = self.L
        v = canonical_polygon(L).values
        for k in range(1, 4):
            assert v[k] >= (v[k - 1] + v[k + 1]) / 2 - 1e-12
        steps = canonical_filtration(L).steps
        for step in steps[:-1]:
            k = len(step)
            assert abs(_sub_degree(L, step) - k * degree(L) / 4 - v[k]) < 1e-10
            assert v[k] > (v[k - 1] + v[k + 1]) / 2 + 1e-12
        assert is_semistable(L) == (max(v) <= 1e-12)


class TestSearchMemo:
    """One candidate search per (lattice, config), dropped with the lattice."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(stability, "_SEARCHES", memo)
        return memo

    @staticmethod
    def fresh_lattice():
        return Lattice.from_basis([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 0, 5]])

    def test_three_invariants_search_once(self, monkeypatch):
        calls = []
        enumerate_classes = stability._enumerate_classes

        def counting(*args):
            calls.append(args[0])
            return enumerate_classes(*args)

        monkeypatch.setattr(stability, "_enumerate_classes", counting)
        L = self.fresh_lattice()
        canonical_polygon(L)
        first = len(calls)
        assert first > 0
        canonical_filtration(L)
        is_semistable(L)
        truncation_indicator(L, Polygon.zero(4))
        assert len(calls) == first

    @pytest.mark.parametrize("field", ["basis", "gram"])
    def test_equal_lattices_hash_equal_and_share_one_entry(self, monkeypatch, fresh_memo, field):
        calls = []
        enumerate_classes = stability._enumerate_classes
        monkeypatch.setattr(
            stability, "_enumerate_classes", lambda *a: calls.append(a) or enumerate_classes(*a)
        )
        rows = getattr(self.fresh_lattice(), field)
        build = Lattice.from_basis if field == "basis" else Lattice.from_gram
        first, second = build(rows), build(rows)
        assert first is not second and first == second and hash(first) == hash(second)
        canonical_polygon(first)
        searched = len(calls)
        canonical_polygon(second)
        assert len(calls) == searched > 0
        assert len(fresh_memo) == 1
        # a Gram-only lattice still differs from one with a basis
        assert Lattice.from_gram(self.fresh_lattice().gram) != self.fresh_lattice()

    def test_smaller_budget_still_raises(self):
        L = self.fresh_lattice()
        canonical_polygon(L)
        with pytest.raises(EnumerationOverflow):
            canonical_polygon(L, NumericsConfig(vector_budget=2))
        with pytest.raises(EnumerationOverflow):
            is_semistable(L, NumericsConfig(vector_budget=2))

    def test_entry_dies_with_its_lattice(self, fresh_memo):
        L = self.fresh_lattice()
        canonical_filtration(L)
        assert len(fresh_memo) == 1
        ref = weakref.ref(L)
        del L
        gc.collect()
        assert ref() is None
        assert len(fresh_memo) == 0

    def test_repeated_calls_agree_and_entries_are_read_only(self):
        L = self.fresh_lattice()
        first = (canonical_polygon(L), canonical_filtration(L), is_semistable(L))
        assert (canonical_polygon(L), canonical_filtration(L), is_semistable(L)) == first
        cands = _candidate_sublattices(L, DEFAULT_CONFIG)
        assert cands is _candidate_sublattices(L, DEFAULT_CONFIG)
        assert all(isinstance(c, tuple) for c in cands.values())
        with pytest.raises(TypeError):
            cands[1] = ()


class TestCanonicalFiltration:
    def test_trivial_for_semistable(self):
        assert canonical_filtration(Z2).steps == (((1, 0), (0, 1)),)

    def test_rank2_example(self):
        assert canonical_filtration(DIAG_HALF_2).steps == (((1, 0),), ((1, 0), (0, 1)))

    def test_rank3_example(self):
        assert canonical_filtration(DIAG_HALF_1_2).steps == (
            ((1, 0, 0),),
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        )

    def test_quotient_slopes_strictly_decrease(self):
        rng = random.Random(13)
        for _ in range(25):
            L = random_lattice(rng, rng.choice([2, 3]))
            f = canonical_filtration(L)
            degs = [0.0] + [_sub_degree(L, step) for step in f.steps]
            ranks = [0] + [len(step) for step in f.steps]
            mus = [
                (degs[i + 1] - degs[i]) / (ranks[i + 1] - ranks[i])
                for i in range(len(f.steps))
            ]
            for a, b in zip(mus, mus[1:]):
                assert a > b + 1e-12

    def test_polygon_matches(self):
        rng = random.Random(29)
        for _ in range(15):
            L = random_lattice(rng, 3)
            f = canonical_filtration(L)
            fp = flag_polygon(L, f)
            cp = canonical_polygon(L)
            assert all(abs(a - b) < 1e-10 for a, b in zip(fp.values, cp.values))


class TestFlagPolygon:
    def test_trivial_flag_zero(self):
        f = Flag((((1, 0), (0, 1)),))
        assert flag_polygon(Z2, f).values == (0.0, 0.0, 0.0)

    def test_bounded_by_canonical(self):
        rng = random.Random(41)
        cp = canonical_polygon(DIAG_HALF_1_2)
        for _ in range(50):
            f = random_flag(3, rng)
            q = flag_polygon(DIAG_HALF_1_2, f)
            assert all(a <= b + 1e-9 for a, b in zip(q.values, cp.values))

    def test_rejects_non_primitive(self):
        with pytest.raises(InvalidFlag):
            flag_polygon(Z2, Flag((((2, 0),), ((1, 0), (0, 1)))))

    def test_rejects_non_nested(self):
        with pytest.raises(InvalidFlag):
            flag_polygon(
                Z3,
                Flag(
                    (
                        ((1, 0, 0),),
                        ((0, 1, 0), (0, 0, 1)),
                        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    )
                ),
            )

    def test_rejects_partial_chain(self):
        with pytest.raises(InvalidFlag):
            flag_polygon(Z2, Flag((((1, 0),),)))

    @pytest.mark.parametrize(
        "L, steps, message",
        [
            (Z2, (), "flag has no steps"),
            (Z2, (((1, 0, 0),),), "step width does not match the ambient rank"),
            (Z2, (((1, 0),), ((0, 1),)), "step ranks must strictly increase"),
            (Z2, (((1, 0), (2, 0)),), "step rows are linearly dependent"),
            (Z3, (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),), "step rows are linearly dependent"),
            (Z2, (((2, 0),), ((1, 0), (0, 1))), "step is not primitive in the ambient lattice"),
            (Z2, (((1, 1), (1, -1)),), "step is not primitive in the ambient lattice"),
            (Z3, (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
             "steps are not nested"),
            (Z2, (((1, 0),),), "last step must be the full lattice"),
        ],
    )
    def test_every_invalid_flag_message(self, L, steps, message):
        with pytest.raises(InvalidFlag, match=f"^{message}$"):
            flag_polygon(L, Flag(steps))


class TestTruncationIndicator:
    def test_worked_examples(self):
        assert truncation_indicator(Z2, Polygon.zero(2)) == 1
        assert truncation_indicator(DIAG_HALF_2, Polygon(2, (0.0, 0.5, 0.0))) == 0
        assert truncation_indicator(DIAG_HALF_2, Polygon(2, (0.0, 0.7, 0.0))) == 1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            truncation_indicator(Z3, Polygon.zero(2))


class TestParabolicSumIndicator:
    def test_worked_examples(self):
        assert parabolic_sum_indicator_rank2(Z2, Polygon.zero(2)) == 1
        assert parabolic_sum_indicator_rank2(DIAG_HALF_2, Polygon.zero(2)) == 0

    def test_rejects_negative_polygon(self):
        with pytest.raises(ValueError):
            parabolic_sum_indicator_rank2(Z2, Polygon(2, (0.0, -0.1, 0.0)))

    def test_matches_truncation_indicator(self):
        rng = random.Random(61)
        for _ in range(300):
            L = random_lattice(rng, 2)
            p = Polygon(2, (0.0, rng.random(), 0.0))
            a = parabolic_sum_indicator_rank2(L, p)
            assert a in (0, 1)
            assert a == truncation_indicator(L, p)

    def test_boundedness_proxy(self):
        # whoever passes the indicator has lambda_1 >= e^{-p(1)} covol^{1/2}
        rng = random.Random(71)
        for _ in range(100):
            L = random_lattice(rng, 2)
            p1 = rng.random()
            if truncation_indicator(L, Polygon(2, (0.0, p1, 0.0))) == 1:
                from latzeta.lattice import covolume, minkowski_point

                z, t = minkowski_point(L)
                lam1 = z.y ** -0.5 * t  # un-normalized first minimum
                assert lam1 >= math.exp(-p1) * covolume(L) ** 0.5 - 1e-9


class TestArthur:
    def test_worked_examples(self):
        assert arthur_correspondence_rank2(Z2, 1.0) == (False, False)
        tall = Lattice.from_gram([[Fraction(1, 4), 0], [0, 4]])
        assert arthur_correspondence_rank2(tall, 2.0) == (True, True)

    def test_componentwise_equal(self):
        rng = random.Random(83)
        for _ in range(200):
            L = random_lattice(rng, 2)
            t_val = math.exp(rng.random() * 2)  # contract domain T >= 1
            a, b = arthur_correspondence_rank2(L, t_val)
            assert a == b


class TestSublatticeSlopeBound:
    def test_enumerated_candidates(self):
        rng = random.Random(97)
        for _ in range(10):
            L = random_lattice(rng, rng.choice([2, 3]))
            pb = canonical_polygon(L)
            mu = slope(L)
            for k, cands in _candidate_sublattices(L, DEFAULT_CONFIG).items():
                for rows, _det in cands:
                    assert _sub_degree(L, rows) / k <= mu + pb.values[k] / k + 1e-9


class TestPolygonType:
    def test_eval_interpolates(self):
        p = Polygon(2, (0.0, 1.0, 0.0))
        assert p.eval_at(0.5) == 0.5
        assert p.eval_at(1.5) == 0.5
        assert p.eval_at(2.0) == 0.0

    def test_endpoint_guard(self):
        with pytest.raises(ValueError):
            Polygon(2, (0.1, 0.0, 0.0))

    def test_json_round_trip(self):
        p = Polygon(3, (0.0, 0.4, 0.2, 0.0))
        assert Polygon.from_json(p.to_json()) == p

    def test_flag_json_round_trip(self):
        f = Flag((((1, 0),), ((1, 0), (0, 1))))
        assert Flag.from_json(f.to_json()) == f
