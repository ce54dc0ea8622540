"""Graded quotient ranks, freeness, and center certification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg import intlinalg
from surfalg.enveloping import hilbert_dimension, series_product, target_series
from surfalg.errors import ResourceLimitExceeded
from surfalg.freelie import FreeLieAlgebra, LieElement, free_lie_algebra, witt_dimension
from surfalg.intlinalg import DimensionMismatch, IntMatrix
from surfalg.surface import (
    DegreeData,
    SurfaceAlgebra,
    _bracket_letter,
    build,
    center_in_degree,
    omega_element,
    verify_center_theorem,
)


def peel_ranks(genus, K):
    """Oracle 1: peel the target series against the graded product.

    r_k is forced degree by degree: the partial product over lower degrees
    already fixes every coefficient below t^k, and (1-t^k)^(-r) contributes
    exactly r at t^k.
    """
    target = [hilbert_dimension(genus, d) for d in range(K + 1)]
    ranks = {}
    partial = [1] + [0] * K
    for k in range(1, K + 1):
        r = target[k] - partial[k]
        ranks[k] = r
        factor = [0] * (K + 1)
        j = 0
        while j * k <= K:
            num, den = 1, 1
            for s in range(1, j + 1):
                num *= r - 1 + s
                den *= s
            factor[j * k] = num // den
            j += 1
        partial = [
            sum(partial[i] * factor[m - i] for i in range(m + 1))
            for m in range(K + 1)
        ]
    assert partial == target
    return [ranks[k] for k in range(1, K + 1)]


def power_sum_ranks(genus, K):
    """Oracle 2: Newton power sums of the series' inverse roots plus Moebius.

    With x1 + x2 = 2g and x1 x2 = 1, beta_m = x1^m + x2^m obeys
    beta_m = 2g beta_{m-1} - beta_{m-2}; the rank in degree d is
    (1/d) sum_{e|d} mu(e) beta_{d/e}.
    """
    def mobius(n):
        if n == 1:
            return 1
        res, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                res = -res
            p += 1
        return -res if n > 1 else res

    beta = [2, 2 * genus]
    for _ in range(K):
        beta.append(2 * genus * beta[-1] - beta[-2])
    out = []
    for d in range(1, K + 1):
        total = sum(mobius(e) * beta[d // e] for e in range(1, d + 1) if d % e == 0)
        assert total % d == 0
        out.append(total // d)
    return out


def ideal_elements(alg, d):
    """The degree-d ideal basis rows as Lie elements."""
    words = alg.free.basis_words(d)
    rows = alg.degree_data(d).pivot_rows.values()
    return [LieElement(alg.free, {words[j]: c for j, c in row.items()}) for row in rows]


@pytest.fixture(scope="module")
def alg_g2():
    return build(2, 5)


@pytest.fixture(scope="module")
def alg_g3():
    return build(3, 4)


class TestBuild:
    def test_degree_one_is_homology(self):
        assert build(2, 1).ranks() == (4,)

    def test_g2_ranks(self, alg_g2):
        # degree 2: free dimension C(4,2) = 6 minus the one relation
        assert alg_g2.rank(1) == 4
        assert alg_g2.rank(2) == 5
        assert alg_g2.ranks() == tuple(peel_ranks(2, 5))
        assert alg_g2.ranks() == tuple(power_sum_ranks(2, 5))

    def test_g3_ranks(self, alg_g3):
        assert alg_g3.ranks()[:3] == (6, 14, 64)
        assert alg_g3.ranks() == tuple(peel_ranks(3, 4))
        assert alg_g3.ranks() == tuple(power_sum_ranks(3, 4))

    def test_rejects_genus_one(self):
        with pytest.raises(ValueError):
            build(1, 3)

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitExceeded):
            build(3, 9)

    def test_pbw_identity(self, alg_g2, alg_g3):
        # the built ranks satisfy prod_k (1-t^k)^(-r_k) == 1/(1 - 2g t + t^2)
        def sides(alg, K):
            ranks = {d: alg.rank(d) for d in range(1, K + 1)}
            return series_product(ranks, K), target_series(alg.genus, K)

        for alg in (alg_g2, alg_g3):
            graded, words = sides(alg, alg.max_degree)
            assert graded == words
        assert sides(alg_g2, 3) == ([1, 4, 15, 56],) * 2
        assert sides(alg_g3, 3) == ([1, 6, 35, 204],) * 2
        # degree <= 1 sees no relation at all
        assert sides(alg_g2, 1) == ([1, 4],) * 2

    def test_ideal_ranks_complement_witt(self, alg_g2):
        for d in range(2, 6):
            ideal_rank = len(alg_g2.degree_data(d).pivot_rows)
            assert ideal_rank + alg_g2.rank(d) == witt_dimension(4, d)

    def test_omega_dies_in_quotient(self, alg_g2):
        assert alg_g2.project(omega_element(2), 2) == (0,) * 5

    def test_project_lift_roundtrip(self, alg_g2):
        rng = random.Random(9)
        for d in range(1, 6):
            coords = [rng.randint(-4, 4) for _ in range(alg_g2.rank(d))]
            assert alg_g2.project(alg_g2.lift(d, coords), d) == tuple(coords)


class TestBracketWellDefined:
    def test_ideal_is_bracket_closed(self, alg_g2):
        # brackets of ideal elements with spanning elements stay in the ideal
        fl = free_lie_algebra(4)
        for d, k in [(2, 1), (3, 1), (4, 1), (2, 2)]:
            for e in ideal_elements(alg_g2, d):
                for w in fl.basis_words(k):
                    assert not any(alg_g2.project(e.bracket(LieElement(fl, {w: 1})), d + k))

    def test_bracket_descends(self, alg_g2):
        # changing a representative by an ideal element does not move the
        # projected bracket
        fl = free_lie_algebra(4)
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(1, 3)
            coords = [rng.randint(-2, 2) for _ in range(alg_g2.rank(d))]
            x = alg_g2.lift(d, coords)
            noise = ideal_elements(alg_g2, 2)[0] if d == 2 else None
            y = fl.generator(rng.randrange(4))
            base = alg_g2.project(x.bracket(y), d + 1)
            if noise is not None:
                moved = alg_g2.project((x + noise).bracket(y), d + 1)
                assert moved == base


def lie_element_route(g, K):
    """{d: (pivot_rows, basis_columns)} by the route the build took before its
    brackets were taken in index coordinates: each degree's Hermite rows are
    turned back into Lie elements, bracketed with each generator and
    re-indexed into the next degree's spanning rows."""
    fl = free_lie_algebra(2 * g)
    generators = [fl.generator(i) for i in range(2 * g)]
    current = [omega_element(g)]
    out = {}
    for d in range(2, K + 1):
        words = fl.basis_words(d)
        index = fl.word_index(d)
        span = IntMatrix._of(({index[w]: c for w, c in elem.items()} for elem in current), len(words))
        ideal = intlinalg.row_span_hnf(span)
        pivot_rows = {min(row): row for row in ideal.sparse_rows}
        out[d] = (pivot_rows, tuple(j for j in range(len(words)) if j not in pivot_rows))
        elems = [LieElement(fl, {words[j]: c for j, c in row.items()}) for row in ideal.sparse_rows]
        current = [e.bracket(x) for e in elems for x in generators]
    return out


class TestBracketsInIndexCoordinates:
    """_bracket_letter, the build's and the center's one bracket, against the
    Lie-element bracket it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(2, 5), (3, 4)]), st.data())
    def test_matches_the_lie_element_bracket(self, shape, data):
        g, top = shape
        fl = free_lie_algebra(2 * g)
        d = data.draw(st.integers(1, top))
        words = fl.basis_words(d)
        terms = data.draw(st.lists(st.tuples(st.integers(0, len(words) - 1), st.integers(-3, 3)), max_size=6))
        row = {j: c for j, c in dict(terms).items() if c}
        x = data.draw(st.integers(0, 2 * g - 1))
        index = fl.word_index(d + 1)
        z = LieElement(fl, {words[j]: c for j, c in row.items()}).bracket(fl.generator(x))
        assert _bracket_letter(fl, d, row, x) == {index[w]: c for w, c in z.items()}

    @pytest.mark.parametrize("g, K", [(2, 6), (3, 5), (4, 4)])
    def test_build_matches_the_lie_element_route(self, g, K):
        alg = build(g, K)
        oracle = lie_element_route(g, K)
        for d in range(2, K + 1):
            data = alg.degree_data(d)
            assert (data.pivot_rows, data.basis_columns) == oracle[d]
            assert list(data.pivot_rows) == sorted(data.pivot_rows)

    def test_center_maps_match_projected_lie_brackets(self, alg_g2):
        fl = alg_g2.free
        for d in range(1, alg_g2.max_degree):
            words = fl.basis_words(d)
            upper = alg_g2.degree_data(d + 1)
            for c in alg_g2.degree_data(d).basis_columns:
                for i in range(fl.n):
                    reduced = alg_g2._reduce(d + 1, _bracket_letter(fl, d, {c: 1}, i))
                    got = intlinalg._dense_row({upper.basis_index[j]: x for j, x in reduced.items()}, upper.rank)
                    assert got == alg_g2.project(LieElement(fl, {words[c]: 1}).bracket(fl.generator(i)), d + 1)

    def test_no_lie_element_is_built_past_omega(self, monkeypatch):
        built = []
        init = LieElement.__init__

        def counting(self, algebra, coords):
            built.append(len(coords))
            init(self, algebra, coords)

        monkeypatch.setattr(LieElement, "__init__", counting)
        omega_element(3)
        for_omega = len(built)
        assert for_omega > 0
        built.clear()
        alg = build(3, 4)
        assert len(built) == for_omega
        built.clear()
        for d in range(1, 4):
            assert center_in_degree(alg, d) == []
        assert verify_center_theorem(alg).passed
        assert built == []


class TestCenter:
    def test_center_empty_g2(self, alg_g2):
        for d in range(1, 5):
            assert center_in_degree(alg_g2, d) == []

    def test_center_empty_g3(self, alg_g3):
        for d in range(1, 4):
            assert center_in_degree(alg_g3, d) == []

    def test_report(self, alg_g2, alg_g3):
        rep = verify_center_theorem(alg_g2)
        assert rep.passed and rep.dims_by_degree == ((1, 0), (2, 0), (3, 0), (4, 0))
        assert verify_center_theorem(alg_g3).passed

    def test_smallest_nontrivial_instance(self):
        assert verify_center_theorem(build(2, 2)).passed

    def test_degree_out_of_range(self, alg_g2):
        with pytest.raises(ValueError):
            center_in_degree(alg_g2, 5)

    def test_a_nonzero_center_comes_back_as_sparse_rows(self):
        # a forged quotient at genus 2 whose degree 2 keeps only [a1, b1]:
        # a2 and b2 bracket into the ideal with every letter, so they are
        # central, and the center is returned as sparse quotient rows
        index = free_lie_algebra(4).word_index(2)
        kept = index[(0, 1)]
        degree_1 = DegreeData(pivot_rows={}, basis_columns=(0, 1, 2, 3), basis_index={j: j for j in range(4)}, rank=4)
        degree_2 = DegreeData(
            pivot_rows={j: {j: 1} for j in range(6) if j != kept},
            basis_columns=(kept,),
            basis_index={kept: 0},
            rank=1,
        )
        alg = SurfaceAlgebra(2, 2, {1: degree_1, 2: degree_2})
        assert center_in_degree(alg, 1) == [{2: 1}, {3: 1}]
        assert verify_center_theorem(alg).dims_by_degree == ((1, 2),)
        assert not verify_center_theorem(alg).passed

    def test_kernel_solver_finds_nontrivial_kernels(self):
        # control: the solver behind the center computation does report
        # nonzero kernels when they exist
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        knl = intlinalg.sparse_left_kernel(rows)
        assert len(knl) == 1


def test_rank_function(alg_g2):
    assert alg_g2.rank(3) == 16
    with pytest.raises(ValueError):
        alg_g2.rank(6)


class TestNonIntegralInput:
    def test_lift(self, alg_g2):
        with pytest.raises(ValueError, match="not an integer"):
            alg_g2.lift(1, [1.5, 0, 0, 0])
        assert alg_g2.lift(1, ["1", 2.0, 0, 0]) == alg_g2.lift(1, [1, 2, 0, 0])


class TestWrongLengthCoordinates:
    """At g=2, degree 2 has 6 free basis words and quotient rank 5."""

    def test_lift(self, alg_g2):
        with pytest.raises(DimensionMismatch):
            alg_g2.lift(2, [1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(DimensionMismatch):
            alg_g2.lift(2, [1])
        with pytest.raises(DimensionMismatch):
            alg_g2.bracket_coords(1, [1, 0, 0, 0, 5], 1, [0, 1, 0, 0])
        assert alg_g2.lift(2, [0] * 5) == alg_g2.free.zero()


def dense_reduce(ideal_rows, vec):
    """The dense loop the quotient reduced with before its rows went sparse.

    ideal_rows are dense echelon rows with unit pivots, in increasing pivot
    order; each is subtracted as many times as the vector's entry at its
    pivot, from left to right.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in ideal_rows]
    v = list(vec)
    for row, c in zip(ideal_rows, pivots):
        q = v[c]
        if q:
            for j in range(c, len(v)):
                v[j] -= q * row[j]
    return v, pivots


def sparse_reduce(alg, d, vec):
    """SurfaceAlgebra._reduce on a dense vector, read back dense."""
    return list(intlinalg._dense_row(alg._reduce(d, intlinalg._sparse(vec)), len(vec)))


def _random_element(alg, d, draw):
    """A Lie element of degree d: basis words, ideal elements, a bracket, and
    a stray term of another degree that projection must ignore."""
    fl = alg.free
    words = fl.basis_words(d)
    coeffs = st.integers(-3, 3)
    terms = draw(st.lists(st.tuples(st.integers(0, len(words) - 1), coeffs), max_size=6))
    elem = LieElement(fl, {words[i]: c for i, c in terms})
    ideal = ideal_elements(alg, d)
    for i, c in draw(st.lists(st.tuples(st.integers(0, max(len(ideal) - 1, 0)), coeffs), max_size=4)):
        if ideal:
            elem = elem + c * ideal[i]
    if d > 1 and draw(st.booleans()):
        left = fl.basis_words(d - 1)[draw(st.integers(0, len(fl.basis_words(d - 1)) - 1))]
        elem = elem + LieElement(fl, {left: draw(coeffs)}).bracket(fl.generator(draw(st.integers(0, fl.n - 1))))
    if draw(st.booleans()):
        other = 1 if d > 1 else 2
        elem = elem + LieElement(fl, {fl.basis_words(other)[0]: draw(st.integers(1, 3))})
    return elem


class TestSparseReductionMatchesDenseLoop:
    """The sparse reduction and project against the dense loop."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["g2", "g3"]), st.data())
    def test_on_random_lie_elements(self, alg_g2, alg_g3, which, data):
        alg = alg_g2 if which == "g2" else alg_g3
        d = data.draw(st.integers(1, alg.max_degree))
        elem = _random_element(alg, d, data.draw)
        index = alg.free.word_index(d)
        vec = [0] * len(index)
        for w, c in elem.items():
            if len(w) == d:
                vec[index[w]] = c
        ideal_rows = [intlinalg._dense_row(row, len(vec)) for row in alg.degree_data(d).pivot_rows.values()]
        reduced, pivots = dense_reduce(ideal_rows, vec)
        basis = [j for j in range(len(vec)) if j not in pivots]
        assert sparse_reduce(alg, d, vec) == reduced
        assert alg.project(elem, d) == tuple(reduced[j] for j in basis)

    def test_membership_is_seen_both_ways(self, alg_g2, alg_g3):
        for alg in (alg_g2, alg_g3):
            for d in range(2, alg.max_degree + 1):
                ideal = ideal_elements(alg, d)
                inside = ideal[0] - 2 * ideal[-1]
                assert alg.project(inside, d) == (0,) * alg.rank(d)
                outside = inside + alg.lift(d, [0] * (alg.rank(d) - 1) + [1])
                assert any(alg.project(outside, d))

    # unit-pivot echelons whose rows keep entries in later pivot columns, so
    # clearing one pivot column refills another: the order must be increasing
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_on_echelons_that_are_not_back_reduced(self, data):
        n = data.draw(st.integers(1, 7))
        pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        entries = st.sampled_from([0, 0, 1, -1, 2, -3])
        rows = []
        for c in pivots:
            rows.append([0] * c + [1] + [data.draw(entries) for _ in range(c + 1, n)])
        vec = [data.draw(st.integers(-4, 4)) for _ in range(n)]
        ideal = IntMatrix(rows, cols=n)
        basis = tuple(j for j in range(n) if j not in pivots)
        alg = SurfaceAlgebra(2, 1, {1: DegreeData(
            pivot_rows=dict(zip(pivots, ideal.sparse_rows)),
            basis_columns=basis,
            basis_index={j: i for i, j in enumerate(basis)},
            rank=len(basis),
        )})
        assert sparse_reduce(alg, 1, vec) == dense_reduce(rows, vec)[0]

    def test_refilled_pivot_column(self):
        # clearing column 0 puts -2 into pivot column 1, which must be
        # cleared in turn
        rows = [[1, 2, 0, 1], [0, 1, -1, 0]]
        ideal = IntMatrix(rows)
        alg = SurfaceAlgebra(2, 1, {1: DegreeData(
            pivot_rows={0: ideal.sparse_rows[0], 1: ideal.sparse_rows[1]},
            basis_columns=(2, 3),
            basis_index={2: 0, 3: 1},
            rank=2,
        )})
        assert sparse_reduce(alg, 1, [1, 0, 0, 0]) == [0, 0, -2, -1]
        assert dense_reduce(rows, [1, 0, 0, 0])[0] == [0, 0, -2, -1]


class TestForeignAlgebraElements:
    """Elements of another free Lie algebra handle are refused, not read
    through this algebra's word index."""

    def test_project_and_membership(self, alg_g2):
        other = FreeLieAlgebra(4)  # same letter count, another handle
        foreign = [
            (free_lie_algebra(6).generator(5), 1),  # a word this algebra lacks
            (free_lie_algebra(6).generator(0), 1),  # a word it has
            (other.generator(0), 1),
            (other.generator(0).bracket(other.generator(1)), 2),
        ]
        for elem, d in foreign:
            with pytest.raises(ValueError, match="different algebra handles"):
                alg_g2.project(elem, d)
        assert alg_g2.project(alg_g2.free.generator(0), 1) == (1, 0, 0, 0)
        assert alg_g2.project(omega_element(2), 2) == (0,) * 5
