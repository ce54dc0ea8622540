"""Boolean polynomials, the cubic-to-wedge map, and pullback invariants."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg import intlinalg, torelli
from surfalg.cli import RunConfig, run
from surfalg.intlinalg import FgAbGroup, IntMatrix
from surfalg.symplectic import SymplecticSpace
from surfalg.torelli import (
    BoolPoly,
    bool_basis,
    bool_dimension,
    element_a,
    expected_invariants,
    gf2_rank,
    pullback_d1,
    pullback_d3,
    q_map,
    q_surjective,
)


class TestBoolBasis:
    def test_g3_degree_one(self):
        assert len(bool_basis(3, 1)) == 7  # 1 + 2g

    def test_g3_degree_two(self):
        # 1 + 6 + 15
        assert len(bool_basis(3, 2)) == 22

    def test_g2_degree_three(self):
        # 1 + 4 + 6 + 4
        assert len(bool_basis(2, 3)) == 15

    @pytest.mark.parametrize("g,i", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_counting_identity(self, g, i):
        assert len(bool_basis(g, i)) == bool_dimension(g, i) == sum(
            comb(2 * g, d) for d in range(i + 1)
        )


class TestBoolPoly:
    def test_element_a_g1(self):
        assert element_a(1) == BoolPoly(1, [(0, 1)])

    def test_element_a_g3(self):
        # sum over the three handle pairs
        assert element_a(3).monomials == frozenset({(0, 1), (2, 3), (4, 5)})

    def test_characteristic_two(self):
        a = element_a(3)
        assert (a + a).is_zero()

    def test_idempotent_variables_squarefree(self):
        p = BoolPoly(2, [(0, 0, 1)])  # repeated variable collapses
        assert p.monomials == frozenset({(0, 1)})

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=6))
    def test_addition_is_symmetric_difference(self, mons):
        p = BoolPoly(2, [tuple(m) for m in mons])
        assert (p + p).is_zero()
        q = BoolPoly(2, [(0,), (1, 2)])
        assert p + q == q + p


class TestQMap:
    def test_cubic_monomial_to_wedge(self):
        v = q_map(BoolPoly(3, [(0, 2, 4)]))  # a1 a2 a3
        assert sum(v) == 1

    def test_low_degree_killed(self):
        assert all(x == 0 for x in q_map(element_a(3)))
        assert all(x == 0 for x in q_map(BoolPoly(3, [(0,), ()])))

    def test_char_two(self):
        p = BoolPoly(3, [(0, 2, 4)])
        assert all(x == 0 for x in q_map(p + p))

    def test_linear(self):
        rng = random.Random(8)
        basis = bool_basis(3, 3)
        for _ in range(20):
            p = BoolPoly(3, rng.sample(basis, 3))
            q = BoolPoly(3, rng.sample(basis, 3))
            lhs = q_map(p + q)
            rhs = tuple((x + y) % 2 for x, y in zip(q_map(p), q_map(q)))
            assert lhs == rhs

    @pytest.mark.parametrize("g", [2, 3])
    def test_surjective(self, g):
        assert q_surjective(g)

    def test_degree_gate(self):
        with pytest.raises(ValueError):
            q_map(BoolPoly(2, [(0, 1, 2, 3)], degree_bound=4))


class TestPullbacks:
    @pytest.mark.parametrize("g", [2, 3])
    def test_d1_invariants(self, g):
        got = pullback_d1(g)
        assert got.invariants == expected_invariants(g, "d1")
        assert got.invariants.free_rank == comb(2 * g, 3)
        assert got.q_reconstructed

    @pytest.mark.parametrize("g", [2, 3])
    def test_d3_invariants(self, g):
        got = pullback_d3(g)
        assert got.invariants == expected_invariants(g, "d3")
        assert len(got.invariants.torsion) == bool_dimension(g, 2) - 1

    def test_g2_counts_explicit(self):
        assert pullback_d1(2).invariants == FgAbGroup(4, (2,) * 11)
        assert pullback_d3(2).invariants == FgAbGroup(4, (2,) * 10)

    def test_g3_counts_explicit(self):
        assert pullback_d1(3).invariants == FgAbGroup(20, (2,) * 22)
        assert pullback_d3(3).invariants == FgAbGroup(20, (2,) * 21)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_projection_onto_cube_agrees_with_q_surjective(self, g, monkeypatch):
        # the integer formulation, kept here as the oracle: the fiber product
        # maps onto the integral cube when the integer lifts of the q-images
        # and twice every wedge leave a trivial cokernel
        def projection_onto_cube():
            n = comb(2 * g, 3)
            rows = [list(torelli.q_map(BoolPoly(g, [m]))) for m in bool_basis(g, 3)]
            rows += [[2 * (i == t) for i in range(n)] for t in range(n)]
            return intlinalg.cokernel(IntMatrix(rows, cols=n)) == FgAbGroup(0, ())

        assert projection_onto_cube() and q_surjective(g)
        # a q that sends one cubic monomial to another's triple misses a wedge
        cubics = [m for m in bool_basis(g, 3) if len(m) == 3]
        real_q = torelli.q_map

        def forged(p):
            moved = [cubics[1] if m == cubics[0] else m for m in p.monomials]
            return real_q(BoolPoly(g, moved))

        monkeypatch.setattr(torelli, "q_map", forged)
        assert not projection_onto_cube() and not q_surjective(g)

    def test_element_a_dies_in_d3(self):
        # the quotient relation is precisely the class of (a, 0)
        g = 3
        mons, rel = pullback_d3(g).boolean_generators, pullback_d3(g).relations
        killer = rel.row(rel.rows - 1)
        support = {mons[i] for i, c in enumerate(killer[: len(mons)]) if c}
        assert support == element_a(g).monomials

    def test_universal_property_spot_check(self):
        # the generators map into the fiber product by x_m -> (m, wedge of m
        # for cubic m, else 0) and y_t -> (0, 2 e_t); every relation of d1
        # maps to zero, and every pair (p, v) with v = q(p) mod 2 is an image
        rng = random.Random(13)
        g = 2
        n = comb(2 * g, 3)
        group = pullback_d1(g)
        images = [(BoolPoly(g, [m]), q_map(BoolPoly(g, [m]))) for m in group.boolean_generators]
        images += [(BoolPoly(g, []), tuple(2 * (i == t) for i in range(n))) for t in range(n)]

        def image(row):
            p, v = BoolPoly(g, []), [0] * n
            for c, (pm, vm) in zip(row, images):
                if c % 2:
                    p = p + pm
                v = [x + c * y for x, y in zip(v, vm)]
            return p, v

        for r in range(group.relations.rows):
            assert image(group.relations.row(r)) == (BoolPoly(g, []), [0] * n)
        for _ in range(25):
            p = BoolPoly(g, rng.sample(group.boolean_generators, rng.randint(0, 4)))
            qp = q_map(p)
            v = [x + 2 * rng.randint(-2, 2) for x in qp]
            row = [int(m in p.monomials) for m in group.boolean_generators]
            row += [(x - y) // 2 for x, y in zip(v, qp)]
            assert image(row) == (p, v)

    def test_polynomial_at_another_genus_refused(self):
        for g, p_genus in ((2, 3), (3, 2)):
            with pytest.raises(ValueError, match="different variable sets"):
                BoolPoly(g, []) + BoolPoly(p_genus, [])


def test_gf2_rank():
    assert gf2_rank([[1, 0], [0, 1]]) == 2
    assert gf2_rank([[1, 1], [1, 1]]) == 1
    assert gf2_rank([[1, 1], [0, 0]]) == 1
    assert gf2_rank([]) == 0


def sorted_pivot_rank(rows):
    """The elimination gf2_rank ran before its leading-bit basis: the pivot
    masks kept sorted, largest first, and each row scanned down them with
    min(m, m ^ p)."""
    pivots = []
    for row in rows:
        m = sum(1 << j for j, x in enumerate(row) if x & 1)
        for p in pivots:
            m = min(m, m ^ p)
        if m:
            pivots.append(m)
            pivots.sort(reverse=True)
    return len(pivots)


@st.composite
def gf2_rows(draw):
    """Rows up to 70 bits wide with zero, repeated and dependent (XOR of two
    earlier) rows mixed in, and entries of any parity."""
    width = draw(st.integers(1, 70))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "repeat", "sum"]), max_size=40)):
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([0] * width)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "sum":
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(r, s)])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)))
    return rows


@settings(max_examples=300, deadline=None)
@given(gf2_rows())
def test_gf2_rank_matches_the_sorted_pivot_loop(rows):
    assert gf2_rank(rows) == sorted_pivot_rank(rows)


def test_non_integral_variables_refused():
    with pytest.raises(ValueError, match="not an integer"):
        BoolPoly(2, [(0.5, 1)])
    with pytest.raises(ValueError, match="not an integer"):
        BoolPoly(2, [(0,), (1, 2.25)])
    assert BoolPoly(2, [(1.0, "0")]).monomials == frozenset({(0, 1)})


def test_cubic_wedge():
    # a cubic monomial's q-image is the unit vector of its own triple, so q
    # is a bijection from the cubic monomials onto the basis wedges
    for g in (2, 3):
        index = SymplecticSpace(g).triple_index()
        cubics = [m for m in bool_basis(g, 3) if len(m) == 3]
        assert len(cubics) == comb(2 * g, 3)
        for m in cubics:
            assert q_map(BoolPoly(g, [m])) == tuple(int(i == index[m]) for i in range(len(index)))
    # a1 b1 a2 at genus 2 is a1 ^ b1 ^ a2, the first basis wedge
    assert q_map(BoolPoly(2, [(0, 1, 2)])) == (1, 0, 0, 0)


@pytest.mark.parametrize("kind", ["d2", "D1", "", None])
def test_unknown_pullback_kind_refused(kind):
    # only d1 and d3 name a fiber product; no other kind may be read as d1
    with pytest.raises(ValueError, match="unknown pullback kind"):
        expected_invariants(3, kind)
    with pytest.raises(ValueError, match="unknown pullback kind"):
        torelli._pullback(3, kind)


def test_torelli_entries_skipped_past_the_cap_before_any_build(monkeypatch):
    # genus 12 is within the cap, genus 13 is not: neither the relation
    # matrix nor a q-image is built, and every torelli-h1 entry is skipped
    def cells(g, kill_a):
        rows = bool_dimension(g, 3)
        return (rows + kill_a) * (rows + comb(2 * g, 3))

    assert cells(12, True) <= torelli._RELATION_CELL_CAP < cells(13, False)
    built = []
    monkeypatch.setattr(torelli, "_pullback_relations", lambda *args: built.append(args))
    monkeypatch.setattr(torelli, "q_map", lambda *args: built.append(args))
    rep = run(RunConfig(genus=13, max_degree=2, suites=("torelli-h1",)))
    assert [c.status for c in rep.checks] == ["skipped"] * 3
    assert all("13" in c.actual and "beyond desk scale" in c.actual for c in rep.checks)
    assert built == []
