"""Symplectic generators, exterior-cube action, contraction, and the commutant."""

import random
import re
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg import intlinalg, symplectic
from surfalg.enveloping import letter_name
from surfalg.errors import CertificateError
from surfalg.intlinalg import DimensionMismatch, IntMatrix
from surfalg.symplectic import (
    RoundtripReport,
    SymplecticSpace,
    _commutator_images,
    _weight_block_entries,
    certify_generators,
    commutant_dimension,
    contraction,
    contraction_equivariance,
    contraction_matrix,
    generator_actions,
    h_projector,
    johnson_image,
    lambda3_action,
    sp_generators,
    summand_correspondence_roundtrip,
    theta_wedge,
    wedge3,
)
from surfalg.torelli import BoolPoly, element_a, q_map
from retract_transfer import transfer_verdicts


def _eye(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def _zeros(rows, cols):
    """The rows x cols zero matrix."""
    return IntMatrix([[0] * cols] * rows, cols=cols)


def _minus_identity(act):
    """The nonzero columns {c: A e_c - e_c} of A - I, read off A's dense
    entries: the form `generator_actions` stores."""
    n = act.rows
    cols = {c: {r: act[r, c] - (r == c) for r in range(n) if act[r, c] != (r == c)} for c in range(n)}
    return {c: col for c, col in cols.items() if col}


def _full_actions(g):
    """(gen, lambda3_action(gen)) over the generators, built in the test."""
    return [(gen, lambda3_action(gen)) for gen in sp_generators(g)]


def _cube_vector(space, *triple_coeffs):
    """Dense cube coordinates with coefficient c on each given sorted triple."""
    index = space.triple_index()
    coords = [0] * len(index)
    for t, c in triple_coeffs:
        coords[index[t]] = c
    return coords


def _dense(space, row):
    """A sparse cube row, such as `theta_wedge` returns, as dense coordinates."""
    return [row.get(i, 0) for i in range(len(space.triples()))]


@pytest.mark.parametrize("g", [1, 2, 3, 5])
def test_triple_basis_built_once_per_dimension(g):
    # every reader shares one read-only basis, in `combinations` order
    space = SymplecticSpace(g)
    trips, index = space.triples(), space.triple_index()
    assert trips is SymplecticSpace(g).triples() and index is SymplecticSpace(g).triple_index()
    assert trips == tuple(combinations(range(2 * g), 3))
    assert list(index.items()) == [(t, i) for i, t in enumerate(trips)]
    with pytest.raises(TypeError):
        index[(0, 1, 2)] = 5


def test_letter_order_convention_by_hand_at_genus_two():
    # basis a1, b1, a2, b2 = e0, e1, e2, e3; w(a_i, b_i) = 1
    space = SymplecticSpace(2)
    assert [letter_name(i) for i in range(4)] == ["a1", "b1", "a2", "b2"]
    assert space.form_matrix() == IntMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    # theta = a1^b1 + a2^b2: its terms are the pairs w sends to 1, its mod-2
    # shadow is a1 b1 + a2 b2, and theta ^ (x1 a1 + y1 b1 + x2 a2 + y2 b2) is
    # x2 a1^b1^a2 + y2 a1^b1^b2 + x1 a1^a2^b2 + y1 b1^a2^b2
    assert [(i, j) for i in range(4) for j in range(4) if space.pairing(i, j) == 1] == [(0, 1), (2, 3)]
    assert element_a(2).monomials == {(0, 1), (2, 3)}
    assert space.triples() == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert theta_wedge(space, [2, 3, 5, 7]) == {0: 5, 1: 7, 2: 2, 3: 3}
    # theta^a1, theta^b1, theta^a2, theta^b2, as {triple: sign}
    rows = [{space.triples()[c]: x for c, x in row.items()} for row in johnson_image(2).sparse_rows]
    assert rows == [{(0, 2, 3): 1}, {(1, 2, 3): 1}, {(0, 1, 2): 1}, {(0, 1, 3): 1}]
    # the four generators e_1, f_1 (unit shears between handles 1 and 2),
    # upper-ii and lower-ii at handle 2, as I plus their entries {(row, col): x}
    want = [
        {(0, 2): 1, (3, 1): -1},  # a2 -> a2 + a1, b1 -> b1 - b2
        {(2, 0): 1, (1, 3): -1},  # a1 -> a1 + a2, b2 -> b2 - b1
        {(2, 3): 1},  # b2 -> b2 + a2
        {(3, 2): 1},  # a2 -> a2 + b2
    ]
    assert list(sp_generators(2)) == [
        IntMatrix([[int(r == c) + entries.get((r, c), 0) for c in range(4)] for r in range(4)]) for entries in want
    ]
    # the cubic monomial a1 b1 a2 is the triple (0, 1, 2), the first basis wedge
    assert q_map(BoolPoly(2, [(0, 1, 2)])) == (1, 0, 0, 0)


class TestGenerators:
    def test_genus_one_two_shears(self):
        gens = sp_generators(1)
        assert len(gens) == 2
        assert set(gens) == {IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])}

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_every_generator_preserves_form(self, g):
        space = SymplecticSpace(g)
        j = space.form_matrix()
        for gen in sp_generators(g):
            assert gen.transpose() @ j @ gen == j

    def test_counts_recorded(self):
        # e_i, f_i for i < g and the two at the last handle
        assert [len(sp_generators(g)) for g in (1, 2, 3, 12)] == [2, 4, 6, 24]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_built_once_per_genus(self, g):
        gens = sp_generators(g)
        assert isinstance(gens, tuple)
        assert sp_generators(g) == gens
        pairs = generator_actions(g)
        assert generator_actions(g) is pairs
        assert [gen for gen, _ in pairs] == list(gens)
        for gen, moved in pairs:
            assert moved == _minus_identity(lambda3_action(gen))

    @pytest.mark.parametrize("g", [3, 4])
    def test_actions_are_transposed_once_per_genus(self, g, monkeypatch):
        # the store builds each full action once, by rows, from the transpose
        # of its generator's matrix, and keeps only A - I: the only matrices
        # transposed are the 2g x 2g generators, never a cube-sized one, and
        # commutant_dimension and the roundtrip transpose nothing
        generator_actions.cache_clear()
        built = []
        build = symplectic.lambda3_action

        def counting_build(m):
            built.append(m)
            return build(m)

        calls = []
        transpose = IntMatrix.transpose

        def counting(m):
            calls.append(m.shape)
            return transpose(m)

        monkeypatch.setattr(symplectic, "lambda3_action", counting_build)
        monkeypatch.setattr(IntMatrix, "transpose", counting)
        pairs = generator_actions(g)
        assert calls and set(calls) == {(2 * g, 2 * g)}
        calls.clear()
        commutant_dimension(g)
        commutant_dimension(g)
        assert summand_correspondence_roundtrip(johnson_image(g), g)
        assert calls == []
        assert generator_actions(g) is pairs
        monkeypatch.undo()
        assert built == [gen.transpose() for gen in sp_generators(g)]
        # the store holds no full action: per generator, only the nonzero
        # columns of A - I, fewer than the cube has
        for _, moved in pairs:
            assert isinstance(moved, dict) and all(isinstance(col, dict) and col for col in moved.values())
            assert len(moved) < comb(2 * g, 3)

    def test_bad_matrix_rejected(self):
        with pytest.raises(CertificateError, match=r"generator 0 is not I \+ N"):
            certify_generators(1, (IntMatrix([[1, 1], [1, 1]]),))


def _gen(n, entries):
    """I + sum x E(r, c) of size n, for entries {(r, c): x}."""
    rows = [{r: 1} for r in range(n)]
    for (r, c), x in entries.items():
        rows[r][c] = x
    return IntMatrix._of(rows, n)


def _five_families(g):
    """The five lambda=1 families over their valid index pairs, 2g^2
    generators: the generating set the 2g Chevalley generators replaced,
    kept as the oracle for them.  upper-ii I + E(a_i, b_i), lower-ii
    I + E(b_i, a_i), lower-sym I + E(b_i, a_j) + E(b_j, a_i) and upper-sym
    I + E(a_i, b_j) + E(a_j, b_i) for i < j, unit-shear I + E(a_i, a_j) -
    E(b_j, b_i) for i != j."""
    n = 2 * g
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    return (
        *(_gen(n, {(2 * i, 2 * i + 1): 1}) for i in range(g)),
        *(_gen(n, {(2 * i + 1, 2 * i): 1}) for i in range(g)),
        *(_gen(n, {(2 * i + 1, 2 * j): 1, (2 * j + 1, 2 * i): 1}) for i, j in pairs),
        *(_gen(n, {(2 * i, 2 * j + 1): 1, (2 * j, 2 * i + 1): 1}) for i, j in pairs),
        *(
            _gen(n, {(2 * i, 2 * j): 1, (2 * j + 1, 2 * i + 1): -1})
            for i in range(g)
            for j in range(g)
            if i != j
        ),
    )


def _nilpotent(m):
    """N = m - I, as an IntMatrix."""
    return IntMatrix([[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(m.entries)], cols=m.cols)


def _flat(m):
    """A square IntMatrix flattened row by row, as a sparse row."""
    return {k: x for k, x in enumerate(v for row in m.entries for v in row) if x}


def _generated_algebra(gens):
    """Flattened rows spanning the Lie algebra that the generators' N
    generate, by dense matrix products: each element that raises the rank
    is kept, and its brackets [N, x] with every N are queued.  The
    reference for the certificate's span."""
    ns = [_nilpotent(gen) for gen in gens]
    rows, todo = [], list(ns)
    while todo:
        x = todo.pop()
        if intlinalg.sparse_rank(rows + [_flat(x)]) > len(rows):
            rows.append(_flat(x))
            for a in ns:
                ax, xa = (a @ x).entries, (x @ a).entries
                todo.append(IntMatrix([[p - q for p, q in zip(r, t)] for r, t in zip(ax, xa)], cols=x.cols))
    return rows


class TestCertificate:
    @pytest.mark.parametrize("g", range(1, 21))
    def test_holds(self, g):
        certify_generators(g, sp_generators(g))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_old_families_pass_it_too(self, g):
        certify_generators(g, _five_families(g))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_a_wrong_sign_fails(self, g):
        # e_1 with +E(b_2, b_1): N^2 = 0 still, but N leaves sp(2g)
        gens = list(sp_generators(g))
        gens[0] = _gen(2 * g, {(0, 2): 1, (3, 1): 1})
        with pytest.raises(CertificateError, match=r"generator 0 is not I \+ N"):
            certify_generators(g, gens)

    def test_a_zero_matrix_fails(self):
        with pytest.raises(CertificateError, match=r"generator 0 is not I \+ N with N\^2 = 0"):
            certify_generators(3, (_zeros(6, 6),))

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_every_single_drop_shrinks_the_span(self, g):
        gens = sp_generators(g)
        spans = []
        for k in range(len(gens)):
            with pytest.raises(CertificateError, match="span") as err:
                certify_generators(g, gens[:k] + gens[k + 1 :])
            got, want = map(int, re.search(r"span (\d+) of the (\d+)", str(err.value)).groups())
            assert want == g * (2 * g + 1) and got < want
            spans.append(got)
        if g == 3:
            assert set(spans) == {13, 14, 15}

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_span_matches_dense_brackets(self, g):
        # the certified algebra, by the reference, is all of sp(2g), and it
        # holds the N of every generator of the five families
        rows = _generated_algebra(sp_generators(g))
        assert len(rows) == g * (2 * g + 1)
        for gen in _five_families(g):
            assert intlinalg.sparse_rank(rows + [_flat(_nilpotent(gen))]) == len(rows), gen


class TestLambda3:
    def test_identity_functorial(self):
        assert lambda3_action(_eye(6)) == _eye(comb(6, 3))

    def test_unimodular_actions(self):
        for gen in sp_generators(3):
            act = lambda3_action(gen)
            assert act.rows == act.cols == 20
            d = intlinalg.snf(act).d
            assert all(x == 1 for x in d)

    def test_inverse_pairs_compose_to_identity(self):
        rng = random.Random(12)
        gens = sp_generators(3)
        for gen in rng.sample(gens, 5):
            # unimodular, so the Hermite transform IS the exact inverse
            h, u = intlinalg.hermite_with_transform(gen)
            assert h == _eye(6)
            assert gen @ u == _eye(6)
            assert lambda3_action(gen) @ lambda3_action(u) == _eye(20)

    def test_action_is_homomorphism_on_words(self):
        rng = random.Random(5)
        gens = sp_generators(2)
        for _ in range(10):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
            prod = word[0]
            for m in word[1:]:
                prod = prod @ m
            lhs = lambda3_action(prod)
            rhs = lambda3_action(word[0])
            for m in word[1:]:
                rhs = rhs @ lambda3_action(m)
            assert lhs == rhs


def _det3(m, rows, cols) -> int:
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return (
        m[r0][c0] * (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
        - m[r0][c1] * (m[r1][c0] * m[r2][c2] - m[r1][c2] * m[r2][c0])
        + m[r0][c2] * (m[r1][c0] * m[r2][c1] - m[r1][c1] * m[r2][c0])
    )


def _minors_action(m):
    """The exterior-cube matrix entry by entry as 3x3 minors of the dense
    rows: the reference for `lambda3_action`."""
    trips = tuple(combinations(range(m.rows), 3))
    ent = m.entries
    return IntMatrix([[_det3(ent, r, c) for c in trips] for r in trips], cols=len(trips))


def _square(n, kind, rng):
    """An n x n integer matrix: dense, sparse like a generator, or singular."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        rows = [[x if rng.random() < 0.2 else 0 for x in row] for row in rows]
    elif kind == "singular" and n:
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
        # row i a multiple of row j (the zero row when i == j or k == 0)
        rows[i] = [k * x if i != j else 0 for x in rows[j]]
    return IntMatrix(rows, cols=n)


square_cases = st.tuples(
    st.integers(0, 7), st.sampled_from(["dense", "sparse", "singular"]), st.randoms(use_true_random=False)
)


class TestLambda3MatchesMinors:
    @settings(max_examples=200, deadline=None)
    @given(square_cases)
    def test_equals_the_minor_formula(self, case):
        n, kind, rng = case
        m = _square(n, kind, rng)
        act = lambda3_action(m)
        assert act == _minors_action(m)
        assert act.shape == (comb(n, 3), comb(n, 3))
        assert all(type(x) is int and x for row in act.sparse_rows for x in row.values())

    @settings(max_examples=100, deadline=None)
    @given(square_cases, st.sampled_from(["dense", "sparse", "singular"]))
    def test_cauchy_binet(self, case, other_kind):
        n, kind, rng = case
        a, b = _square(n, kind, rng), _square(n, other_kind, rng)
        assert lambda3_action(a @ b) == lambda3_action(a) @ lambda3_action(b)

    @settings(max_examples=100, deadline=None)
    @given(square_cases)
    def test_commutes_with_transpose(self, case):
        # the store reads the columns of lambda3(S) as the rows of lambda3(S.T)
        n, kind, rng = case
        m = _square(n, kind, rng)
        assert lambda3_action(m.transpose()) == lambda3_action(m).transpose()

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_generators(self, g):
        for gen in sp_generators(g):
            assert lambda3_action(gen) == _minors_action(gen)

    def test_singular_and_small(self):
        assert lambda3_action(_zeros(5, 5)) == _zeros(10, 10)
        assert lambda3_action(_eye(2)).shape == (0, 0)
        assert lambda3_action(_zeros(0, 0)).shape == (0, 0)
        assert lambda3_action(IntMatrix([[2, 0, 0], [0, 3, 0], [1, 1, 5]])) == IntMatrix([[30]])
        with pytest.raises(ValueError):
            lambda3_action(IntMatrix([[1, 0, 0]]))


class TestContraction:
    def test_isotropic_triple_dies(self):
        space = SymplecticSpace(3)
        v = _cube_vector(space, ((0, 2, 4), 1))  # a1 ^ a2 ^ a3
        assert contraction(v, space) == (0,) * 6

    def test_theta_wedge_scaling(self):
        # theta ^ v contracts to (g-1) v
        for g in (2, 3, 4):
            space = SymplecticSpace(g)
            rng = random.Random(g)
            vec = [rng.randint(-3, 3) for _ in range(2 * g)]
            got = contraction(_dense(space, theta_wedge(space, vec)), space)
            assert got == tuple((g - 1) * x for x in vec)

    def test_single_pairing(self):
        space = SymplecticSpace(3)
        v = _cube_vector(space, ((0, 1, 2), 1))  # a1 ^ b1 ^ a2
        got = contraction(v, space)
        assert got == (0, 0, 1, 0, 0, 0)  # w(a1, b1) a2

    def test_dimension_counts(self):
        for g in (2, 3, 4):
            space = SymplecticSpace(g)
            c = contraction_matrix(space)
            assert c.cols == comb(2 * g, 3)
            assert intlinalg.sparse_rank(c.sparse_rows) == 2 * g
            assert intlinalg.kernel(c).rows == comb(2 * g, 3) - 2 * g

    @pytest.mark.parametrize("g", [2, 3])
    def test_equivariance_all_generators(self, g):
        space = SymplecticSpace(g)
        c = contraction_matrix(space)
        for gen in sp_generators(g):
            assert c @ lambda3_action(gen) == gen @ c

    def test_equivariance_random_vectors(self):
        space = SymplecticSpace(3)
        c = contraction_matrix(space)
        gens = sp_generators(3)
        rng = random.Random(99)
        for _ in range(200):
            gen = rng.choice(gens)
            v = [rng.randint(-5, 5) for _ in range(20)]
            lhs = contraction((lambda3_action(gen) @ IntMatrix([v]).transpose()).transpose().row(0), space)
            rhs = (gen @ IntMatrix([contraction(v, space)]).transpose()).transpose().row(0)
            assert lhs == tuple(rhs)


class TestJohnsonImage:
    def test_g3_first_row_support(self):
        space = SymplecticSpace(3)
        ji = johnson_image(3)
        idx = space.triple_index()
        row = ji.row(0)  # theta ^ a1
        support = {space.triples()[i] for i, c in enumerate(row) if c}
        # a1^b1^a1 = 0 leaves a2^b2^a1 and a3^b3^a1
        assert support == {(0, 2, 3), (0, 4, 5)}
        assert all(abs(c) == 1 for c in row if c)

    def test_g2_rank(self):
        assert intlinalg.sparse_rank(johnson_image(2).sparse_rows) == 4

    @pytest.mark.parametrize("g", [2, 3])
    def test_partial_basis(self, g):
        ji = johnson_image(g)
        assert ji.rows == 2 * g
        assert intlinalg.sparse_rank(ji.sparse_rows) == 2 * g
        assert intlinalg.is_direct_summand(ji, comb(2 * g, 3))


class TestCommutant:
    def test_dimension_is_two_at_g3(self):
        assert commutant_dimension(3) == 2

    def test_dimension_is_two_at_g4(self):
        # 56-dimensional module; the incremental restriction keeps it cheap
        assert commutant_dimension(4) == 2

    def test_projectors_in_commutant_and_independent(self):
        space = SymplecticSpace(3)
        p = h_projector(space)
        n = comb(6, 3)
        # P^2 = (g-1) P over the integers
        assert p @ p == IntMatrix([[2 * x for x in row] for row in p.entries])
        complement = IntMatrix([[2 * (i == j) - p[i, j] for j in range(n)] for i in range(n)])
        for gen in sp_generators(3):
            act = lambda3_action(gen)
            assert p @ act == act @ p
            assert complement @ act == act @ complement
        # independence: p is not a scalar matrix
        assert any(p[i, j] != 0 for i in range(n) for j in range(n) if i != j)

    def test_dimension_is_two_at_g6(self):
        # the first genus at which the full n*n system was refused
        assert commutant_dimension(6) == 2

    def test_requires_genus_three(self):
        with pytest.raises(ValueError):
            commutant_dimension(2)

    @pytest.mark.parametrize(
        "g, unknowns", [(3, 32), (4, 104), (5, 240), (6, 460), (8, 1232), (10, 2580)]
    )
    def test_weight_block_sizes(self, g, unknowns):
        # the sum of the squared weight multiplicities, against n*n
        entries = _weight_block_entries(g)
        assert len(entries) == unknowns
        assert len(set(entries)) == unknowns
        assert {(k, k) for k in range(comb(2 * g, 3))} <= set(entries)

    @pytest.mark.parametrize("g", [3, 4])
    def test_images_on_the_stored_form_are_the_full_action_images(self, g):
        # X -> M X - X M on the stored M = A - I against X -> A X - X A on
        # the full action, on every weight-block entry
        n = comb(2 * g, 3)
        entries = _weight_block_entries(g)
        for (_, moved), (_, act) in zip(generator_actions(g), _full_actions(g)):
            assert _commutator_images(moved, n, entries) == list(_full_images(act, entries))

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_block_lattice_is_the_dense_lattice(self, g, monkeypatch):
        # commutant_dimension's kernel basis over the weight-block entries,
        # put back in the n*n coordinates of X, spans the same lattice as the
        # kernel of the full n*n system
        kernels = []
        solve = intlinalg.common_left_kernel

        def record(n, maps):
            kernels.append(solve(n, maps))
            return kernels[-1]

        monkeypatch.setattr(intlinalg, "common_left_kernel", record)
        assert commutant_dimension(g) == 2
        monkeypatch.undo()
        (blocks,) = kernels
        n = comb(2 * g, 3)
        entries = _weight_block_entries(g)
        embedded = [{entries[i][0] * n + entries[i][1]: x for i, x in b.items()} for b in blocks]
        dense = _dense_commutant(g)
        assert len(dense) == 2
        got = intlinalg.row_span_hnf(IntMatrix._of(embedded, n * n))
        assert got == intlinalg.row_span_hnf(IntMatrix._of(dense, n * n))
        # the projector onto the copy of H, unscaled, lies in that lattice
        p = h_projector(SymplecticSpace(g)).sparse_rows
        assert intlinalg.row_span_contains(got, {k * n + c: x for k, row in enumerate(p) for c, x in row.items()})


def _full_images(act, entries):
    """Images of the unit matrices E_kc, for (k, c) in entries, under
    X -> A X - X A on a full action A, matrices flattened row by row."""
    n = act.rows
    cols, rows = act.transpose().sparse_rows, act.sparse_rows
    for k, c in entries:
        img = {r * n + c: x for r, x in cols[k].items()}
        for j, x in rows[c].items():
            img[k * n + j] = img.get(k * n + j, 0) - x
        yield {i: x for i, x in img.items() if x}


def _dense_commutant(g):
    """Reference: the commutant as the common left kernel over all n*n
    entries of X, on the full actions."""
    n = comb(2 * g, 3)
    entries = [(k, c) for k in range(n) for c in range(n)]
    return intlinalg.common_left_kernel(n * n, (list(_full_images(act, entries)) for _, act in _full_actions(g)))


class TestRoundtrip:
    def test_johnson_summand(self):
        rep = summand_correspondence_roundtrip(johnson_image(3), 3)
        assert rep.invariant and rep.summand
        assert bool(rep)

    def test_full_module_trivially_invariant(self):
        n = comb(6, 3)
        rep = summand_correspondence_roundtrip(_eye(n), 3)
        assert bool(rep)

    def test_g2_section_image_status_reported(self):
        # at genus 2 the section image is all of the cube; the operation
        # reports statuses instead of assuming uniqueness-driven facts
        rep = summand_correspondence_roundtrip(johnson_image(2), 2)
        assert rep.invariant and rep.summand

    def test_unimodular_change_of_basis(self):
        # U @ J spans J's lattice, and every verdict is taken on that
        # lattice's Hermite basis, so the report cannot move
        rng = random.Random(41)
        for g in (2, 3):
            base = johnson_image(g)
            hnf = intlinalg.row_span_hnf(base)
            want = summand_correspondence_roundtrip(base, g)
            assert bool(want)
            for _ in range(20):
                changed = _random_unimodular(rng, 2 * g) @ base
                assert intlinalg.row_span_hnf(changed) == hnf
                assert summand_correspondence_roundtrip(changed, g) == want

    def test_summand_verdicts_need_no_smith_form(self, monkeypatch):
        def refuse(a):
            raise AssertionError("snf called")

        monkeypatch.setattr(intlinalg, "snf", refuse)
        assert bool(summand_correspondence_roundtrip(johnson_image(3), 3))
        assert transfer_verdicts(_eye(3), _eye(3)) == (True, True)
        l1 = IntMatrix([[1, 0], [0, 1], [0, 0]])
        assert transfer_verdicts(l1, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == (False, True)

    def test_image_rows_match_the_row_convention(self):
        v = johnson_image(3)
        for _, act in _full_actions(3):
            assert (act @ v.transpose()).transpose() == v @ act.transpose()

    def test_non_summand_reported(self):
        doubled = IntMatrix([[2 * x for x in row] for row in johnson_image(3).entries])
        rep = summand_correspondence_roundtrip(doubled, 3)
        assert rep.invariant and not rep.summand
        assert not bool(rep)


@lru_cache(maxsize=None)
def _minors_actions(g):
    return tuple(_minors_action(gen) for gen in sp_generators(g))


def _dense_roundtrip(v, g):
    """Reference roundtrip: every row of v @ A.T, for the minor-formula
    actions A, tested as a dense vector against v's own rows; and the
    saturation roundtrip itself, the Hermite basis of kernel(kernel(v)) (the
    integral points of v's rational span) against v's own."""
    invariant = True
    vt = v.transpose()
    for act in _minors_actions(g):
        image = (act @ vt).transpose()
        for row in image.entries:
            if not intlinalg.row_span_contains(v, row):
                invariant = False
                break
        if not invariant:
            break
    integral_points = intlinalg.row_span_hnf(intlinalg.kernel(intlinalg.kernel(v)))
    return RoundtripReport(invariant, integral_points == intlinalg.row_span_hnf(v))


def _submodule(g, kind, rng):
    """Rows of a submodule of the cube at genus g, of the given kind."""
    n = comb(2 * g, 3)
    if kind == "random":
        return IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 6))], cols=n)
    if kind == "rank-deficient":
        r = rng.randint(1, 3)
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        coeffs = IntMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r + rng.randint(1, 3))])
        return coeffs @ IntMatrix(basis, cols=n)
    if kind == "johnson":
        v = _random_unimodular(rng, 2 * g) @ johnson_image(g)
        scale = rng.choice([1, 1, 2])  # a doubled copy is invariant but no summand
        return IntMatrix([[scale * x for x in row] for row in v.entries], cols=n)
    if kind == "johnson-plus-tail":
        # one more row, supported on the last columns, so its Hermite row
        # comes after the invariant ones
        tail = [0] * (n - 3) + [rng.randint(-2, 2) for _ in range(3)]
        return IntMatrix(list((_random_unimodular(rng, 2 * g) @ johnson_image(g)).entries) + [tail], cols=n)
    if kind == "contraction-kernel":
        k = intlinalg.kernel(contraction_matrix(SymplecticSpace(g)))
        return _random_unimodular(rng, k.rows) @ k
    raise ValueError(kind)


class TestRoundtripMatchesDenseLoop:
    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize(
        "kind", ["random", "rank-deficient", "johnson", "johnson-plus-tail", "contraction-kernel"]
    )
    def test_reports_agree(self, g, kind):
        rng = random.Random(1000 * g + len(kind))
        reports = []
        for _ in range(12 if kind in ("johnson", "contraction-kernel") else 40):
            v = _submodule(g, kind, rng)
            # the same submodule with some rows repeated, in shuffled order
            rows = list(v.entries)
            rows += [rng.choice(rows) for _ in range(rng.randint(1, 3))] if rows else []
            rng.shuffle(rows)
            repeated = IntMatrix(rows, cols=v.cols)
            for w in (v, repeated):
                rep = summand_correspondence_roundtrip(w, g)
                assert rep == _dense_roundtrip(w, g)
                reports.append(rep)
        invariant = [rep.invariant for rep in reports]
        if kind in ("johnson", "contraction-kernel"):
            assert all(invariant)
        elif g == 3:
            assert not all(invariant)
        if kind == "johnson":
            assert {rep.summand for rep in reports} == {True, False}

    def test_zero_rows(self):
        n = comb(6, 3)
        for v in (_zeros(0, n), _zeros(2, n)):
            assert summand_correspondence_roundtrip(v, 3) == _dense_roundtrip(v, 3)


def _random_unimodular(rng, n):
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return IntMatrix(m, cols=n)


def test_wedge3_signs():
    assert wedge3(0, 1, 2) == ((0, 1, 2), 1)
    assert wedge3(1, 0, 2) == ((0, 1, 2), -1)
    assert wedge3(2, 0, 1) == ((0, 1, 2), 1)
    assert wedge3(0, 0, 1) is None


def test_space_labels():
    space = SymplecticSpace(2)
    assert [letter_name(i) for i in range(space.dim)] == ["a1", "b1", "a2", "b2"]
    assert space.pairing(0, 1) == 1
    assert space.pairing(1, 0) == -1
    assert space.pairing(0, 2) == 0
    assert space.pairing(1, 2) == 0
    assert space.pairing(0, 0) == 0


class TestNonIntegralInput:
    def test_contraction_of_a_plain_sequence(self):
        space = SymplecticSpace(2)
        with pytest.raises(ValueError, match="not an integer"):
            contraction([1.5, 0, 0, 0], space)
        assert contraction(["1", 0.0, 0, 0], space) == contraction(_cube_vector(space, ((0, 1, 2), 1)), space)


class TestWrongLengthRefused:
    @pytest.mark.parametrize("length", [0, 2, 5, 7, 12])
    def test_theta_wedge(self, length):
        with pytest.raises(DimensionMismatch):
            theta_wedge(SymplecticSpace(3), [1] + [0] * (length - 1) if length else [])

    @pytest.mark.parametrize("length", [0, 4, 19, 21])
    def test_contraction_of_a_plain_sequence(self, length):
        with pytest.raises(DimensionMismatch):
            contraction([1] * length, SymplecticSpace(3))

    def test_contraction_of_a_vector_at_another_genus(self):
        genus_two = SymplecticSpace(2)
        with pytest.raises(DimensionMismatch):
            contraction(_dense(genus_two, theta_wedge(genus_two, [1, 0, 0, 0])), SymplecticSpace(3))


@contextmanager
def _five_families_route():
    """Inside the block, every cube consumer reads the five families of
    `_five_families` (2g^2 generators) in place of `sp_generators`."""
    real = symplectic.sp_generators
    symplectic.sp_generators = _five_families
    generator_actions.cache_clear()
    try:
        yield
    finally:
        symplectic.sp_generators = real
        generator_actions.cache_clear()


def _cube_verdicts(g, lattices):
    """The commutant dimension (g >= 3), the equivariance verdict and the
    roundtrip reports on the lattices, on whatever generators the store reads."""
    count, intertwined = contraction_equivariance(g)
    commutant = commutant_dimension(g) if g >= 3 else None
    return commutant, count == intertwined, [summand_correspondence_roundtrip(v, g) for v in lattices]


class TestFiveFamiliesOracle:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_verdicts_agree(self, g):
        ji = johnson_image(g)
        lattices = [
            ji,
            intlinalg.kernel(contraction_matrix(SymplecticSpace(g))),
            IntMatrix._of([{c: 2 * x for c, x in row.items()} for row in ji.sparse_rows], ji.cols),
        ]
        new = _cube_verdicts(g, lattices)
        with _five_families_route():
            assert len(generator_actions(g)) == 2 * g * g
            old = _cube_verdicts(g, lattices)
        assert new == old
        assert new == (2 if g >= 3 else None, True, [(True, True), (True, True), (True, False)])

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from(["random", "rank-deficient", "johnson", "johnson-plus-tail", "contraction-kernel"]),
        st.sampled_from([1, 2, 3]),
        st.randoms(use_true_random=False),
    )
    def test_roundtrip_on_drawn_sublattices(self, g, kind, scale, rng):
        # a scale of 2 or 3 makes a nonzero lattice a non-summand
        v = _submodule(g, kind, rng)
        v = IntMatrix._of([{c: scale * x for c, x in row.items()} for row in v.sparse_rows], v.cols)
        new = summand_correspondence_roundtrip(v, g)
        with _five_families_route():
            assert summand_correspondence_roundtrip(v, g) == new
