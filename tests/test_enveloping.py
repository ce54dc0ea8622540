"""Rewriting engine, Hilbert dimensions, and associative center checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg import intlinalg
from surfalg._kernel import reduce_terms
from surfalg.enveloping import (
    NcPoly,
    _CommutatorRows,
    center_in_degree_assoc,
    enveloping_algebra,
    hilbert_dimension,
    lcs_ranks,
    letter_name,
    series_product,
    target_series,
)
from surfalg.freelie import LieElement, free_lie_algebra
from surfalg.surface import build, omega_element


def _reduce(ring, terms):
    """terms reduced by the ring's rule, in the ring's memo."""
    return reduce_terms(terms, *ring.lead, ring.rhs_words, ring.rhs_coeffs, ring._memo, ring.max_len)


def brute_reduced_count(genus, degree):
    """Enumerate all words and count the ones avoiding the forbidden factor."""
    alg = enveloping_algebra(genus)
    l0, l1 = alg.lead
    count = 0
    for w in itertools.product(range(2 * genus), repeat=degree):
        if not any(w[i] == l0 and w[i + 1] == l1 for i in range(degree - 1)):
            count += 1
    return count


def poly(alg, terms):
    """The reduced polynomial of {word: coeff}."""
    return NcPoly(alg, _reduce(alg, terms))


class TestReduce:
    def test_relation_reduces_to_zero(self):
        for genus in (2, 3):
            alg = enveloping_algebra(genus)
            assert _reduce(alg, alg.relation) == {}

    def test_leading_word_golden(self):
        # one-step hand reduction at genus 2: b2*a2 = a1*b1 - b1*a1 + a2*b2
        alg = enveloping_algebra(2)
        assert _reduce(alg, {(3, 2): 1}) == {(0, 1): 1, (1, 0): -1, (2, 3): 1}

    def test_cancellation(self):
        alg = enveloping_algebra(2)
        assert poly(alg, {(0, 3): 0}) == NcPoly(alg, {})
        assert poly(alg, {(0, 3): 1}) - poly(alg, {(0, 3): 1}) == NcPoly(alg, {})

    def test_normal_forms_avoid_lead(self):
        alg = enveloping_algebra(2)
        rng = random.Random(3)
        for _ in range(50):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
            for word in _reduce(alg, {w: 1}):
                assert not any(
                    word[i] == 3 and word[i + 1] == 2 for i in range(len(word) - 1)
                )

    def test_reduce_is_multiplicative(self):
        # reduce(p*q) == reduce(reduce(p)*reduce(q)) on random raw inputs
        alg = enveloping_algebra(2)
        rng = random.Random(17)
        for _ in range(30):
            def raw():
                return {
                    tuple(rng.randrange(4) for _ in range(rng.randint(0, 4))): rng.randint(-3, 3)
                    for _ in range(3)
                }
            p, q = raw(), raw()
            prod = {}
            for wa, ca in p.items():
                for wb, cb in q.items():
                    prod[wa + wb] = prod.get(wa + wb, 0) + ca * cb
            assert poly(alg, prod) == poly(alg, p) * poly(alg, q)

    def test_genus_one_is_commutative_polynomials(self):
        # single relation b1*a1 -> a1*b1: normal forms are sorted words
        alg = enveloping_algebra(1)
        assert _reduce(alg, {(1, 0, 1, 0): 1}) == {(0, 0, 1, 1): 1}

    def test_multiplication_associative(self):
        # normal forms are unique, so the reduced product must associate
        alg = enveloping_algebra(2)
        rng = random.Random(29)
        for _ in range(25):
            def rand():
                return poly(
                    alg,
                    {
                        tuple(rng.randrange(4) for _ in range(rng.randint(0, 4))): rng.randint(-3, 3)
                        for _ in range(3)
                    },
                )
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)

    def test_concurrent_reduction_is_safe(self):
        # the shared memo is only ever extended with idempotent entries
        from concurrent.futures import ThreadPoolExecutor

        alg = enveloping_algebra(3)
        words = [
            tuple((i + j) % 6 for j in range(5))
            for i in range(40)
        ] + [(5, 4) * 2, (5, 4, 5, 4, 0)]
        expected = [_reduce(alg, {w: 1}) for w in words]
        fresh = enveloping_algebra(3)

        def work(w):
            return _reduce(alg, {w: 1})

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, words * 5))
        assert results[: len(words)] == expected
        assert fresh is alg  # the per-genus handle is shared


class TestHilbert:
    def test_degree_zero(self):
        assert hilbert_dimension(3, 0) == 1

    def test_recurrence_values(self):
        # c_d = 6 c_{d-1} - c_{d-2}: 1, 6, 35, 204, 1189
        assert [hilbert_dimension(3, d) for d in range(5)] == [1, 6, 35, 204, 1189]
        # c_d = 4 c_{d-1} - c_{d-2}: 1, 4, 15, 56
        assert hilbert_dimension(2, 3) == 56

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, genus, degree):
        assert hilbert_dimension(genus, degree) == brute_reduced_count(genus, degree)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_reduced_words_have_hilbert_size(self, genus):
        alg = enveloping_algebra(genus)
        for d in range(5):
            assert len(alg.reduced_words(d)) == hilbert_dimension(genus, d)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
    def test_reduced_words_are_the_ordered_filter(self, genus, degree):
        alg = enveloping_algebra(genus)
        l0, l1 = alg.lead
        brute = tuple(
            w
            for w in itertools.product(range(2 * genus), repeat=degree)
            if not any(w[i] == l0 and w[i + 1] == l1 for i in range(degree - 1))
        )
        words = alg.reduced_words(degree)
        assert words == brute  # product() enumerates in lexicographic order
        assert list(words) == sorted(words)
        assert alg.reduced_words(degree) is words


class TestCenter:
    @pytest.mark.parametrize("genus,degree", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_center_empty_small(self, genus, degree):
        assert center_in_degree_assoc(genus, degree) == []

    def test_centralizer_of_a_single_letter_is_not_missed(self):
        # sanity for the incremental restriction: a1^2 commutes with a1, so
        # after the first generator the kernel is nonempty, and later
        # generators must clear it
        alg = enveloping_algebra(2)
        a1 = alg.letter(0)
        p = a1 * a1
        assert p.commutator(a1) == NcPoly(alg, {})
        assert p.commutator(alg.letter(1)) != NcPoly(alg, {})
        assert center_in_degree_assoc(2, 2) == []


class TestCommutatorMapsMatchGenericProducts:
    """center_in_degree_assoc's lazy, word-keyed rows against two generic
    products per (word, letter), and its kernel against the common left
    kernel of the full index-keyed generic maps, the path it replaced, kept
    here as the oracle."""

    @staticmethod
    def generic_row(alg, word, letter):
        gen = {(letter,): 1}
        row = alg.mul_raw({word: 1}, gen)
        for ww, cc in alg.mul_raw(gen, {word: 1}).items():
            row[ww] = row.get(ww, 0) - cc
        return {ww: cc for ww, cc in row.items() if cc}

    @pytest.mark.parametrize("genus,degree", [(g, d) for g in (1, 2, 3) for d in (1, 2, 3, 4)])
    def test_rows_and_kernel(self, genus, degree):
        alg = enveloping_algebra(genus)
        basis = alg.reduced_words(degree)
        generic_maps = []
        for letter in range(alg.n_letters):
            rows = _CommutatorRows(alg, basis, letter)
            generic = [self.generic_row(alg, w, letter) for w in basis]
            # every row is compared, not only those the kernel reaches
            assert [rows[i] for i in range(len(basis))] == generic
            generic_maps.append(generic)
        index = alg.word_index(degree + 1)
        indexed = [[{index[ww]: cc for ww, cc in row.items()} for row in m] for m in generic_maps]
        oracle = intlinalg.common_left_kernel(len(basis), indexed)
        got = center_in_degree_assoc(genus, degree)
        assert got == [NcPoly(alg, {basis[i]: c for i, c in combo.items()}) for combo in oracle]
        # genus 1 is commutative, so every word of the degree is central
        assert len(got) == (hilbert_dimension(genus, degree) if genus == 1 else 0)


class TestLieCompatibility:
    def test_commutator_realizes_bracket(self):
        # enveloping image of [x, y] equals the associative commutator of the
        # images, after reduction
        rng = random.Random(23)
        fl = free_lie_algebra(4)
        env = enveloping_algebra(2)
        for _ in range(20):
            def rand_elem(max_degree):
                coords = {}
                for _ in range(2):
                    d = rng.randint(1, max_degree)
                    coords[rng.choice(fl.basis_words(d))] = rng.randint(-2, 2)
                return LieElement(fl, coords)
            x, y = rand_elem(3), rand_elem(2)
            lhs = env.from_lie(x.bracket(y))
            rhs = env.from_lie(x).commutator(env.from_lie(y))
            assert lhs == rhs


class TestSeries:
    def test_pbw_product_matches_known_series(self):
        # hand-checkable: genus 2 ranks 4, 5, 16 give 1, 4, 15, 56 through t^3
        assert series_product({1: 4, 2: 5, 3: 16}, 3) == [1, 4, 15, 56]
        assert target_series(2, 3) == [1, 4, 15, 56]
        # genus 3 ranks 6, 14, 64 give 1, 6, 35, 204
        assert series_product({1: 6, 2: 14, 3: 64}, 3) == [1, 6, 35, 204]
        assert target_series(3, 3) == [1, 6, 35, 204]

    @pytest.mark.parametrize("genus,K", [(2, 7), (3, 5), (4, 4)])
    def test_lcs_ranks_match_the_graded_build(self, genus, K):
        built = build(genus, K).ranks()
        for k in range(1, K + 1):
            assert lcs_ranks(genus, k) == list(built[:k])

    @pytest.mark.parametrize("genus", [2, 3, 4, 7])
    def test_lcs_ranks_solve_the_series_identity(self, genus):
        K = 9
        ranks = lcs_ranks(genus, K)
        assert len(ranks) == K and all(r > 0 for r in ranks)
        assert series_product(dict(enumerate(ranks, 1)), K) == target_series(genus, K)


def test_letter_names():
    assert [letter_name(i) for i in range(6)] == ["a1", "b1", "a2", "b2", "a3", "b3"]


def test_poly_repr_and_coefficient():
    alg = enveloping_algebra(2)
    p = poly(alg, {(0, 3): 1, (1,): 2, (): 5, (3, 2): 0})
    assert dict(p.items()) == {(0, 3): 1, (1,): 2, (): 5}
    assert repr(p) == "NcPoly(5 + 2*b1 + 1*a1*b2)"
    assert repr(NcPoly(alg, {})) == "NcPoly(0)"


def test_letters_outside_the_alphabet_refused():
    alg = enveloping_algebra(2)
    for index in (-1, 4, 9):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            alg.letter(index)


def expand_then_reduce(env, elem):
    """The enveloping image as it was built before the commutators were
    formed on reduced polynomials: every bracketing expanded in the free
    associative algebra, summed unreduced, and reduced once at the end."""
    raw = {}

    def expand(tree):
        if isinstance(tree, int):
            return {(tree,): 1}
        left, right = expand(tree[0]), expand(tree[1])
        out = {}
        for wa, ca in left.items():
            for wb, cb in right.items():
                for w, c in ((wa + wb, ca * cb), (wb + wa, -ca * cb)):
                    val = out.get(w, 0) + c
                    if val:
                        out[w] = val
                    else:
                        del out[w]
        return out

    for word, coeff in elem.items():
        for w, c in expand(elem.algebra.bracketing(word)).items():
            val = raw.get(w, 0) + coeff * c
            if val:
                raw[w] = val
            else:
                del raw[w]
    return NcPoly(env, _reduce(env, raw))


@st.composite
def lie_elements(draw):
    """(enveloping algebra, Lie element) at genus 1-3, degrees 1-5."""
    genus = draw(st.integers(1, 3))
    fl = free_lie_algebra(2 * genus)
    coords = {}
    for _ in range(draw(st.integers(0, 4))):
        words = fl.basis_words(draw(st.integers(1, 5)))
        coords[words[draw(st.integers(0, len(words) - 1))]] = draw(st.integers(-3, 3))
    return enveloping_algebra(genus), LieElement(fl, coords)


class TestFromLieMatchesExpandThenReduce:
    @settings(max_examples=150, deadline=None)
    @given(lie_elements())
    def test_random_elements(self, case):
        env, elem = case
        got = env.from_lie(elem)
        assert got == expand_then_reduce(env, elem)
        assert all(c for _, c in got.items())

    def test_fixed_cases(self):
        env = enveloping_algebra(2)
        fl = free_lie_algebra(4)
        # omega maps to the relation, which reduces to zero
        assert env.from_lie(omega_element(2)) == NcPoly(env, {})
        assert env.from_lie(fl.zero()) == NcPoly(env, {})
        # [a1, b1] = a1 b1 - b1 a1, already reduced
        ab = fl.generator(0).bracket(fl.generator(1))
        assert env.from_lie(ab) == NcPoly(env, {(0, 1): 1, (1, 0): -1})
        assert env.from_lie(ab) == expand_then_reduce(env, ab)
        # [a2, b2] reduces through the rule: b2 a2 is the leading word
        cd = fl.generator(2).bracket(fl.generator(3))
        assert env.from_lie(cd) == NcPoly(env, {(1, 0): 1, (0, 1): -1})
        assert env.from_lie(3 * cd) == 3 * env.from_lie(cd)
        with pytest.raises(ValueError, match="letter counts differ"):
            env.from_lie(free_lie_algebra(6).generator(0))
