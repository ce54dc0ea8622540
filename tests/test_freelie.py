"""Lyndon basis, Witt dimensions, and bracket identities."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg.freelie import (
    FreeLieAlgebra,
    LieElement,
    free_lie_algebra,
    lyndon_words,
    witt_dimension,
)


def is_lyndon(w):
    """Strictly smallest among its rotations (hence aperiodic)."""
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def brute_lyndon_count(n, d):
    """Necklace-style oracle: count words strictly minimal among rotations."""
    return sum(1 for w in itertools.product(range(n), repeat=d) if is_lyndon(w))


class TestWitt:
    def test_degree_one(self):
        assert witt_dimension(2, 1) == 2

    def test_two_letters_degree_five(self):
        # brute-force count of Lyndon words of length 5 on 2 letters
        assert brute_lyndon_count(2, 5) == 6
        assert witt_dimension(2, 5) == 6

    def test_six_letters_degree_two(self):
        # pairs {i < j}: C(6,2)
        assert witt_dimension(6, 2) == 15

    @pytest.mark.parametrize("n,d", [(n, d) for n in (2, 3, 4) for d in range(1, 7)])
    def test_matches_necklace_oracle(self, n, d):
        assert witt_dimension(n, d) == brute_lyndon_count(n, d)


class TestHallBasis:
    def test_degree_one_is_generators(self):
        assert FreeLieAlgebra(2).basis_words(1) == ((0,), (1,))

    def test_degree_two_two_letters(self):
        alg = FreeLieAlgebra(2)
        assert alg.basis_words(2) == ((0, 1),)
        assert alg.bracketing((0, 1)) == (0, 1)

    def test_four_letters_degree_three(self):
        assert len(FreeLieAlgebra(4).basis_words(3)) == 20  # (4^3 - 4) / 3

    @pytest.mark.parametrize("n,d", [(n, d) for n in (2, 3, 4, 6) for d in range(1, 7)])
    def test_cardinality_is_witt(self, n, d):
        assert len(free_lie_algebra(n).basis_words(d)) == witt_dimension(n, d)

    def test_lyndon_membership_checked(self):
        # the basis holds exactly the Lyndon words: (1, 0) is not one, (0, 0)
        # is periodic
        alg = free_lie_algebra(2)
        for d in range(1, 7):
            index = alg.word_index(d)
            assert {w for w in itertools.product(range(2), repeat=d) if is_lyndon(w)} == index.keys()

    @pytest.mark.parametrize("n,d", [(2, 5), (4, 3), (4, 6)])
    def test_word_index_built_once(self, n, d):
        alg = FreeLieAlgebra(n)
        index = alg.word_index(d)
        assert index == {w: i for i, w in enumerate(alg.basis_words(d))}
        assert alg.word_index(d) is index

    def test_degree_is_leaf_count(self):
        alg = free_lie_algebra(3)

        def leaves(t):
            return 1 if isinstance(t, int) else leaves(t[0]) + leaves(t[1])

        for w in alg.basis_words(4):
            assert leaves(alg.bracketing(w)) == len(w) == 4


def random_element(alg, rng, max_degree=3, terms=3):
    coords = {}
    for _ in range(terms):
        d = rng.randint(1, max_degree)
        w = rng.choice(alg.basis_words(d))
        coords[w] = coords.get(w, 0) + rng.randint(-3, 3)
    return LieElement(alg, coords)


class TestBracket:
    def test_alternating(self):
        alg = free_lie_algebra(2)
        x = alg.generator(0) + 2 * alg.generator(1)
        assert x.bracket(x) == alg.zero()

    def test_antisymmetry(self):
        alg = free_lie_algebra(2)
        a, b = alg.generator(0), alg.generator(1)
        assert a.bracket(b) + b.bracket(a) == alg.zero()

    def test_jacobi_paper_arrangement(self):
        # [x,[a,b]] + [b,[x,a]] + [a,[b,x]] = 0 on random triples
        rng = random.Random(11)
        alg = free_lie_algebra(3)
        for _ in range(40):
            x, a, b = (random_element(alg, rng) for _ in range(3))
            s = x.bracket(a.bracket(b)) + b.bracket(x.bracket(a)) + a.bracket(b.bracket(x))
            assert s == alg.zero()

    def test_grading(self):
        rng = random.Random(5)
        alg = free_lie_algebra(2)
        for dj, dk in [(1, 2), (2, 3), (1, 4), (3, 3)]:
            x = LieElement(alg, {rng.choice(alg.basis_words(dj)): 2})
            y = LieElement(alg, {rng.choice(alg.basis_words(dk)): 3})
            z = x.bracket(y)
            assert {len(w) for w, _ in z.items()} <= {dj + dk}

    def test_handle_mismatch(self):
        with pytest.raises(ValueError):
            FreeLieAlgebra(2).generator(0).bracket(FreeLieAlgebra(2).generator(1))

    def test_closes_on_basis(self):
        # brackets of basis words land back in the span of Lyndon words
        alg = free_lie_algebra(3)
        for u in alg.basis_words(2):
            for v in alg.basis_words(3):
                for w in alg.bracket_words(u, v):
                    assert is_lyndon(w) and len(w) == 5


class TestAssociativeEmbeddingOracle:
    """Structure constants cross-checked against the free associative algebra.

    The bracketing of a Lyndon word expands to an alternating sum of plain
    words; [x, y] must match the associative commutator of the expansions.
    This oracle is independent of the Jacobi rewriting path.
    """

    @staticmethod
    def expand_tree(tree):
        if isinstance(tree, int):
            return {(tree,): 1}
        left = TestAssociativeEmbeddingOracle.expand_tree(tree[0])
        right = TestAssociativeEmbeddingOracle.expand_tree(tree[1])
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

    @classmethod
    def expand_element(cls, alg, elem):
        out = {}
        for w, c in elem.items():
            for ww, cc in cls.expand_tree(alg.bracketing(w)).items():
                val = out.get(ww, 0) + c * cc
                if val:
                    out[ww] = val
                else:
                    del out[ww]
        return out

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bracket_matches_commutator(self, seed):
        rng = random.Random(seed)
        alg = free_lie_algebra(3)
        x = random_element(alg, rng, max_degree=3, terms=2)
        y = random_element(alg, rng, max_degree=2, terms=2)
        lhs = self.expand_element(alg, x.bracket(y))
        ex, ey = self.expand_element(alg, x), self.expand_element(alg, y)
        rhs = {}
        for wa, ca in ex.items():
            for wb, cb in ey.items():
                for w, c in ((wa + wb, ca * cb), (wb + wa, -ca * cb)):
                    val = rhs.get(w, 0) + c
                    if val:
                        rhs[w] = val
                    else:
                        del rhs[w]
        assert lhs == rhs


def test_lyndon_words_sorted_and_valid():
    for n, d in [(2, 4), (3, 3), (4, 2)]:
        words = lyndon_words(n, d)
        assert words == sorted(words)
        assert all(is_lyndon(w) for w in words)
