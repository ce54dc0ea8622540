"""Group words, truncated expansions, quotient centers, and the word identity."""

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg._kernel import mul_reduce, reduce_terms
from surfalg.errors import CertificateError
from surfalg.nilpotent import (
    GroupRingTruncation,
    GroupWord,
    LayerVerdict,
    MagnusSeries,
    center_of_quotient,
    equal_in_quotient,
    expand,
    generators,
    graded_rank_certificate,
    group_ring_truncation,
    surface_relator,
    verify_identity_viii,
    _hall_table,
    _realize_hall_words,
)
from surfalg.freelie import free_lie_algebra
from surfalg.surface import build
from lie_dicts import bracketing

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _reduce(ring, terms):
    """terms reduced by the ring's rule, in the ring's memo."""
    return reduce_terms(terms, *ring.lead, ring.rhs_words, ring.rhs_coeffs, ring._memo, ring.max_len)


def random_word(rng, genus, max_len=8):
    return GroupWord(
        genus,
        [rng.choice([1, -1]) * rng.randint(1, 2 * genus) for _ in range(rng.randint(0, max_len))],
    )


class TestGroupWord:
    def test_free_reduction(self):
        w = GroupWord(2, (1, 2, -2, -1, 3))
        assert w.letters == (3,)

    def test_inverse(self):
        w = GroupWord(2, (1, 2, -3))
        assert w * w.inverse() == GroupWord(2) == w.inverse() * w

    def test_commutator_of_self_trivial(self):
        w = GroupWord(2, (1, 2))
        assert w.commutator(w) == GroupWord(2)

    def test_alphabet_checked(self):
        with pytest.raises(ValueError):
            GroupWord(2, (5,))
        with pytest.raises(ValueError):
            GroupWord(2, (0,))

    def test_relator_letters(self):
        # [a1,b1][a2,b2] freely reduced has length 8 at genus 2
        assert len(surface_relator(2)) == 8
        assert len(surface_relator(3)) == 12

    def test_non_integral_letters_refused(self):
        with pytest.raises(ValueError, match="not an integer"):
            GroupWord(2, [1.9])
        with pytest.raises(ValueError, match="not an integer"):
            GroupWord(2, [1, -2.5])
        assert GroupWord(2, ["1", 2.0, -2]).letters == (1,)


class TestTrustedProducts:
    """Products and inverses cancel only at the junction of reduced factors;
    the public constructor's full reduction is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda g: st.tuples(
                st.just(g),
                *(
                    st.lists(st.integers(1, 2 * g).flatmap(lambda l: st.sampled_from([l, -l])), max_size=8)
                    for _ in range(3)
                ),
                st.sampled_from(["free", "cancel-all", "cancel-prefix"]),
            )
        )
    )
    def test_match_full_reduction(self, case):
        g, la, lb, lc, mode = case
        a = GroupWord(g, la)
        tail = GroupWord(g, lc)
        if mode == "free":
            b = GroupWord(g, lb)
        elif mode == "cancel-all":
            b = a.inverse()
        else:
            # a^-1 followed by c: a * b == c, the whole of a cancels
            b = GroupWord(g, [-l for l in reversed(a.letters)] + list(lc))
        for x, y in ((a, b), (b, a), (a, tail), (b, tail)):
            prod = x * y
            assert prod == GroupWord(g, x.letters + y.letters)
            inv = x.inverse()
            assert inv == GroupWord(g, [-l for l in reversed(x.letters)])
            comm = x.commutator(y)
            assert comm == GroupWord(g, x.letters + y.letters + inv.letters + y.inverse().letters)
            assert type(prod.letters) is tuple and type(comm.letters) is tuple
        if mode == "cancel-all":
            assert (a * b).letters == ()
        if mode == "cancel-prefix":
            assert a * b == tail

    def test_products_stay_reduced(self):
        rng = random.Random(11)
        for _ in range(500):
            g = rng.randint(1, 3)
            x, y = random_word(rng, g), random_word(rng, g)
            w = (x * y).commutator(y * x.inverse())
            assert all(p != -q for p, q in zip(w.letters, w.letters[1:]))
            assert w == GroupWord(g, w.letters)


class TestExpand:
    def test_single_generator(self):
        s = expand(GroupWord.generator(2, 0), 2)
        assert s == MagnusSeries(s.ring, {(): 1, (0,): 1})

    def test_inverse_geometric_series(self):
        s = expand(GroupWord(2, (-1,)), 2)
        assert s == MagnusSeries(s.ring, {(): 1, (0,): -1, (0, 0): 1})

    def test_commutator_leading_term(self):
        s = expand(GroupWord.generator(2, 0).commutator(GroupWord.generator(2, 1)), 2)
        assert s == MagnusSeries(s.ring, {(): 1, (0, 1): 1, (1, 0): -1})

    def test_identity_expands_to_one(self):
        assert expand(GroupWord(3), 4).is_one()

    @pytest.mark.parametrize("genus,K", [(g, k) for g in (2, 3) for k in range(1, 6)])
    def test_relator_keystone(self, genus, K):
        assert expand(surface_relator(genus), K).is_one()

    def test_relator_conjugates_die(self):
        rng = random.Random(4)
        for genus in (2, 3):
            for _ in range(5):
                w = random_word(rng, genus, 5)
                assert expand(w * surface_relator(genus) * w.inverse(), 3).is_one()

    def test_multiplicative(self):
        rng = random.Random(7)
        for genus in (2, 3):
            for K in range(1, 6):
                for _ in range(8):
                    u, v = random_word(rng, genus), random_word(rng, genus)
                    assert expand(u * v, K) == expand(u, K) * expand(v, K)

    def test_constant_term_enforced(self):
        ring = group_ring_truncation(2, 3)
        with pytest.raises(ValueError):
            MagnusSeries(ring, {(): 2})


def letter_series_expansion(ring, word):
    """Expansion by the earlier loop: a generic product with 1 + x for a
    generator and with the truncated geometric series for an inverse."""
    acc = {(): 1}
    for l in word.letters:
        i = abs(l) - 1
        if l > 0:
            series = {(): 1, (i,): 1}
        else:
            series = {(i,) * j: (-1) ** j for j in range(ring.truncation + 1)}
        acc = ring.mul_raw(acc, series)
    return acc


def inverse_heavy_word(rng, genus, max_len=9):
    # three of four letters inverted, so the inverse-letter solve dominates
    return GroupWord(
        genus,
        [rng.choice([1, -1, -1, -1]) * rng.randint(1, 2 * genus) for _ in range(rng.randint(0, max_len))],
    )


EXPANSION_RINGS = [(g, K) for g in (1, 2, 3) for K in range(1, 7)]


@pytest.mark.parametrize("genus,K", EXPANSION_RINGS)
def test_expansion_matches_letter_series_loop(genus, K):
    rng = random.Random(31 * genus + K)
    ring = GroupRingTruncation(genus, K)
    for _ in range(25):
        w = inverse_heavy_word(rng, genus)
        assert ring.expand_raw(w) == letter_series_expansion(ring, w)


class TestGroupRingModel:
    def test_multiplication_associative(self):
        # truncation commutes with multiplication, so the rewritten product
        # must be associative on the nose; this probes confluence directly
        rng = random.Random(5)
        ring = group_ring_truncation(2, 4)

        def rand_poly():
            out = {(): 1}
            for _ in range(4):
                w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 4)))
                out[w] = out.get(w, 0) + rng.randint(-3, 3)
            return _reduce(ring, out)

        for _ in range(30):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert ring.mul_raw(ring.mul_raw(a, b), c) == ring.mul_raw(a, ring.mul_raw(b, c))

    def test_rewrite_order_does_not_matter(self):
        # rewrite the rightmost occurrence by hand first, then let the engine
        # finish; the normal form must match the engine's leftmost strategy
        ring = group_ring_truncation(2, 6)
        lead = ring.lead
        word = lead + (0,) + lead  # two disjoint occurrences

        def manual_rewrite(w, pos):
            acc = {}
            for rw, rc in zip(ring.rhs_words, ring.rhs_coeffs):
                out = w[:pos] + rw + w[pos + 2 :]
                if len(out) <= ring.truncation:
                    acc[out] = acc.get(out, 0) + rc
            return {k: v for k, v in acc.items() if v}

        rightmost_first = _reduce(ring, manual_rewrite(word, 3))
        direct = _reduce(ring, {word: 1})
        assert rightmost_first == direct

    def test_relator_tail_is_integral_and_degree_bounded(self):
        ring = group_ring_truncation(3, 4)
        assert all(2 <= len(w) <= 4 for w in ring.rhs_words)
        assert all(isinstance(c, int) for c in ring.rhs_coeffs)
        # the two-letter part matches the graded relation
        graded = {w for w in ring.rhs_words if len(w) == 2}
        assert graded == {w for w in ring.graded.relation if w != ring.lead}


class TestEqualInQuotient:
    def test_abelianization(self):
        assert equal_in_quotient(GroupWord(2, (1, 2)), GroupWord(2, (2, 1)), 1)

    def test_degree_two_distinguishes(self):
        assert not equal_in_quotient(GroupWord(2, (1, 2)), GroupWord(2, (2, 1)), 2)

    def test_relator_equals_identity(self):
        for k in range(1, 5):
            assert equal_in_quotient(surface_relator(2), GroupWord(2), k)

    def test_genus_one_torus_is_abelian(self):
        # the commutator IS the relator at genus 1
        a, b = GroupWord.generator(1, 0), GroupWord.generator(1, 1)
        assert equal_in_quotient(a * b, b * a, 3)


class TestCenterOfQuotient:
    def test_g2_k2(self):
        rep = center_of_quotient(2, 2)
        assert rep.passed
        top = rep.layers[-1]
        assert top.layer == 2 and top.centralizes
        assert not rep.layers[0].centralizes

    def test_g3_k2(self):
        rep = center_of_quotient(3, 2)
        assert rep.passed

    def test_g2_k3(self):
        rep = center_of_quotient(2, 3)
        assert rep.passed
        assert [v.centralizes for v in rep.layers] == [False, False, True]

    def test_requires_class_two(self):
        with pytest.raises(ValueError):
            center_of_quotient(2, 1)

    def test_g3_k5(self):
        rep = center_of_quotient(3, 5)
        assert rep.passed
        top = rep.layers[-1]
        assert top.spanning_count == top.central_count == 1554

    def test_top_layer_forms_no_defect(self, monkeypatch):
        # a top-layer word that passes the layer check is central by degree
        seen = []
        defect = GroupRingTruncation.defect_raw

        def recording(ring, x, y, *args):
            seen.append(x.letters)
            return defect(ring, x, y, *args)

        monkeypatch.setattr(GroupRingTruncation, "defect_raw", recording)
        rep = center_of_quotient(2, 4)
        top = {x.letters for x in _realize_hall_words(2, 4, group_ring_truncation(2, 4))}
        assert seen and not top & set(seen)
        assert rep.passed and rep.layers[-1].central_count == len(top) == 60

    def test_top_layer_still_checked(self, monkeypatch):
        # the layer check is what makes the top layer central, so a forged
        # term below degree k must still be refused there
        ring = group_ring_truncation(2, 3)
        x = _realize_hall_words(2, 3, ring)[0]
        monkeypatch.setitem(ring._cache, x.letters, {(): 1, (0, 2): 1})
        with pytest.raises(CertificateError, match="below its layer 3"):
            center_of_quotient(2, 3)

    def test_layer_check_survives_optimize(self):
        # a forged expansion with a term below its layer must still be caught
        # when -O strips assert statements
        script = textwrap.dedent(
            """
            import sys
            from surfalg.nilpotent import (
                _realize_hall_words, center_of_quotient, group_ring_truncation,
            )

            ring = group_ring_truncation(2, 3)
            x = _realize_hall_words(2, 2, ring)[0]
            ring._cache[x.letters] = {(): 1, (0,): 1}
            try:
                center_of_quotient(2, 3)
            except AssertionError as exc:
                print(sys.flags.optimize, "raised", exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("1 raised commutator word expands below its layer 2")

    def test_agrees_with_graded_center(self):
        # two independent routes: the graded kernel computation and the
        # word-level commutator expansions must produce the same verdict
        alg = build(2, 4)
        from surfalg.surface import verify_center_theorem

        graded = verify_center_theorem(alg)
        word_level = center_of_quotient(2, 3)
        assert graded.passed and word_level.passed


def truncated(terms, d):
    return {w: c for w, c in terms.items() if len(w) <= d}


# (genus, K) pairs for the filtration facts and the centrality oracle
FILTERED_RINGS = [(2, K) for K in range(2, 7)] + [(3, K) for K in range(2, 5)]


def letters(g):
    return st.lists(st.integers(1, 2 * g).flatmap(lambda l: st.sampled_from([l, -l])), max_size=6)


class TestFiltration:
    """Cutting at degree d commutes with expansion and with reduced products.

    center_of_quotient's low-degree witness rests on both: reduction never
    shortens a word, so the words a cap drops cannot reach degree d.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(FILTERED_RINGS).flatmap(
            lambda gK: st.tuples(
                st.just(gK), st.integers(1, gK[1]), letters(gK[0]), letters(gK[0])
            )
        )
    )
    def test_truncation_commutes(self, case):
        (g, K), d, la, lb = case
        ring = group_ring_truncation(g, K)
        x, y = GroupWord(g, la), GroupWord(g, lb)
        assert group_ring_truncation(g, d).expand_raw(x) == truncated(ring.expand_raw(x), d)
        xs, ys = ring.expand_raw(x), ring.expand_raw(y)
        rule = (ring.lead[0], ring.lead[1], ring.rhs_words, ring.rhs_coeffs, ring._memo, K)
        capped = mul_reduce(xs, ys, d, *rule)
        assert truncated(capped, d) == truncated(ring.mul_raw(xs, ys), d)
        assert ring.defect_raw(x, y, d) == truncated(ring.defect_raw(x, y), d)

    def test_defect_decides_commutation(self):
        rng = random.Random(7)
        ring = group_ring_truncation(2, 4)
        for _ in range(40):
            x, y = random_word(rng, 2, 4), random_word(rng, 2, 4)
            assert (not ring.defect_raw(x, y)) == (ring.commutator_raw(x, y) == {(): 1})
            assert (not ring.defect_raw(x, y)) == equal_in_quotient(x * y, y * x, 4)


def full_commutator_verdicts(genus, k):
    """center_of_quotient's layers by its earlier loop: every commutator with
    a generator expanded at the full truncation and compared with 1."""
    ring = GroupRingTruncation(genus, k)
    gens = generators(genus)
    verdicts = []
    for j in range(1, k + 1):
        spanning = _realize_hall_words(genus, j, ring)
        central = 0
        for x in spanning:
            if all(ring.commutator_raw(x, y) == {(): 1} for y in gens):
                central += 1
        verdicts.append(LayerVerdict(j, len(spanning), central))
    return tuple(verdicts)


@pytest.mark.parametrize("genus,k", FILTERED_RINGS)
def test_witness_verdicts_match_full_commutators(genus, k):
    assert center_of_quotient(genus, k).layers == full_commutator_verdicts(genus, k)


@pytest.mark.parametrize("genus,K", [(2, 5), (3, 4)])
class TestCommutatorRoute:
    """Hall words expanded from their factors against the letter-by-letter route."""

    @staticmethod
    def hall_words(ring):
        # realizing the words through center_of_quotient's route seeds ring's
        # cache with each commutator's expansion
        words = []
        for j in range(1, ring.truncation + 1):
            words += _realize_hall_words(ring.genus, j, ring)
        return words

    def test_seeded_expansion_is_letter_by_letter(self, genus, K):
        ring, fresh = GroupRingTruncation(genus, K), GroupRingTruncation(genus, K)
        words = self.hall_words(ring)
        for x in words:
            if len(x) > 1:
                assert x.letters in ring._cache
            assert ring.expand_raw(x) == fresh.expand_raw(x)

    @staticmethod
    def four_factor_route(genus, K):
        """[x, y] as the product of its four factors, each expanded by the
        letter-series loop (memoized per word)."""
        oracle, expansions = GroupRingTruncation(genus, K), {}

        def expansion(w):
            if w not in expansions:
                expansions[w] = letter_series_expansion(oracle, w)
            return expansions[w]

        def four_factor(x, y):
            s = expansion(x)
            for w in (y, x.inverse(), y.inverse()):
                s = oracle.mul_raw(s, expansion(w))
            return s

        return four_factor, expansion

    def test_commutator_is_four_factor_product(self, genus, K):
        ring = GroupRingTruncation(genus, K)
        four_factor, _ = self.four_factor_route(genus, K)
        for x in self.hall_words(ring):
            for y in generators(genus):
                assert ring.commutator_raw(x, y) == four_factor(x, y)

    def test_capped_inverses_reach_every_layer(self, genus, K):
        # pairs of Hall words, at least one not a letter, whose defect starts
        # in every degree 3..K: the top layer (no product formed) and the
        # layers below (inverses formed only through K - m)
        ring = GroupRingTruncation(genus, K)
        four_factor, expansion = self.four_factor_route(genus, K)
        layers = {j: _realize_hall_words(genus, j, ring) for j in range(1, K + 1)}
        rng = random.Random(K)
        seen = set()
        for p in range(1, K):
            for q in range(2, K + 1 - p):
                for _ in range(6):
                    x, y = rng.choice(layers[p]), rng.choice(layers[q])
                    for a, b in ((x, y), (y, x)):
                        got = ring.commutator_raw(a, b)
                        assert got == four_factor(a, b)
                        seen.add(min((len(w) for w in got if w), default=None))
        assert set(range(3, K + 1)) <= seen
        # no inverse cut below the truncation was cached as an expansion
        for letters, terms in ring._cache.items():
            assert terms == expansion(GroupWord(genus, letters))

    def test_single_letters_of_either_sign(self, genus, K):
        # only a generator takes the letter routes; an inverse letter, as a
        # factor of a defect or a commutator, takes the generic ones
        ring = GroupRingTruncation(genus, K)
        four_factor, expansion = self.four_factor_route(genus, K)
        rng = random.Random(genus * K)
        letters = [GroupWord(genus, (s * l,)) for l in range(1, 2 * genus + 1) for s in (1, -1)]
        for x in letters:
            for y in letters + [inverse_heavy_word(rng, genus, 5) for _ in range(3)]:
                for a, b in ((x, y), (y, x)):
                    ea, eb = expansion(a), expansion(b)
                    defect = ring.mul_raw(ea, eb)
                    for w, c in ring.mul_raw(eb, ea).items():
                        defect[w] = defect.get(w, 0) - c
                    assert ring.defect_raw(a, b) == {w: c for w, c in defect.items() if c}
                    assert ring.commutator_raw(a, b) == four_factor(a, b)

    def test_divide_is_the_product_with_the_inverse(self, genus, K):
        # acc * E(w)^-1 against the product with the letter-series expansion
        # of w^-1, for Hall words and letters of either sign; dividing
        # caches at most E(w) itself, never an inverse
        ring = GroupRingTruncation(genus, K)
        rng = random.Random(5 * genus + K)
        letters = [GroupWord(genus, (s * l,)) for l in range(1, 2 * genus + 1) for s in (1, -1)]
        for w in self.hall_words(ring)[:: 7] + letters:
            for _ in range(3):
                raw = {
                    tuple(rng.randrange(2 * genus) for _ in range(rng.randint(0, K))): rng.randint(-5, 5)
                    for _ in range(6)
                }
                acc = _reduce(ring, raw)
                before = set(ring._cache)
                got = ring._divide(acc, w)
                assert set(ring._cache) - before <= {w.letters}
                assert got == ring.mul_raw(acc, letter_series_expansion(ring, w.inverse()))
                assert ring.mul_raw(got, ring.expand_raw(w)) == acc
        for key, terms in ring._cache.items():
            assert terms == letter_series_expansion(ring, GroupWord(genus, key))


def tree_realization(genus, degree):
    """Hall words by the earlier route: each basis word's bracketing tree,
    built from its standard factorization, realized by free multiplication,
    every subtree built afresh."""
    fl = free_lie_algebra(2 * genus)

    def realize(tree):
        if isinstance(tree, int):
            return GroupWord.generator(genus, tree)
        return realize(tree[0]).commutator(realize(tree[1]))

    return [realize(bracketing(fl, w)) for w in fl.basis_words(degree)]


HALL_DEGREES = [(2, d) for d in range(1, 6)] + [(3, d) for d in range(1, 5)]


class TestHallTable:
    """The per-genus table of Hall words against the bracketing trees."""

    def test_matches_tree_realization(self):
        for genus, d in HALL_DEGREES:
            assert _realize_hall_words(genus, d, group_ring_truncation(genus, d)) == tree_realization(genus, d)

    @pytest.mark.parametrize("genus,top", [(2, 5), (3, 4)])
    def test_independent_of_degree_order_and_ring(self, genus, top):
        want = {d: tree_realization(genus, d) for d in range(1, top + 1)}
        for order in (range(top, 0, -1), range(1, top + 1)):
            for ring in (GroupRingTruncation(genus, top), GroupRingTruncation(genus, top - 1)):
                _hall_table.cache_clear()
                for d in order:
                    assert _realize_hall_words(genus, d, ring) == want[d]


class TestRankCertificates:
    @pytest.mark.parametrize(
        "genus,level,expected",
        [(2, 1, 4), (2, 2, 5), (2, 3, 16), (2, 4, 45), (3, 2, 14), (3, 3, 64)],
    )
    def test_expansion_separates_layers(self, genus, level, expected):
        cert = graded_rank_certificate(genus, level)
        assert cert.rank == expected, cert

    def test_rank_matches_surface_build(self):
        alg = build(2, 4)
        for level in (2, 3):
            cert = graded_rank_certificate(2, level)
            assert cert.rank == alg.rank(level)

    def test_word_counts_are_witt_numbers(self):
        assert len(_realize_hall_words(2, 3, group_ring_truncation(2, 3))) == 20
        assert len(_realize_hall_words(3, 2, group_ring_truncation(3, 2))) == 15


class TestIdentityViii:
    def test_trivial_p(self):
        g = 2
        gw, n = GroupWord(g, (1, 2)), GroupWord(g, (3,))
        assert verify_identity_viii(GroupWord(g), gw, n)

    def test_trivial_n(self):
        g = 2
        p, gw = GroupWord(g, (1,)), GroupWord(g, (2, 3))
        assert verify_identity_viii(p, gw, GroupWord(g))

    @pytest.mark.parametrize("g", [2, 3])
    def test_trivial_n_with_p_a_letter_of_gw(self, g):
        # p = a1, gw = a1 b1, n = 1
        p, gw = GroupWord(g, (1,)), GroupWord(g, (1, 2))
        assert verify_identity_viii(p, gw, GroupWord(g))

    def test_random_triples(self):
        rng = random.Random(2024)
        for _ in range(1000):
            p, gw, n = (random_word(rng, 2) for _ in range(3))
            assert verify_identity_viii(p, gw, n)


def test_generators_list():
    gens = generators(2)
    assert len(gens) == 4
    assert gens[0].letters == (1,)
