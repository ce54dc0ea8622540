"""Properties of the noncommutative rewrite kernel on random inputs."""

import inspect
import random

import pytest

from surfalg._kernel import IMPLEMENTATION, mul_letter, mul_reduce, reduce_terms, reduce_word


def graded_rule(genus):
    # the surface relation in graded form: lead word bg*ag
    lead = (2 * genus - 1, 2 * genus - 2)
    rel = {}
    for k in range(genus):
        rel[(2 * k, 2 * k + 1)] = 1
        rel[(2 * k + 1, 2 * k)] = -1
    rhs = [(w, c) for w, c in rel.items() if w != lead]
    return lead, tuple(w for w, _ in rhs), tuple(c for _, c in rhs)


def inhomogeneous_rule(genus):
    # graded part plus an artificial degree-3 tail, exercising max_len
    lead, words, coeffs = graded_rule(genus)
    words = words + ((0, 1, 0), (1, 1, 1))
    coeffs = coeffs + (2, -1)
    return lead, words, coeffs


def random_poly(rng, genus, max_len=5, terms=6):
    out = {}
    for _ in range(terms):
        w = tuple(rng.randrange(2 * genus) for _ in range(rng.randint(0, max_len)))
        out[w] = rng.randint(-9, 9)
    return {w: c for w, c in out.items() if c}


def truncated_product(a, b, cap):
    """Unreduced product in the free algebra, words longer than cap dropped."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if 0 <= cap < len(wa) + len(wb):
                continue
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


# At genus 1 the tail word (0, 1, 0) contains the leading word (1, 0), so the
# inhomogeneous rule terminates there only under a cutoff.
CASES = [
    (rule, genus, cutoff)
    for rule in (graded_rule, inhomogeneous_rule)
    for genus in (1, 2, 3)
    for cutoff in (-1, 4)
    if not (rule is inhomogeneous_rule and genus == 1 and cutoff < 0)
]


@pytest.mark.parametrize(
    "rule,genus,cutoff",
    CASES,
    ids=[f"{r.__name__}-g{g}-cut{c}" for r, g, c in CASES],
)
def test_mul_reduce_is_reduced_truncated_product(rule, genus, cutoff):
    rng = random.Random(100 * genus + cutoff)
    lead, rw, rc = rule(genus)
    memo = {}
    for _ in range(40):
        a = random_poly(rng, genus)
        b = random_poly(rng, genus, max_len=3)
        for cap in (-1, 0, 1, 2, 3, 5):
            want = reduce_terms(
                truncated_product(a, b, cap), lead[0], lead[1], rw, rc, {}, cutoff
            )
            got = mul_reduce(a, b, cap, lead[0], lead[1], rw, rc, memo, cutoff)
            assert got == want
            for w in got:
                assert cutoff < 0 or len(w) <= cutoff
                assert all(w[i : i + 2] != lead for i in range(len(w) - 1))


LETTER_CASES = [
    (rule, genus, cutoff)
    for rule in (graded_rule, inhomogeneous_rule)
    for genus in (1, 2, 3)
    for cutoff in (-1, 2, 3, 4, 5, 6)
    if not (rule is inhomogeneous_rule and genus == 1 and cutoff < 0)
]


@pytest.mark.parametrize(
    "rule,genus,cutoff",
    LETTER_CASES,
    ids=[f"{r.__name__}-g{g}-cut{c}" for r, g, c in LETTER_CASES],
)
def test_mul_letter_matches_mul_reduce(rule, genus, cutoff):
    # the letter product on reduced input against the generic product with
    # the one-term polynomial {(x,): 1} on the same side; the two share a memo
    rng = random.Random(300 * genus + cutoff)
    lead, rw, rc = rule(genus)
    rule_args = (lead[0], lead[1], rw, rc)
    memo = {}
    for _ in range(25):
        terms = reduce_terms(random_poly(rng, genus, max_len=6, terms=10), *rule_args, memo, cutoff)
        for letter in range(2 * genus):
            x = {(letter,): 1}
            for cap in range(-1, 7):
                left = mul_letter(terms, letter, True, cap, *rule_args, memo, cutoff)
                right = mul_letter(terms, letter, False, cap, *rule_args, memo, cutoff)
                assert left == mul_reduce(x, terms, cap, *rule_args, memo, cutoff)
                assert right == mul_reduce(terms, x, cap, *rule_args, memo, cutoff)
                assert 0 not in left.values() and 0 not in right.values()


def test_mul_letter_rewrites_only_at_the_junction():
    # the leading word is bg*ag = (3, 2) at genus 2; a product word that does
    # not meet it at the junction is appended without touching the memo
    lead, rw, rc = graded_rule(2)
    rule_args = (lead[0], lead[1], rw, rc)
    terms = {(0, 1): 2, (2, 2): -1, (): 5}
    memo = LoggingMemo()
    assert mul_letter(terms, 2, False, -1, *rule_args, memo) == {(0, 1, 2): 2, (2, 2, 2): -1, (2,): 5}
    assert mul_letter(terms, 1, True, -1, *rule_args, memo) == {(1, 0, 1): 2, (1, 2, 2): -1, (1,): 5}
    assert memo.longest == 0 and not memo
    # 3*(2, 2) meets it: only that word is rewritten
    got = mul_letter(terms, 3, True, -1, *rule_args, memo)
    assert got == mul_reduce({(3,): 1}, terms, -1, *rule_args, {})
    assert (3, 2, 2) in memo and (3, 0, 1) not in memo and (3,) not in memo


def test_mul_reduce_signature_is_positional():
    # callers, and the benchmark tracer (which reads the memo at position 7),
    # pass every argument by position
    params = inspect.signature(mul_reduce).parameters
    assert list(params) == [
        "a", "b", "max_degree", "lead0", "lead1", "rhs_words", "rhs_coeffs", "memo", "max_len",
    ]
    assert params["max_len"].default == -1
    assert all(p.default is inspect.Parameter.empty for p in list(params.values())[:-1])


def test_big_coefficients_survive():
    lead, rw, rc = graded_rule(2)
    big = 10**40
    want = {(0, 1): big, (1, 0): -big, (2, 3): big}
    assert reduce_terms({(3, 2): big}, lead[0], lead[1], rw, rc, {}) == want
    assert mul_reduce({(3,): big}, {(2,): 1}, -1, lead[0], lead[1], rw, rc, {}) == want


def test_dispatch_reports_implementation():
    assert IMPLEMENTATION == "pure"


def test_pure_kernel_drops_beyond_cutoff():
    lead, rw, rc = inhomogeneous_rule(2)
    memo = {}
    assert reduce_word((0,) * 9, lead[0], lead[1], rw, rc, memo, 4) == {}
    assert reduce_terms({(3, 2, 0, 1, 0): 5}, lead[0], lead[1], rw, rc, memo, 4) == {}
    assert memo == {}


# The kernel as it stood when every overflowing replacement was still
# rewritten (to nothing) and memoized, and mul_reduce formed product words up
# to max_degree whatever max_len was: the oracle for the kernel that skips
# that work.


def oracle_reduce_word(word, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    cached = memo.get(word)
    if cached is not None:
        return cached
    if 0 <= max_len < len(word):
        memo[word] = {}
        return memo[word]
    pos = -1
    for i in range(len(word) - 1):
        if word[i] == lead0 and word[i + 1] == lead1:
            pos = i
            break
    if pos < 0:
        result = {word: 1}
    else:
        pre = word[:pos]
        suf = word[pos + 2 :]
        acc = {}
        for rw, rc in zip(rhs_words, rhs_coeffs):
            part = oracle_reduce_word(
                pre + rw + suf, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
            )
            for w2, c2 in part.items():
                val = acc.get(w2, 0) + rc * c2
                if val:
                    acc[w2] = val
                else:
                    del acc[w2]
        result = acc
    memo[word] = result
    return result


def oracle_reduce_terms(terms, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    acc = {}
    for w, c in terms.items():
        if not c:
            continue
        for w2, c2 in oracle_reduce_word(
            w, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
        ).items():
            val = acc.get(w2, 0) + c * c2
            if val:
                acc[w2] = val
            else:
                acc.pop(w2, None)
    return acc


def oracle_mul_reduce(a, b, max_degree, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    by_len = {}
    for wb, cb in b.items():
        if cb:
            group = by_len.get(len(wb))
            if group is None:
                by_len[len(wb)] = [(wb, cb)]
            else:
                group.append((wb, cb))
    groups = sorted(by_len.items())
    acc = {}
    for wa, ca in a.items():
        if not ca:
            continue
        room = max_degree - len(wa)
        for lb, group in groups:
            if 0 <= max_degree and room < lb:
                break
            for wb, cb in group:
                coeff = ca * cb
                for w2, c2 in oracle_reduce_word(
                    wa + wb, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
                ).items():
                    val = acc.get(w2, 0) + coeff * c2
                    if val:
                        acc[w2] = val
                    else:
                        del acc[w2]
    return acc


def random_tailed_rule(rng, genus, cutoff):
    """The graded rule plus one to three tail words of lengths 3..6.

    Without a cutoff the tails avoid both leading letters, so no replacement
    can create the leading word and rewriting terminates; under a cutoff any
    letters will do.
    """
    lead, words, coeffs = graded_rule(genus)
    letters = [l for l in range(2 * genus) if cutoff >= 0 or l not in lead]
    tails = {}
    for _ in range(rng.randint(1, 3)):
        tails[tuple(rng.choice(letters) for _ in range(rng.randint(3, 6)))] = rng.choice(
            [-3, -2, -1, 1, 2, 3]
        )
    return lead, words + tuple(tails), coeffs + tuple(tails.values())


class LoggingMemo(dict):
    """A memo that records the longest word looked up in it."""

    longest = 0

    def get(self, word, default=None):
        self.longest = max(self.longest, len(word))
        return dict.get(self, word, default)


CUTOFFS = (-1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_kernel_matches_oracle_and_memoizes_within_cutoff(cutoff):
    # caps run from -1 to 7, so above every cutoff too; under a cutoff the
    # memo must hold no longer word, and a call whose input words fit the
    # cutoff (every mul_reduce call) must not even look one up
    rng = random.Random(7000 + cutoff)
    for _ in range(12):
        genus = rng.randint(1 if cutoff >= 0 else 2, 3)
        lead, rw, rc = random_tailed_rule(rng, genus, cutoff)
        rule = (lead[0], lead[1], rw, rc)
        memo, oracle_memo = LoggingMemo(), {}
        for _ in range(30):
            memo.longest = 0
            kind = rng.randrange(3)
            if kind == 0:
                word = tuple(rng.randrange(2 * genus) for _ in range(rng.randint(0, 8)))
                longest_input = len(word)
                got = reduce_word(word, *rule, memo, cutoff)
                want = oracle_reduce_word(word, *rule, oracle_memo, cutoff)
            elif kind == 1:
                terms = random_poly(rng, genus, max_len=8)
                longest_input = max(map(len, terms), default=0)
                got = reduce_terms(terms, *rule, memo, cutoff)
                want = oracle_reduce_terms(terms, *rule, oracle_memo, cutoff)
            else:
                a, b = random_poly(rng, genus), random_poly(rng, genus, max_len=3)
                cap = rng.randint(-1, 7)
                longest_input = 0
                got = mul_reduce(a, b, cap, *rule, memo, cutoff)
                want = oracle_mul_reduce(a, b, cap, *rule, oracle_memo, cutoff)
            assert got == want
            if cutoff >= 0:
                assert all(len(w) <= cutoff for w in memo)
                if longest_input <= cutoff:
                    assert memo.longest <= cutoff


def _reduce(ring, terms):
    """terms reduced by the ring's rule, in the ring's memo."""
    return reduce_terms(terms, *ring.lead, ring.rhs_words, ring.rhs_coeffs, ring._memo, ring.max_len)


def test_ring_memo_stays_within_truncation():
    from surfalg.nilpotent import GroupWord, center_of_quotient, group_ring_truncation

    assert center_of_quotient(2, 5).passed
    ring = group_ring_truncation(2, 5)
    rng = random.Random(5)
    for _ in range(20):
        x = GroupWord(2, [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(1, 9))])
        ring._divide(_reduce(ring, random_poly(rng, 2, max_len=9)), x)
        ring.mul_raw(ring.expand_raw(x), ring.expand_raw(x.inverse()))
    _reduce(ring, random_poly(rng, 2, max_len=9, terms=20))
    assert ring._memo
    assert max(map(len, ring._memo)) <= 5
