"""Properties of the noncommutative rewrite kernel on random inputs."""

import inspect
import random

import pytest

from surfalg._kernel import IMPLEMENTATION, mul_reduce, reduce_terms, reduce_word


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
    out = reduce_word((0,) * 9, lead[0], lead[1], rw, rc, {}, 4)
    assert out == {}
