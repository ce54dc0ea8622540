"""Graded quotient ranks, freeness, and center certification."""

import random

import pytest

from surfalg import intlinalg
from surfalg.enveloping import hilbert_dimension, pbw_consistency
from surfalg.errors import ResourceLimitExceeded
from surfalg.freelie import free_lie_algebra, witt_dimension
from surfalg.surface import (
    GradedElement,
    SurfaceAlgebra,
    build,
    center_in_degree,
    omega_element,
    rank,
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
        assert pbw_consistency(alg_g2).passed
        assert pbw_consistency(alg_g3).passed
        rep = pbw_consistency(alg_g2, 3)
        assert rep.graded_side == rep.word_side == (1, 4, 15, 56)
        rep3 = pbw_consistency(alg_g3, 3)
        assert rep3.graded_side == rep3.word_side == (1, 6, 35, 204)
        # degree <= 1 sees no relation at all
        rep1 = pbw_consistency(alg_g2, 1)
        assert rep1.graded_side == rep1.word_side == (1, 4)
        with pytest.raises(ValueError):
            pbw_consistency(alg_g2, 9)

    def test_ideal_ranks_complement_witt(self, alg_g2):
        for d in range(2, 6):
            ideal_rank = alg_g2.degree_data(d).ideal_basis.rows
            assert ideal_rank + alg_g2.rank(d) == witt_dimension(4, d)

    def test_omega_dies_in_quotient(self, alg_g2):
        assert alg_g2.project(omega_element(2), 2) == (0,) * 5
        assert alg_g2.contains_in_ideal(omega_element(2), 2)

    def test_project_lift_roundtrip(self, alg_g2):
        rng = random.Random(9)
        for d in range(1, 6):
            coords = [rng.randint(-4, 4) for _ in range(alg_g2.rank(d))]
            assert alg_g2.project(alg_g2.lift(d, coords), d) == tuple(coords)


class TestBracketWellDefined:
    def test_ideal_is_bracket_closed(self, alg_g2):
        # brackets of ideal elements with spanning elements stay in the ideal
        fl = free_lie_algebra(4)
        for d in range(2, 5):
            for e in alg_g2.ideal_elements(d):
                for w in fl.basis_words(1):
                    z = e.bracket(fl.element({w: 1}))
                    assert alg_g2.contains_in_ideal(z, d + 1)
        for e in alg_g2.ideal_elements(2):
            for w in fl.basis_words(2):
                z = e.bracket(fl.element({w: 1}))
                assert alg_g2.contains_in_ideal(z, 4)

    def test_bracket_descends(self, alg_g2):
        # changing a representative by an ideal element does not move the
        # projected bracket
        fl = free_lie_algebra(4)
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(1, 3)
            coords = [rng.randint(-2, 2) for _ in range(alg_g2.rank(d))]
            x = alg_g2.lift(d, coords)
            noise = alg_g2.ideal_elements(2)[0] if d == 2 else None
            y = fl.generator(rng.randrange(4))
            base = alg_g2.project(x.bracket(y), d + 1)
            if noise is not None:
                moved = alg_g2.project((x + noise).bracket(y), d + 1)
                assert moved == base


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

    def test_kernel_solver_finds_nontrivial_kernels(self):
        # control: the solver behind the center computation does report
        # nonzero kernels when they exist
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        knl = intlinalg.sparse_left_kernel(rows)
        assert len(knl) == 1


def test_rank_function(alg_g2):
    assert rank(alg_g2, 3) == 16
    with pytest.raises(ValueError):
        rank(alg_g2, 6)


def test_graded_element_validation(alg_g2):
    with pytest.raises(ValueError):
        GradedElement(alg_g2, {2: [1, 2, 3]})  # wrong length
    e = GradedElement(alg_g2, {1: [1, 0, 0, 0], 2: [0, 0, 0, 0, 0]})
    assert e.degrees() == (1,)
    assert e.component(2) == (0,) * 5


class TestNonIntegralInput:
    def test_graded_element(self, alg_g2):
        with pytest.raises(ValueError, match="not an integer"):
            GradedElement(alg_g2, {1: [1.5, 0, 0, 0]})
        assert GradedElement(alg_g2, {1: ["1", 2.0, 0, 0]}).component(1) == (1, 2, 0, 0)

    def test_reduce_free_vector(self, alg_g2):
        with pytest.raises(ValueError, match="not an integer"):
            alg_g2.reduce_free_vector(1, [1.5, 0, 0, 0])
        assert alg_g2.reduce_free_vector(1, ["1", 2.0, 0, 0]) == [1, 2, 0, 0]

    def test_lift(self, alg_g2):
        with pytest.raises(ValueError, match="not an integer"):
            alg_g2.lift(1, [1.5, 0, 0, 0])
        assert alg_g2.lift(1, ["1", 2.0, 0, 0]) == alg_g2.lift(1, [1, 2, 0, 0])
