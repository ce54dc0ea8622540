"""Normal forms, saturation, and summand certificates."""

import random
import subprocess
import sys
import textwrap
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfalg import intlinalg
from surfalg.intlinalg import (
    DimensionMismatch,
    FgAbGroup,
    IntMatrix,
    cokernel,
    common_left_kernel,
    hermite_with_transform,
    is_direct_summand,
    kernel,
    row_span_contains,
    row_span_hnf,
    same_row_span,
    saturate,
    snf,
    sparse_left_kernel,
    sparse_rank,
    xgcd,
)
from retract_transfer import transfer_verdicts


def zeros(rows, cols):
    """The rows x cols zero matrix."""
    return IntMatrix([[0] * cols] * rows, cols=cols)


def det_bareiss(rows):
    """Fraction-free determinant; independent oracle for unimodularity."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors(rows, k):
    """Every k x k minor of rows, by det_bareiss."""
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            yield det_bareiss([[rows[i][j] for j in ci] for i in ri])


def determinantal_divisor(rows, k):
    """gcd of the k x k minors: d_1 * ... * d_k for Smith invariant factors d."""
    return gcd(*minors(rows, k))


def oracle_rank(rows):
    """Largest k with a nonzero k x k minor, independent of the echelon engine."""
    k = 0
    while rows and k < min(len(rows), len(rows[0])) and any(minors(rows, k + 1)):
        k += 1
    return k


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )


def random_matrix(rng, rows, cols, bound=4):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix)


class TestSnf:
    def test_identity(self):
        assert snf(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).d == (1, 1, 1)

    def test_diag_2_3(self):
        # Hand reduction: [[2,0],[0,3]] -> r1+=r2 -> [[2,3],[0,3]] -> c2-=c1
        # -> [[2,1],[0,3]] -> swap cols, clear -> diag(1, 6).
        assert snf(IntMatrix([[2, 0], [0, 3]])).d == (1, 6)

    def test_zero(self):
        assert snf(zeros(2, 2)).d == (0, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            snf(zeros(0, 2))

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_postconditions(self, a):
        res = snf(a)
        for x, y in zip(res.d, res.d[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        assert abs(det_bareiss(res.u.entries)) == 1
        assert abs(det_bareiss(res.v.entries)) == 1
        assert res.rank == sparse_rank(a.sparse_rows)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_matches_determinantal_divisors(self, a):
        # d_1 * ... * d_k is the gcd of the k x k minors, whatever the algorithm
        d = snf(a).d
        prod = 1
        for k in range(1, len(d) + 1):
            prod *= d[k - 1]
            assert prod == determinantal_divisor(a.entries, k)

    def test_larger_matrices_stay_exact(self):
        # the sizes the exterior-cube computations feed in, with entries big
        # enough that float arithmetic would silently go wrong
        rng = random.Random(314)
        for rows, cols in [(20, 20), (12, 25), (25, 12)]:
            a = random_matrix(rng, rows, cols, bound=50)
            res = snf(a)
            for x, y in zip(res.d, res.d[1:]):
                if x != 0:
                    assert y % x == 0
            prod = res.u @ a @ res.v
            for i in range(rows):
                for j in range(cols):
                    assert prod[i, j] == (res.d[i] if i == j and i < len(res.d) else 0)

    def test_huge_coefficients(self):
        big = 10**30
        a = IntMatrix([[big, 1], [0, big]])
        res = snf(a)
        assert res.d == (1, big * big)
        assert cokernel(a).torsion == (big * big,)

    def test_postcondition_survives_optimize(self):
        # the transform check is an explicit raise, not an assert that -O strips
        script = textwrap.dedent(
            """
            import sys
            from surfalg import intlinalg

            real = intlinalg.hermite_with_transform

            def forged(a):
                h, u = real(a)
                rows = [list(r) for r in u.entries]
                rows[0] = [2 * x for x in rows[0]]
                return h, intlinalg.IntMatrix(rows, cols=u.cols)

            intlinalg.hermite_with_transform = forged
            try:
                intlinalg.snf(intlinalg.IntMatrix([[2, 1], [4, 3]]))
            except AssertionError as exc:
                print(sys.flags.optimize, "raised", exc)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("1 raised snf postcondition violated")


class TestHermiteAndKernels:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_kernel_annihilates(self, a):
        k = kernel(a)
        for row in k.entries:
            out = a @ IntMatrix([row]).transpose()
            assert out.is_zero()
        assert k.rows == a.cols - sparse_rank(a.sparse_rows)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_left_kernel_annihilates(self, a):
        k = sparse_left_kernel(a.sparse_rows)
        for row in k:
            combo = [0] * a.cols
            for i, c in row.items():
                for j in range(a.cols):
                    combo[j] += c * a[i, j]
            assert all(x == 0 for x in combo)
        assert len(k) == a.rows - sparse_rank(a.sparse_rows)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_hermite_certificate(self, a):
        # u @ a == h with u unimodular and h reduced echelon pins h: the
        # Hermite form of a row span is unique
        h, u = hermite_with_transform(a)
        assert h.shape == a.shape and u.shape == (a.rows, a.rows)
        assert u @ a == h
        assert abs(det_bareiss(u.entries)) == 1
        pivots = []
        for row in h.entries:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                break
            assert not pivots or lead > pivots[-1][1]
            assert row[lead] > 0
            pivots.append((len(pivots), lead))
        assert not any(any(row) for row in h.entries[len(pivots) :])
        for i, c in pivots:
            assert all(0 <= h[k, c] < h[i, c] for k in range(i))

    def test_row_span_membership(self):
        a = IntMatrix([[1, 2, 0], [0, 0, 3]])
        assert row_span_contains(a, (2, 4, 3))
        assert not row_span_contains(a, (0, 1, 0))
        assert not row_span_contains(a, (0, 0, 1))

    def test_sparse_engine_matches_dense(self):
        # the dense reference is the rank from minors
        rng = random.Random(7)
        for _ in range(25):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=3)
            rows = [
                {j: v for j, v in enumerate(r) if v}
                for r in a.entries
            ]
            r = oracle_rank(a.entries)
            assert sparse_rank(rows) == r
            knl = sparse_left_kernel(rows)
            assert len(knl) == a.rows - r
            for combo in knl:
                acc = [0] * a.cols
                for i, c in combo.items():
                    for j in range(a.cols):
                        acc[j] += c * a[i, j]
                assert all(x == 0 for x in acc)

    def test_sparse_kernel_spans_same_lattice_as_dense(self):
        # the sparse basis must span the full saturated kernel lattice: k
        # kernel vectors, k the corank from minors, whose k x k minors have
        # gcd 1 are independent and span a direct summand of that rank
        rng = random.Random(99)
        for _ in range(25):
            a = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 4), bound=3)
            combos = sparse_left_kernel(
                [{j: v for j, v in enumerate(r) if v} for r in a.entries]
            )
            sparse = IntMatrix(
                [[combo.get(i, 0) for i in range(a.rows)] for combo in combos],
                cols=a.rows,
            )
            k = a.rows - oracle_rank(a.entries)
            assert sparse.rows == k
            assert (sparse @ a).is_zero()
            if k:
                assert determinantal_divisor(sparse.entries, k) == 1


class TestSummand:
    def test_standard_basis_vector(self):
        assert is_direct_summand(IntMatrix([[1, 0]]), 2) is True

    def test_doubled_vector(self):
        # 2 divides every coordinate functional on the span; SNF factor is 2.
        assert snf(IntMatrix([[2, 0]])).d == (2,)
        assert is_direct_summand(IntMatrix([[2, 0]]), 2) is False

    def test_index_two_sublattice(self):
        a = IntMatrix([[1, 1], [0, 2]])
        assert snf(a).d == (1, 2)
        assert is_direct_summand(a, 2) is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_direct_summand(IntMatrix([[1, 0]]), 3)


class TestSaturate:
    def test_scalar_saturation(self):
        assert saturate(IntMatrix([[2, 0]]), 2) == IntMatrix([[1, 0]])
        assert saturate(IntMatrix([[2, 2]]), 2) == IntMatrix([[1, 1]])

    def test_full_rank_saturation(self):
        got = saturate(IntMatrix([[1, 0], [0, 2]]), 2)
        assert same_row_span(got, IntMatrix([[1, 0], [0, 1]]))

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_idempotent_and_summand(self, a):
        s = saturate(a, a.cols)
        assert is_direct_summand(s, a.cols)
        again = saturate(s, a.cols)
        assert same_row_span(s, again)
        # rational span preserved: every original row is in the saturation,
        # and the ranks agree.
        for row in a.entries:
            assert row_span_contains(s, row)
        assert sparse_rank(s.sparse_rows) == sparse_rank(a.sparse_rows)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_saturation_certificate(self, a):
        # checked by minors alone: s has rank(a) rows, adding the rows of a
        # keeps the rank, and the maximal minors of s have gcd 1, so s is a
        # basis of a direct summand that contains every row of a
        s = saturate(a, a.cols)
        r = oracle_rank(a.entries)
        assert s.rows == r
        assert oracle_rank(s.entries + a.entries) == r
        if r:
            assert determinantal_divisor(s.entries, r) == 1


class TestCokernel:
    def test_free(self):
        assert cokernel(zeros(0, 3)) == FgAbGroup(3, ())

    def test_z2(self):
        assert cokernel(IntMatrix([[2]])) == FgAbGroup(0, (2,))

    def test_diag_2_3(self):
        # SNF oracle: diag(2,3) ~ diag(1,6).
        assert cokernel(IntMatrix([[2, 0], [0, 3]])) == FgAbGroup(0, (6,))

    def test_str(self):
        assert str(FgAbGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
        assert str(FgAbGroup(0, ())) == "0"

    @pytest.mark.parametrize("rank", [-1, 2.5, 2.0, "2", True, None])
    def test_free_rank_must_be_a_non_negative_int(self, rank):
        with pytest.raises(ValueError, match="free rank"):
            FgAbGroup(rank, ())

    def test_torsion_is_coerced_to_an_int_tuple(self):
        group = FgAbGroup(1, [2, 4])
        assert group == FgAbGroup(1, (2, 4))
        assert hash(group) == hash(FgAbGroup(1, (2, 4)))
        assert FgAbGroup(0, ("2",)).torsion == (2,)
        assert str(FgAbGroup(0, (2.0,))) == "Z/2"
        with pytest.raises(ValueError, match="not an integer"):
            FgAbGroup(0, (2.5,))
        with pytest.raises(ValueError, match="no entry order"):
            FgAbGroup(0, {2})


class TestSummandTransfer:
    def test_identity_maps(self):
        eye = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert transfer_verdicts(eye, eye) == (True, True)

    def test_doubling_composite_vacuous(self):
        # l1 injective with saturated image, l3 = 2*I: composite image is
        # unsaturated so the implication is vacuously true.
        l1 = IntMatrix([[1, 0], [0, 1], [0, 0]])
        l3 = IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert transfer_verdicts(l1, l3) == (False, True)

    def test_randomized_property(self):
        # Retract-transfer law: whenever the composite image is a saturated
        # full-rank submodule, so is the factor's image.  A counterexample is
        # a build-stopping failure.
        rng = random.Random(20240)
        checked = 0
        for _ in range(1000):
            d = rng.randint(1, 3)
            n = d + rng.randint(1, 3)
            l1 = random_matrix(rng, n, d, bound=3)
            l3 = random_matrix(rng, n, n, bound=3)
            composite, factor = transfer_verdicts(l1, l3)
            if composite:
                checked += 1
                assert factor, (l1, l3)
        assert checked >= 50  # the interesting branch is actually exercised


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_matmul_and_transpose():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a @ b == IntMatrix([[2, 1], [4, 3]])
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])


def test_no_numpy_import():
    script = (
        "import sys, surfalg\n"
        "from surfalg import intlinalg\n"
        "a = intlinalg.IntMatrix([[2, 4, 6], [1, 0, 3]])\n"
        "intlinalg.snf(a)\n"
        "intlinalg.saturate(a, 3)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_hnf_is_canonical():
    a = IntMatrix([[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    b = IntMatrix([[1, 2, 3], [0, 0, 5], [3, 6, 14]])
    assert same_row_span(a, b)
    assert row_span_hnf(a) == row_span_hnf(b)


# Rows with zero rows mixed in and entries whose pivots can come out negative
# or non-unit (all rows scaled by 2 or 3 half of the time).
membership_cases = st.integers(1, 4).flatmap(
    lambda c: st.tuples(
        st.lists(
            st.one_of(
                st.just([0] * c),
                st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 2, 3]),
        st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                st.lists(st.integers(-2, 2), min_size=c, max_size=c),
            ),
            min_size=1,
            max_size=5,
        ),
    )
)


class TestRowSpanMembership:
    @settings(max_examples=300, deadline=None)
    @given(membership_cases)
    def test_matches_stacked_hermite_forms(self, case):
        rows, scale, probes = case
        a = IntMatrix([[scale * x for x in r] for r in rows])
        base = row_span_hnf(a)
        for coeffs, noise in probes:
            # a combination of the rows, sometimes pushed off the lattice
            vec = [sum(c * r[j] for c, r in zip(coeffs, a.entries)) + e for j, e in enumerate(noise)]
            stacked = IntMatrix(list(a.entries) + [vec], cols=a.cols)
            assert row_span_contains(a, vec) == (row_span_hnf(stacked) == base)

    def test_negative_and_non_unit_pivots(self):
        a = IntMatrix([[-2, 4, 0], [0, 0, 0], [0, -3, 6]])
        assert row_span_contains(a, [2, -4, 0])
        assert row_span_contains(a, [-2, 1, 6])
        assert not row_span_contains(a, [1, -2, 0])
        assert not row_span_contains(a, [0, 1, -2])
        assert not row_span_contains(a, [0, 0, 1])
        assert row_span_contains(zeros(2, 3), [0, 0, 0])
        assert not row_span_contains(zeros(0, 3), [0, 1, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            row_span_contains(IntMatrix([[1, 2]]), [1, 2, 3])

    @settings(max_examples=300, deadline=None)
    @given(membership_cases, st.randoms(use_true_random=False))
    def test_sparse_vector_matches_dense(self, case, rnd):
        rows, scale, probes = case
        a = IntMatrix([[scale * x for x in r] for r in rows])
        for coeffs, noise in probes:
            vec = [sum(c * r[j] for c, r in zip(coeffs, a.entries)) + e for j, e in enumerate(noise)]
            # the nonzero entries in a shuffled order, some columns given an explicit zero
            cols = [j for j, x in enumerate(vec) if x or rnd.random() < 0.5]
            rnd.shuffle(cols)
            sparse = {j: vec[j] for j in cols}
            snapshot = dict(sparse)
            assert row_span_contains(a, sparse) == row_span_contains(a, vec)
            assert sparse == snapshot

    def test_sparse_vector_follows_the_coercion_rule(self):
        a = IntMatrix([[2, 0, 4], [0, 3, 0]])
        assert row_span_contains(a, {0: 2, 2: 4})
        assert row_span_contains(a, {})
        assert row_span_contains(a, {1: 0, 2: 0})
        assert row_span_contains(a, {0: "2", 1: 3.0, 2: 4})
        assert not row_span_contains(a, {2: 4})
        assert not row_span_contains(a, {0: 1, 2: 2})
        for bad in ({0: 2.5}, {1: 0.25, 0: 2}):
            with pytest.raises(ValueError, match="not an integer"):
                row_span_contains(a, bad)
        for bad in ({3: 1}, {-1: 1}, {3: 0}, {"1": 3}, {1.0: 3}, {0: 2, 7: 1}):
            with pytest.raises(DimensionMismatch):
                row_span_contains(a, bad)
        with pytest.raises(DimensionMismatch):
            row_span_contains(zeros(0, 2), {0: 0, 2: 0})

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_row_span_hnf_is_the_nonzero_hermite_rows(self, a):
        h, _ = hermite_with_transform(a)
        assert row_span_hnf(a) == IntMatrix([r for r in h.entries if any(r)], cols=a.cols)


def _stored_rows_are_canonical(m):
    """m stores a tuple of zero-free dicts, one per row, inside range(cols)."""
    assert type(m.sparse_rows) is tuple and len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        assert type(row) is dict
        assert all(type(j) is int and 0 <= j < m.cols for j in row)
        assert all(type(x) is int and x != 0 for x in row.values())


class TestTrustedConstruction:
    @settings(max_examples=100, deadline=None)
    @given(small_matrices, small_matrices)
    def test_matches_validated_construction(self, a, b):
        t = a.transpose()
        assert t == IntMatrix([[a[i, j] for i in range(a.rows)] for j in range(a.cols)], cols=a.rows)
        assert hash(t) == hash(IntMatrix(t.entries, cols=t.cols))
        if a.cols == b.rows:
            product = [
                [sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
                for i in range(a.rows)
            ]
            assert a @ b == IntMatrix(product, cols=b.cols)
        h, u = hermite_with_transform(a)
        wrapped = IntMatrix._of(a.sparse_rows, a.cols)
        assert wrapped == a and hash(wrapped) == hash(a)
        for m in (a, t, a @ t, h, u, row_span_hnf(a), kernel(a), snf(a).u, snf(a).v):
            _stored_rows_are_canonical(m)
            assert type(m.entries) is tuple
            assert all(type(r) is tuple and len(r) == m.cols for r in m.entries)
            assert all(type(x) is int for r in m.entries for x in r)

    def test_empty_shapes(self):
        assert zeros(0, 3).transpose() == zeros(3, 0)
        assert zeros(3, 0).transpose() == zeros(0, 3)
        assert IntMatrix._of([], 4) == zeros(0, 4)
        assert IntMatrix._of([], 4) != zeros(0, 3)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            IntMatrix([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            IntMatrix([])
        m = IntMatrix([[True, 2.0], ["3", 4]])
        assert m.entries == ((1, 2), (3, 4))
        assert all(type(x) is int for r in m.entries for x in r)
        _stored_rows_are_canonical(m)
        assert m.sparse_rows == ({0: 1, 1: 2}, {0: 3, 1: 4})
        _stored_rows_are_canonical(IntMatrix([[0, 0], [0, 5]]))


# rows and columns 0-4 with mostly zero entries, given as dense lists; a
# second matrix, often equal to the first, and a right factor of matching size
dense_cases = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -7]), min_size=c, max_size=c), min_size=r, max_size=r),
            st.one_of(
                st.none(),
                st.lists(st.lists(st.sampled_from([0, 0, 1, -3]), min_size=c, max_size=c), min_size=r, max_size=r),
            ),
            st.integers(0, 3).flatmap(
                lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=c, max_size=c)
            ),
        )
    )
)


class TestSparseStorageMatchesDenseOracles:
    """Every dense read of a sparse-stored matrix agrees with tuple arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(dense_cases)
    def test_views_and_operations(self, case):
        cols, rows, other, right = case
        dense = tuple(map(tuple, rows))
        a = IntMatrix(rows, cols=cols)
        assert a.shape == (len(rows), cols)
        assert a.entries == dense
        assert a.sparse_rows == tuple({j: x for j, x in enumerate(r) if x} for r in dense)
        assert a.is_zero() == all(x == 0 for r in dense for x in r)
        for i in range(-len(dense), len(dense)):
            assert a.row(i) == dense[i]
            for j in range(-cols, cols):
                assert a[i, j] == dense[i][j]
            with pytest.raises(IndexError):
                a[i, cols]
        with pytest.raises(IndexError):
            a.row(len(dense))
        with pytest.raises(IndexError):
            a[len(dense), 0]
        # transpose: every column as a row, also for zero rows or columns
        t = a.transpose()
        assert t.shape == (cols, len(dense))
        assert t.entries == tuple(tuple(r[j] for r in dense) for j in range(cols))
        assert t.transpose() == a
        # product with a cols x k factor
        k = len(right[0]) if right else 0
        b = IntMatrix(right, cols=k)
        expect = tuple(
            tuple(sum(r[m] * right[m][j] for m in range(cols)) for j in range(k)) for r in dense
        )
        assert (a @ b).entries == expect
        # equality and hash follow the dense rows and the column count
        twin = IntMatrix(other if other is not None else rows, cols=cols)
        same = tuple(map(tuple, other)) == dense if other is not None else True
        assert (a == twin) == same
        if same:
            assert hash(a) == hash(twin)
        assert a != zeros(len(dense), cols + 1)
        assert (a == zeros(len(dense), cols)) == a.is_zero()

    def test_zeros_and_repr(self):
        for n in range(4):
            assert zeros(n, 2).entries == ((0, 0),) * n
            assert zeros(2, n).entries == ((0,) * n,) * 2
            assert zeros(n, 2).is_zero()
        assert zeros(0, 0).shape == (0, 0)
        assert repr(IntMatrix([[1, 0], [0, 3]])) == "IntMatrix([[1, 0], [0, 3]])"


def _summand_oracles(a):
    """The two Smith-side answers to "is rowspan(a) a direct summand?"."""
    by_snf = all(f == 1 for f in snf(a).nonzero_factors)
    r = sparse_rank(a.sparse_rows)
    by_minors = r == 0 or determinantal_divisor(a.entries, r) == 1
    return by_snf, by_minors


# base rows, then zero rows, combinations of earlier rows and rows scaled by
# 2 or 3 mixed in, so dependent rows and non-unit pivots are common
summand_cases = st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.sampled_from(["zero", "combine", "scale"]), st.integers(-3, 3), st.integers(-3, 3)),
            max_size=3,
        ),
        st.sampled_from([1, 1, 2, 3]),
    )
)


def _summand_matrix(case):
    base, extras, scale = case
    rows = [[scale * x for x in r] for r in base[:1]] + [list(r) for r in base[1:]]
    for kind, s, t in extras:
        if kind == "zero":
            rows.append([0] * len(rows[0]))
        elif kind == "combine":
            i, j = s % len(rows), t % len(rows)
            rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
        else:
            rows[s % len(rows)] = [(2 + t % 2) * x for x in rows[s % len(rows)]]
    return IntMatrix(rows)


class TestSummandWithoutSmith:
    """is_direct_summand decides by echelon pivots; SNF and minors are oracles."""

    @settings(max_examples=300, deadline=None)
    @given(summand_cases)
    def test_matches_smith_and_minors(self, case):
        a = _summand_matrix(case)
        by_snf, by_minors = _summand_oracles(a)
        assert is_direct_summand(a, a.cols) == by_snf == by_minors

    def test_both_verdicts_over_wide_and_tall_shapes(self):
        rng = random.Random(7)
        seen = {True: 0, False: 0}
        for _ in range(400):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:
                rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
            a = IntMatrix(rows)
            verdict = is_direct_summand(a, c)
            assert (verdict, verdict) == _summand_oracles(a), a
            seen[verdict] += 1
        assert min(seen.values()) >= 50

    def test_fixed_cases(self):
        # pivots of the rows themselves need not be units
        assert is_direct_summand(IntMatrix([[2, 1]]), 2)
        assert is_direct_summand(IntMatrix([[2, 3], [3, 5]]), 2)
        assert not is_direct_summand(IntMatrix([[2, 4], [0, 6]]), 2)
        assert not is_direct_summand(IntMatrix([[1, 1, 0], [1, -1, 0]]), 3)
        assert is_direct_summand(IntMatrix([[0, 0], [0, 0]]), 2)
        assert is_direct_summand(zeros(0, 3), 3)
        assert is_direct_summand(IntMatrix([[3, 0, 0], [0, 0, 0], [6, 0, 1]]), 3) is False


def _fresh_sparse(a):
    return tuple({j: x for j, x in enumerate(r) if x} for r in a.entries)


class TestMemoizedViews:
    """The stored sparse rows and the cached echelon survive every operation."""

    @staticmethod
    def _ops(a):
        b = a.transpose()
        return {
            "contains": lambda: [row_span_contains(a, r) for r in a.entries]
            + [row_span_contains(a, [1] * a.cols)],
            "summand": lambda: is_direct_summand(a, a.cols),
            "row_span_hnf": lambda: row_span_hnf(a),
            "hermite": lambda: hermite_with_transform(a),
            "snf": lambda: snf(a).d,
            "kernel": lambda: kernel(a),
            "left_kernel": lambda: sparse_left_kernel(a.sparse_rows),
            "saturate": lambda: saturate(a, a.cols),
            "cokernel": lambda: cokernel(a),
            "same_row_span": lambda: same_row_span(a, a),
            "left_product": lambda: a @ b,
            "right_product": lambda: b @ a,
            "transpose": lambda: a.transpose().transpose(),
            "transfer": lambda: transfer_verdicts(b, a),
        }

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_every_operation_leaves_the_memos_intact(self, a):
        fresh = _fresh_sparse(a)
        stored = [dict(r) for r in a.sparse_rows]
        for name, op in self._ops(a).items():
            first = op()
            assert list(a.sparse_rows) == stored, name
            pivots = intlinalg._pivots(a)
            expected, _ = intlinalg.sparse_echelon(fresh)
            assert pivots == expected, name
            assert op() == first, name
        assert _fresh_sparse(a) == fresh  # the entries themselves

    def test_memos_are_filled_once(self):
        a = IntMatrix([[2, 4, 0], [0, 3, 6], [2, 7, 6]])
        rows = a.sparse_rows
        pivots = intlinalg._pivots(a)
        is_direct_summand(a, 3), row_span_contains(a, [0, 3, 6]), a @ a, a.entries
        assert a.sparse_rows is rows
        assert intlinalg._pivots(a) is pivots


class TestNonIntegralInput:
    def test_matrix_entries(self):
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix([[1.9, 2]])
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix([[1, 2], [3, 0.5]])
        assert IntMatrix([[2.0, -3.0], ["4", True]]).entries == ((2, -3), (4, 1))

    def test_membership_vector(self):
        a = IntMatrix([[2, 0]])
        with pytest.raises(ValueError, match="not an integer"):
            row_span_contains(a, [2.7, 0])
        with pytest.raises(ValueError, match="not an integer"):
            row_span_contains(a, [2, 0.25])
        assert row_span_contains(a, [4.0, "0"])
        assert not row_span_contains(a, ["3", 0])

    def test_unordered_rows(self):
        # a dict row would be read as its keys and a set row in arbitrary
        # order, so every dense coordinate entry point refuses both whole; a
        # dict's .values() is still a row
        from surfalg.surface import build
        from surfalg.symplectic import SymplecticSpace, contraction, theta_wedge

        alg = build(2, 2)
        space = SymplecticSpace(2)
        makers = {
            "matrix": lambda r: IntMatrix([r]),
            "lift": lambda r: alg.lift(1, r),
            # at genus 2 both H and the cube have four coordinates
            "contraction": lambda r: contraction(r, space),
            "theta": lambda r: theta_wedge(space, r),
        }
        for name, make in makers.items():
            for row in ({0: 5, 1: 1, 2: 0, 3: 7}, {5, 1, 0, 7}, frozenset({5, 1, 0, 7})):
                with pytest.raises(ValueError, match="no entry order"):
                    make(row)
            values = {0: 5, 1: 1, 2: 0, 3: 7}.values()
            assert make(values) == make([5, 1, 0, 7]), name
        # a dict is row_span_contains's sparse form; a set has no such reading
        a = IntMatrix([[2, 0, 0, 0]])
        with pytest.raises(ValueError, match="no entry order"):
            row_span_contains(a, {0, 2, 4, 6})
        assert row_span_contains(a, {0: 4}) and not row_span_contains(a, [4, 1, 0, 0])

    def test_string_words(self):
        # a string word would be read one character per letter ('10' as the
        # letters 1, 0), so every word entry point refuses it whole; string
        # entries of a sequence are still parsed
        from surfalg.nilpotent import GroupWord
        from surfalg.torelli import BoolPoly

        refusals = {
            "group": lambda w: GroupWord(6, w),
            "bool": lambda w: BoolPoly(6, [w]),
        }
        for name, make in refusals.items():
            for word in ("12", b"12"):
                with pytest.raises(ValueError, match="is a string"):
                    make(word)
            assert make(("1", 2)) == make((1, 2)), name
        assert GroupWord(6, ("10",)) == GroupWord(6, (10,))


# n unknowns, then up to four maps, each given by n image rows of width 1-3;
# zero entries and zero rows are common, so kernels of every size turn up
common_kernel_cases = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(1, 3).flatmap(
                lambda w: st.lists(
                    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=w, max_size=w),
                    min_size=n,
                    max_size=n,
                )
            ),
            max_size=4,
        ),
    )
)


def _sparse_map(dense_rows):
    return [{j: x for j, x in enumerate(r) if x} for r in dense_rows]


def _stacked_left_kernel(n, maps):
    """Reference: one left kernel of every map's rows set side by side."""
    stacked = [{} for _ in range(n)]
    for k, rows in enumerate(maps):
        for i, row in enumerate(rows):
            for j, x in row.items():
                stacked[i][4 * k + j] = x  # every map here has at most 3 columns
    return sparse_left_kernel(stacked)


def _lattice(n, basis):
    return row_span_hnf(IntMatrix([[b.get(i, 0) for i in range(n)] for b in basis], cols=n))


def _check_common_kernel(n, maps):
    basis = common_left_kernel(n, maps)
    for rows in maps:
        for b in basis:
            assert intlinalg._combination(b, rows) == {}
    stacked = _stacked_left_kernel(n, maps)
    assert len(basis) == len(stacked)
    assert _lattice(n, basis) == _lattice(n, stacked)
    return basis


class TestCommonLeftKernel:
    """Restricting map by map spans the lattice of the stacked left kernel."""

    @settings(max_examples=300, deadline=None)
    @given(common_kernel_cases)
    def test_matches_the_stacked_left_kernel(self, case):
        n, maps = case
        _check_common_kernel(n, [_sparse_map(m) for m in maps])

    def test_nonzero_kernels_after_several_maps(self):
        rng = random.Random(11)
        seen = {"empty": 0, "nonzero after 2+ maps": 0}
        for _ in range(300):
            n = rng.randint(1, 6)
            maps = []
            for _ in range(rng.randint(2, 4)):
                w = rng.randint(1, 2)
                maps.append(_sparse_map([[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(w)] for _ in range(n)]))
            basis = _check_common_kernel(n, maps)
            seen["nonzero after 2+ maps" if basis else "empty"] += 1
        assert min(seen.values()) >= 50, seen

    def test_edge_cases(self):
        # no maps: the unit vectors; n = 0: the empty basis; zero rows stay free
        assert common_left_kernel(3, []) == [{0: 1}, {1: 1}, {2: 1}]
        assert common_left_kernel(0, [[], []]) == []
        assert common_left_kernel(2, [[{}, {}]]) == [{0: 1}, {1: 1}]
        assert common_left_kernel(2, [[{0: 1}, {}], [{0: 2}, {0: 5}]]) == []
        # 2 x0 + 3 x1 == 0, then x2 == 0: the second map acts on K @ B, not on K
        basis = common_left_kernel(3, [[{0: 2}, {0: 3}, {}], [{}, {}, {0: 1}]])
        assert _lattice(3, basis) == IntMatrix([[3, -2, 0]])

    def test_maps_after_an_empty_basis_are_never_built(self):
        def maps(*built):
            yield from built
            raise AssertionError("a map after the basis emptied was built")

        assert common_left_kernel(0, maps()) == []
        assert common_left_kernel(2, maps([{0: 1}, {1: 1}])) == []
        # the first map leaves a kernel, the second empties it
        assert common_left_kernel(2, maps([{0: 1}, {0: -1}], [{0: 1}, {}])) == []


_sparse_dicts = st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=8)


class TestAxpy:
    """intlinalg._axpy, the package's one sparse accumulate, against dense
    arithmetic over the columns 0..7."""

    @settings(max_examples=400, deadline=None)
    @given(_sparse_dicts, _sparse_dicts, st.integers(-3, 3), st.booleans())
    def test_matches_dense(self, target, source, factor, cancel):
        if cancel:
            # make some keys cancel exactly
            source = {**source, **{j: -x for j, x in target.items() if j % 2}}
            factor = 1
        before_target, before_source = dict(target), dict(source)
        expected = [target.get(j, 0) + factor * source.get(j, 0) for j in range(8)]
        result = target
        assert intlinalg._axpy(result, source, factor) is None
        assert result is target  # in place
        assert source == before_source
        assert all(result.values())
        assert [result.get(j, 0) for j in range(8)] == expected
        assert set(result) == {j for j in range(8) if expected[j]}
        if factor == 0:
            assert result == before_target

    def test_fixed_cases(self):
        t = {0: 2, 1: 1}
        intlinalg._axpy(t, {0: 1, 2: 5}, -2)
        assert t == {1: 1, 2: -10}
        t = {3: 4}
        intlinalg._axpy(t, {3: 4}, -1)
        assert t == {}
        t = {(0, 1): 1}
        intlinalg._axpy(t, {(1, 0): 3}, 0)
        assert t == {(0, 1): 1}


# ---------------------------------------------------------------------------
# The Hermite and Smith forms against their earlier top-down forms, kept here
# as oracles: every value they return must come out the same.


def _top_down_hermite_rows(pivots):
    """Pivot column by pivot column from the left: make the pivot positive and
    subtract the row from every row above it, into [0, pivot)."""
    h, u = [], []
    for c in sorted(pivots):
        vec, trans = pivots[c]
        if vec[c] < 0:
            vec = {j: -x for j, x in vec.items()}
            if trans is not None:
                trans = {j: -x for j, x in trans.items()}
        p = vec[c]
        for k, hrow in enumerate(h):
            q = hrow.get(c, 0) // p
            if q:
                intlinalg._axpy(hrow, vec, -q)
                if trans is not None:
                    intlinalg._axpy(u[k], trans, -q)
        h.append(vec)
        if trans is not None:
            u.append(trans)
    return h, u


def _top_down_hermite_with_transform(a):
    pivots, knl = intlinalg.sparse_echelon(a.sparse_rows, want_kernel=True)
    h, u = _top_down_hermite_rows(pivots)
    h.extend({} for _ in knl)
    return IntMatrix._of(h, a.cols), IntMatrix._of(u + knl, a.rows)


def _top_down_diagonalize(a):
    """Alternating top-down Hermite steps, each transform composed onto an
    identity."""
    u = [{i: 1} for i in range(a.rows)]
    vt = [{j: 1} for j in range(a.cols)]
    m = a
    while True:
        m, step = _top_down_hermite_with_transform(m)
        u = [intlinalg._combination(r, u) for r in step.sparse_rows]
        if intlinalg._is_diagonal(m):
            break
        m, step = _top_down_hermite_with_transform(m.transpose())
        vt = [intlinalg._combination(r, vt) for r in step.sparse_rows]
        m = m.transpose()
        if intlinalg._is_diagonal(m):
            break
    return [m.sparse_rows[k].get(k, 0) for k in range(min(a.shape))], u, vt


def _top_down_snf(a):
    """(d, u, v) from the top-down steps and a gcd/lcm pass over every pair."""
    d, u, vt = _top_down_diagonalize(a)
    r = sum(1 for x in d if x)
    for i in range(r):
        for j in range(i + 1, r):
            p, q = d[i], d[j]
            if q % p:
                x, y, g = xgcd(p, q)
                d[i], d[j] = g, p // g * q
                u[i], u[j] = (
                    intlinalg._combine(u[i], x, u[j], y),
                    intlinalg._combine(u[i], -(q // g), u[j], p // g),
                )
                vt[i], vt[j] = (
                    intlinalg._combine(vt[i], 1, vt[j], 1),
                    intlinalg._combine(vt[i], -y * (q // g), vt[j], x * (p // g)),
                )
    v = intlinalg._transpose_rows(vt, a.cols)
    return tuple(d), IntMatrix._of(u, a.rows), IntMatrix._of(v, a.cols)


# Sparse rows scaled by 1, -1, 2, -2 or 3 (negative and non-unit pivots),
# with zero rows and integer combinations of earlier rows shuffled in.  Half
# the entries are 0, so back-reduction meets pivot columns a row lacked.
hermite_cases = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.just(0), st.integers(-5, 5)),
                    min_size=shape[1],
                    max_size=shape[1],
                ),
                st.sampled_from([1, -1, 2, -2, 3]),
                st.sampled_from(["row", "zero", "dependent"]),
                st.lists(st.integers(-2, 2), min_size=shape[0], max_size=shape[0]),
            ),
            min_size=shape[0],
            max_size=shape[0],
        ),
        st.just(shape[1]),
    )
)


def _hermite_case(case):
    specs, cols = case
    rows = []
    for entries, scale, kind, coeffs in specs:
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "dependent" and rows:
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)])
        else:
            rows.append([scale * x for x in entries])
    return IntMatrix(rows, cols=cols)


class TestHermiteAgainstTopDown:
    @settings(max_examples=300, deadline=None)
    @given(hermite_cases)
    def test_rows_and_transforms_match(self, case):
        a = _hermite_case(case)
        for want_kernel in (True, False):
            # each side reduces its own echelon: both update rows in place
            new = intlinalg._hermite_rows(intlinalg.sparse_echelon(a.sparse_rows, want_kernel)[0])
            old = _top_down_hermite_rows(intlinalg.sparse_echelon(a.sparse_rows, want_kernel)[0])
            assert new == old  # dicts compare by value, whatever their key order
            assert bool(new[1]) == (want_kernel and bool(new[0]))
        old_h, old_u = _top_down_hermite_with_transform(a)
        assert hermite_with_transform(a) == (old_h, old_u)
        assert row_span_hnf(a) == IntMatrix._of([r for r in old_h.sparse_rows if r], a.cols)

    @settings(max_examples=200, deadline=None)
    @given(hermite_cases)
    def test_smith_forms_match(self, case):
        a = _hermite_case(case)
        res = snf(a)
        d, u, v = _top_down_snf(a)
        assert (res.d, res.u, res.v) == (d, u, v)

    @pytest.mark.parametrize("g, K", [(2, 6), (3, 5), (4, 4)])
    def test_graded_quotient_matches(self, g, K, monkeypatch):
        from surfalg.surface import build

        new = build(g, K)
        with monkeypatch.context() as m:
            # row_span_hnf and snf on the top-down steps
            m.setattr(intlinalg, "_hermite_rows", _top_down_hermite_rows)
            m.setattr(intlinalg, "_diagonalize", _top_down_diagonalize)
            old = build(g, K)
        for d in range(1, K + 1):
            assert new.degree_data(d).pivot_rows == old.degree_data(d).pivot_rows
            assert new.degree_data(d).basis_columns == old.degree_data(d).basis_columns

    def test_back_reduction_visits_each_final_row_once(self, monkeypatch):
        # rows e_i + e_(i+1), i < 200: already echelon, so the whole cost is
        # the back-reduction; row i meets only row i + 1, once, and ends as
        # e_i +- e_200.  A top-down pass subtracts each new pivot row from
        # every row above it: 19,900 calls.
        n = 200
        a = IntMatrix._of([{i: 1, i + 1: 1} for i in range(n)], n + 1)
        calls = 0
        axpy = intlinalg._axpy

        def counted(target, source, factor):
            nonlocal calls
            calls += 1
            axpy(target, source, factor)

        monkeypatch.setattr(intlinalg, "_axpy", counted)
        h = row_span_hnf(a)
        assert calls <= n - 1
        assert h.sparse_rows[0] == {0: 1, n: -1}
        assert all(row == {i: 1, n: (-1) ** (n - 1 - i)} for i, row in enumerate(h.sparse_rows))
