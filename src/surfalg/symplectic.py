"""The symplectic lattice, its exterior-cube action, and the point-push image.

The convention, fixed here for the whole package: H = Z^(2g) has the basis
a1, b1, a2, b2, ..., ag, bg in the letter order, so index 2k is a_(k+1) and
2k + 1 is b_(k+1) (`enveloping.letter_name` names index i).  The form is
w(a_i, b_i) = 1 = -w(b_i, a_i), all other pairings 0, so index 2k pairs with
2k + 1, and theta = sum_i a_i ^ b_i.  The exterior cube has the sorted
triples i < j < k of these indices as its basis.  The letters of a
`nilpotent.GroupWord`, the free Lie and enveloping generators and the
variables of a `torelli` monomial index the same basis, so a cubic monomial
and its wedge share one triple.

The integral symplectic group acts on the third exterior power; this module
builds the five standard generator families, the induced exterior-cube
matrices, the contraction map realizing the splitting off of H, the image of
the point-push generators under the first Johnson map, and the commutant
certificate that pins down the unique 2g-dimensional invariant subspace for
every g >= 3, solved on the weight blocks of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import intlinalg
from .errors import ResourceLimitExceeded
from .intlinalg import IntMatrix

Triple = tuple[int, int, int]

_TRIPLE_CAP = 2024  # C(24, 3): genus 12 is the largest cube built


@lru_cache(maxsize=None)
def _triple_basis(n: int) -> tuple[tuple[Triple, ...], Mapping[Triple, int]]:
    """The sorted triples i < j < k of range(n), in `combinations` order, and
    their read-only index: the exterior cube's basis, built once per
    dimension and shared by every reader."""
    trips = tuple(combinations(range(n), 3))
    return trips, MappingProxyType({t: i for i, t in enumerate(trips)})


@dataclass(frozen=True)
class SymplecticSpace:
    """Z^(2g) with basis a1, b1, ..., ag, bg (letter order) and the standard form."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def form_matrix(self) -> IntMatrix:
        """The matrix of w: row 2k is e_(2k+1), row 2k + 1 is -e_(2k)."""
        return IntMatrix._of(({i + 1: 1} if i % 2 == 0 else {i - 1: -1} for i in range(self.dim)), self.dim)

    def pairing(self, i: int, j: int) -> int:
        """w(e_i, e_j): 1 for (a_k, b_k), -1 for (b_k, a_k), else 0."""
        if i // 2 != j // 2 or i == j:
            return 0
        return 1 if i % 2 == 0 else -1

    def triples(self) -> tuple[Triple, ...]:
        return _triple_basis(self.dim)[0]

    def triple_index(self) -> Mapping[Triple, int]:
        return _triple_basis(self.dim)[1]


def wedge3(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int] | None:
    """Sorted triple and sign of e_i ^ e_j ^ e_k; None if an index repeats."""
    if i == j or j == k or i == k:
        return None
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return (a, b, c), sign


@dataclass(frozen=True)
class SpGenerator:
    """One lambda=1 instance of the five standard generator families.

    family is one of upper-ii, lower-ii, upper-sym, lower-sym, unit-shear;
    i, j are the 0-based handle indices that instantiate it (handle i has
    a at basis index 2i and b at 2i + 1).  The matrix is checked against the
    form at construction.
    """

    space: SymplecticSpace
    family: str
    i: int
    j: int
    matrix: IntMatrix

    def __post_init__(self):
        j = self.space.form_matrix()
        if self.matrix.transpose() @ j @ self.matrix != j:
            raise ValueError(f"{self.family}({self.i},{self.j}) does not preserve the form")


def sp_generators(g: int) -> tuple[SpGenerator, ...]:
    """All five lambda=1 families over their valid index pairs.

    Counts per genus: 2g from the two diagonal families, 2*C(g,2) from the
    symmetric off-diagonal families, g(g-1) from the shear family
    (g=1: 2, g=2: 8, g=3: 18).  Each generator is checked against the form
    when it is built, and is the identity plus one or two entries E(row, col):
    upper-ii    I + E(a_i, b_i)
    lower-ii    I + E(b_i, a_i)
    lower-sym   I + E(b_i, a_j) + E(b_j, a_i), i < j
    upper-sym   I + E(a_i, b_j) + E(a_j, b_i), i < j
    unit-shear  I + E(a_i, a_j) - E(b_j, b_i), i != j
    """
    space = SymplecticSpace(g)
    n = space.dim

    def gen(family, i, j, entries):
        rows = [{r: 1} for r in range(n)]
        for (r, c), x in entries.items():
            rows[r][c] = x
        return SpGenerator(space, family, i, j, IntMatrix._of(rows, n))

    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    return (
        *(gen("upper-ii", i, i, {(2 * i, 2 * i + 1): 1}) for i in range(g)),
        *(gen("lower-ii", i, i, {(2 * i + 1, 2 * i): 1}) for i in range(g)),
        *(gen("lower-sym", i, j, {(2 * i + 1, 2 * j): 1, (2 * j + 1, 2 * i): 1}) for i, j in pairs),
        *(gen("upper-sym", i, j, {(2 * i, 2 * j + 1): 1, (2 * j, 2 * i + 1): 1}) for i, j in pairs),
        *(
            gen("unit-shear", i, j, {(2 * i, 2 * j): 1, (2 * j + 1, 2 * i + 1): -1})
            for i in range(g)
            for j in range(g)
            if i != j
        ),
    )


def check_cube_cap(g: int) -> None:
    """Refuse, with ResourceLimitExceeded, a cube of more than 2,024 triples
    (genus 12): every cube consumer reads this before it builds anything."""
    n = comb(2 * g, 3)
    if n > _TRIPLE_CAP:
        raise ResourceLimitExceeded(f"exterior cube of {n} triples at genus {g} is beyond desk scale")


@lru_cache(maxsize=None)
def generator_actions(g: int) -> tuple[tuple[SpGenerator, dict], ...]:
    """Pairs (gen, M) over `sp_generators(g)`, M = lambda3_action(gen) - I.

    M is the only form of a cube action the package keeps: its nonzero
    columns {c: A e_c - e_c}, where A is the full action and a basis vector
    that A fixes has no entry.  Built once per genus, one generator at a
    time: the rows of lambda3_action(S.T), S = gen.matrix, are the columns
    of A, so M is read off them with no transpose of the cube, and each
    full action is dropped once its M is taken.
    """
    check_cube_cap(g)
    return tuple((gen, _moved_columns(lambda3_action(gen.matrix.transpose()))) for gen in sp_generators(g))


def _moved_columns(at: IntMatrix) -> dict:
    """The nonzero columns {c: a e_c - e_c} of a - I, for a square matrix a
    given as its transpose at: row c of at, minus e_c, as it is stored."""
    out = {}
    for c, col in enumerate(at.sparse_rows):
        if len(col) == 1 and col.get(c) == 1:
            continue  # a fixes e_c
        moved = dict(col)
        intlinalg._axpy(moved, {c: 1}, -1)
        out[c] = moved
    return out


def _rows_of(columns: dict) -> dict:
    """The nonzero rows {r: row} of the matrix whose nonzero columns are
    `columns`: a sparse transpose that skips the all-zero rows."""
    rows: dict = {}
    for c, col in columns.items():
        for r, x in col.items():
            rows.setdefault(r, {})[c] = x
    return rows


def _times(r: dict, rows: dict) -> dict:
    """The sparse row r times the matrix whose nonzero rows are `rows`."""
    return intlinalg._combination({k: x for k, x in r.items() if k in rows}, rows)


def lambda3_action(m: IntMatrix | SpGenerator) -> IntMatrix:
    """Induced matrix on the third exterior power, built from m's sparse rows.

    Row (p<q<r) is (e_p m) ^ (e_q m) ^ (e_r m), the wedge of rows p, q, r of
    m, expanded multilinearly over their nonzero entries with `wedge3`.  Its
    entry in column (i<j<k) is therefore the 3x3 minor det m[[p,q,r],
    [i,j,k]], so lambda3_action(m.T) is the transpose of lambda3_action(m),
    and functoriality (composition goes to composition) is the Cauchy-Binet
    identity.  A row costs the product of the three row supports, a few
    terms for a generator.
    """
    if isinstance(m, SpGenerator):
        m = m.matrix
    n = m.rows
    if n != m.cols:
        raise ValueError("need a square matrix")
    trips, index = _triple_basis(n)
    rows = m.sparse_rows
    images = []
    for p, q, r in trips:
        image: dict = {}
        for i, x in rows[p].items():
            for j, y in rows[q].items():
                for k, z in rows[r].items():
                    w = wedge3(i, j, k)
                    if w is None:
                        continue
                    t, sign = w
                    image[index[t]] = image.get(index[t], 0) + sign * x * y * z
        images.append({col: x for col, x in image.items() if x})
    return IntMatrix._of(images, len(trips))


def contraction_matrix(space: SymplecticSpace) -> IntMatrix:
    """Matrix of x^y^z -> w(x,y) z - w(x,z) y + w(y,z) x, shape 2g x C(2g,3)."""
    w = space.pairing
    cols = (
        {t: x for t, x in ((k, w(i, j)), (j, -w(i, k)), (i, w(j, k))) if x} for i, j, k in space.triples()
    )
    return IntMatrix._of(cols, space.dim).transpose()


def contraction_equivariance(g: int) -> tuple[int, int]:
    """The number of generators of `generator_actions(g)`, and how many of
    them the contraction c intertwines: c M == N c, with M the stored action
    and N = S - I for S = gen.matrix.  The identity terms cancel, so this is
    c A == S c, which gives c(Av) == S(cv) for every vector v."""
    pairs = generator_actions(g)
    c = contraction_matrix(SymplecticSpace(g)).sparse_rows
    ok = 0
    for gen, moved in pairs:
        m_rows = _rows_of(moved)
        n_rows = _moved_columns(gen.matrix)  # row i of N = S - I is column i of S.T - I
        ok += all(_times(row, m_rows) == intlinalg._combination(n_rows.get(i, {}), c) for i, row in enumerate(c))
    return len(pairs), ok


def contraction(v: Sequence[int], space: SymplecticSpace) -> tuple[int, ...]:
    """Contraction of an exterior-cube vector, its coordinates over the sorted
    triples, down to H; linear and equivariant for the symplectic action.
    The sequence is read as `intlinalg._int_row` reads it, and any length
    but C(2g,3) raises DimensionMismatch."""
    coords = intlinalg._int_row(v)
    n = comb(space.dim, 3)
    if len(coords) != n:
        raise intlinalg.DimensionMismatch(f"expected {n} coordinates, got {len(coords)}")
    rows = contraction_matrix(space).sparse_rows
    return tuple(sum(x * coords[i] for i, x in row.items()) for row in rows)


def theta_wedge(space: SymplecticSpace, vec: Sequence[int]) -> dict:
    """theta ^ v with theta = sum_k a_k ^ b_k, for v in H = Z^(2g), as a sparse
    row {triple index: coefficient} over the sorted triples."""
    vec = intlinalg._int_row(vec)
    if len(vec) != space.dim:
        raise intlinalg.DimensionMismatch(f"expected {space.dim} coordinates, got {len(vec)}")
    index = space.triple_index()
    row = {}
    for m, c in enumerate(vec):
        if not c:
            continue
        for a in range(0, space.dim, 2):
            w = wedge3(a, a + 1, m)
            if w is not None:
                t, sign = w
                row[index[t]] = sign * c  # (a, m) fixes the triple, so no two terms meet
    return row


def johnson_image(g: int) -> IntMatrix:
    """Rows theta^e_m for m in basis order, theta^a1, theta^b1, ..., theta^bg,
    in triple coordinates.

    For g >= 2 these are independent and span a direct summand (unit
    invariant factors): the point-push generators hit a partial basis.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    space = SymplecticSpace(g)
    n = space.dim
    rows = [theta_wedge(space, [int(r == m) for r in range(n)]) for m in range(n)]
    return IntMatrix._of(rows, comb(n, 3))


def _weight_block_entries(g: int) -> tuple[tuple[int, int], ...]:
    """The entries (k, c) of an n x n matrix over the cube's basis triples
    whose two triples have the same weight, row k by row k.  Slot m of a
    triple's weight counts +1 for a_m (index 2m) and -1 for b_m (2m + 1)."""
    weights = []
    for t in SymplecticSpace(g).triples():
        w = [0] * g
        for i in t:
            w[i // 2] += -1 if i % 2 else 1
        weights.append(tuple(w))
    blocks: dict = {}
    for c, w in enumerate(weights):
        blocks.setdefault(w, []).append(c)
    return tuple((k, c) for k, w in enumerate(weights) for c in blocks[w])


def _commutator_images(moved: dict, n: int, entries: Sequence[tuple[int, int]]) -> list[dict]:
    """Images of the unit matrices E_kc, for (k, c) in entries, under
    X -> M X - X M, M = A - I the stored action of `generator_actions`.

    The identity terms cancel, so this is X -> A X - X A.  M E_kc puts
    column k of M into column c and E_kc M puts row c of M into row k;
    matrices are n x n, flattened row by row, entry (r, c) to r * n + c.
    """
    m_rows = _rows_of(moved)
    images = []
    for k, c in entries:
        img = {r * n + c: x for r, x in moved.get(k, {}).items()}
        # inline, not intlinalg._axpy: a shifted copy of row c per image cost ~3% wall on shipped-g3k4
        for j, x in m_rows.get(c, {}).items():
            val = img.get(k * n + j, 0) - x
            if val:
                img[k * n + j] = val
            else:
                img.pop(k * n + j, None)
        images.append(img)
    return images


def commutant_dimension(g: int) -> int:
    """Dimension of the matrices commuting with the exterior-cube action.

    The value 2 certifies exactly two irreducible summands of distinct
    dimensions (2g and C(2g,3) - 2g), hence exactly one invariant subspace of
    dimension 2g: any other would force extra commuting projections.

    The commutant is solved on the weight blocks only.  Every generator is
    A = I + N with N^2 = 0 on H, so its cube action is exp(D_N), D_N the
    derivation N induces on the cube; D_N^4 = 0, so D_N = log(I + M) is a
    rational polynomial in M = lambda3(A) - I.  An X commuting with every
    lambda3(A) thus commutes with every D_N, and with the bracket of the
    upper-ii and lower-ii derivations at slot m.  That bracket is diagonal:
    it multiplies the triple t by slot m of its weight, where a_m counts +1
    and b_m counts -1.  So X maps each weight space into itself, and the
    commutant is the common integer left kernel of the maps X -> M X - X M,
    which equal X -> A X - X A, over the entries E_kc with weight(k) =
    weight(c) (`_weight_block_entries`): 32 of 400 entries at genus 3, 2580 of
    1299600 at genus 10.  Each restriction leaves a small basis, so the
    later maps act on few vectors.
    """
    if g < 3:
        raise ValueError("the uniqueness certificate is stated for genus >= 3")
    n = comb(2 * g, 3)
    entries = _weight_block_entries(g)
    maps = (_commutator_images(moved, n, entries) for _, moved in generator_actions(g))
    return len(intlinalg.common_left_kernel(len(entries), maps))


def h_projector(space: SymplecticSpace) -> IntMatrix:
    """(g-1) times the projection onto the copy of H, as an integer matrix.

    P = section . contraction, the section v -> theta ^ v being the transpose
    of `johnson_image`, satisfies P^2 = (g-1) P and commutes with the action;
    it witnesses, constructively, one nontrivial element of the commutant."""
    return johnson_image(space.genus).transpose() @ contraction_matrix(space)


class RoundtripReport(NamedTuple):
    """Outcome of the integral-points roundtrip on an invariant summand."""

    invariant: bool
    summand: bool
    roundtrip_holds: bool | None

    def __bool__(self) -> bool:
        return self.invariant and self.summand and bool(self.roundtrip_holds)


def summand_correspondence_roundtrip(v: IntMatrix, g: int) -> RoundtripReport:
    """Rationalize-then-saturate roundtrip on a submodule of the cube.

    Checks that the rows are carried into their own span by every generator
    action and span a direct summand; when both hold, the integral points of
    the spanned rational subspace must reproduce the same summand.  Status is
    reported rather than assumed so callers can probe non-examples.  Every
    verdict depends only on the row span L, so all are taken on its Hermite
    basis; invariance tests, with `intlinalg.row_span_contains`, only the
    moved part of each basis row's image, a sparse combination of the
    stored columns of M = A - I.  An empty moved part lies in every lattice,
    so it is not tested.
    """
    space = SymplecticSpace(g)
    n = len(space.triples())
    if v.cols != n:
        raise intlinalg.DimensionMismatch(f"rows must have {n} coordinates")
    # The Hermite basis h of L is reduced above its pivots, so its rows are
    # sparser and smaller than v's own echelon rows.  A generator with
    # action A moves a row r of h to r @ A.T, which lies in L iff its moved
    # part r @ M.T does, M = A - I; the nonzero rows of M.T are the
    # columns that `generator_actions` stores.
    pairs = generator_actions(g)
    h = intlinalg.row_span_hnf(v)
    moved_parts = (_times(r, moved) for _, moved in pairs for r in h.sparse_rows)
    invariant = all(not part or intlinalg.row_span_contains(h, part) for part in moved_parts)
    summand = intlinalg.is_direct_summand(h, n)
    if not (invariant and summand):
        return RoundtripReport(invariant, summand, None)
    integral_points = intlinalg.saturate(h, n)
    roundtrip = intlinalg.same_row_span(integral_points, h)
    return RoundtripReport(invariant, summand, roundtrip)
