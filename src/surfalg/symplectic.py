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
reads it through the 2g Chevalley generators I + N of `sp_generators` and
builds their cube matrices, the contraction splitting off H, the Johnson
image of the point-push generators, and the commutant certificate that pins
down the unique 2g-dimensional invariant subspace for every g >= 3.

Why 2g generators suffice.  As N^2 = 0, A = I + N acts on the cube as
exp(D_N), D_N the derivation x^y^z -> Nx^y^z + x^Ny^z + x^y^Nz; D_N^4 = 0, so
D_N = log(I + M) and M = lambda3(A) - I are polynomials in each other, and a
matrix commutes with A exactly when it commutes with D_N, and then with D of
the Lie algebra the N generate: sp(2g, Q) by `certify_generators` (Serre's
theorem; Humphreys, GTM 9, section 18), which holds the N' of every elementary
generator I + N' (upper-ii, lower-ii, upper-sym, lower-sym, unit-shear).
Equivariance, c M = N c for the contraction c, extends the same way, and so
does invariance: M L in L gives D_N' L_Q in L_Q, so A' L lies in L_Q meet Z^n,
which is L when L is a direct summand (saturate).  The 2g matrices I + N
generate Sp(2g, Z) (Steinberg, Lectures on Chevalley Groups, 1967).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import intlinalg
from .errors import CertificateError, ResourceLimitExceeded
from .intlinalg import IntMatrix

Triple = tuple[int, int, int]

_TRIPLE_CAP = 9880  # C(40, 3): genus 20, the last whose cube suites fit 60 MB, ~3 s (57 MB, 2.5-3 s; 21: 64 MB)


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


def sp_generators(g: int) -> tuple[IntMatrix, ...]:
    """The 2g Chevalley generators I + N, for handles i = 1, ..., g - 1:
    e_i = I + E(a_i, a_(i+1)) - E(b_(i+1), b_i), unit-shear(i, i+1);
    f_i = I + E(a_(i+1), a_i) - E(b_i, b_(i+1)), unit-shear(i+1, i);
    then I + E(a_g, b_g) and I + E(b_g, a_g), upper-ii and lower-ii at the last handle."""
    n = 2 * g

    def gen(*entries):  # I plus x at each (row, col, x), none on the diagonal
        return IntMatrix._of(({r: 1, **{c: x for q, c, x in entries if q == r}} for r in range(n)), n)

    adjacent = ((i, j) for i in range(g) for j in (i - 1, i + 1) if 0 <= j < g)
    shears = (gen((2 * i, 2 * j, 1), (2 * j + 1, 2 * i + 1, -1)) for i, j in adjacent)
    return (*shears, gen((n - 2, n - 1, 1)), gen((n - 1, n - 2, 1)))


def certify_generators(g: int, gens: Sequence[IntMatrix]) -> None:
    """Raise CertificateError unless each gen is I + N with N^2 = 0 and J N
    symmetric (N^T J + J N = 0, as J^T = -J), so (I + N)^T J (I + N) = J -
    J N^2 = J, and the N generate sp(2g, Q): each round brackets the last
    round's new elements with every N, and the span must reach g(2g + 1)."""
    n = 2 * g
    j = SymplecticSpace(g).form_matrix()
    ns = []
    for k, gen in enumerate(gens):
        moved = _moved_columns(gen)  # the nonzero rows of N = gen - I
        nm = IntMatrix._of((moved.get(r, {}) for r in range(n)), n)
        if not (nm @ nm).is_zero() or j @ nm != (j @ nm).transpose():
            raise CertificateError(f"generator {k} is not I + N with N^2 = 0 and N in sp({n})")
        ns.append({(r, c): x for r, row in moved.items() for c, x in row.items()})
    echelon: dict = {}
    new = ns
    while new := [y for y in new if _extends(echelon, y)]:  # each round keeps what leaves the span
        new = [_bracket(a, x) for x in new for a in ns]
    if len(echelon) != g * (2 * g + 1):
        raise CertificateError(f"brackets of the N span {len(echelon)} of the {g * (2 * g + 1)} dimensions of sp({n})")


def _bracket(a: dict, b: dict) -> dict:
    """AB - BA for matrices given by their entries {(row, col): x}."""
    out: dict = {}
    for (r, s), x in a.items():
        for (t, c), y in b.items():
            if s == t:
                intlinalg._axpy(out, {(r, c): x * y}, 1)
            if c == r:
                intlinalg._axpy(out, {(t, s): x * y}, -1)
    return out


def _extends(echelon: dict, v: dict) -> bool:
    """Whether v leaves the span over Q of the rows {leading key: row}; if so, its remainder joins them."""
    while v and (row := echelon.get(c := min(v))) is not None:
        v = intlinalg._combine(v, row[c], row, -v[c])
    if v:
        echelon[c] = v
    return bool(v)


def check_cube_cap(g: int) -> None:
    """Refuse, with ResourceLimitExceeded, a cube of more than 9,880 triples
    (genus 20): every cube consumer reads this before it builds anything."""
    n = comb(2 * g, 3)
    if n > _TRIPLE_CAP:
        raise ResourceLimitExceeded(f"exterior cube of {n} triples at genus {g} is beyond desk scale")


@lru_cache(maxsize=None)
def generator_actions(g: int) -> tuple[tuple[IntMatrix, dict], ...]:
    """Pairs (gen, M) over `sp_generators(g)`, certified first, M = lambda3_action(gen) - I.

    M is the only form of a cube action the package keeps: its nonzero
    columns {c: A e_c - e_c}, where A is the full action and a basis vector
    that A fixes has no entry.  Built once per genus, one generator at a
    time: the rows of lambda3_action(S.T), S the generator, are the columns
    of A, so M is read off them with no transpose of the cube, and each
    full action is dropped once its M is taken.
    """
    check_cube_cap(g)
    certify_generators(g, gens := sp_generators(g))
    return tuple((gen, _moved_columns(lambda3_action(gen.transpose()))) for gen in gens)


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


def lambda3_action(m: IntMatrix) -> IntMatrix:
    """Induced matrix on the third exterior power, built from m's sparse rows.

    Row (p<q<r) is (e_p m) ^ (e_q m) ^ (e_r m), the wedge of rows p, q, r of
    m, expanded multilinearly over their nonzero entries with `wedge3`.  Its
    entry in column (i<j<k) is therefore the 3x3 minor det m[[p,q,r],
    [i,j,k]], so lambda3_action(m.T) is the transpose of lambda3_action(m),
    and functoriality (composition goes to composition) is the Cauchy-Binet
    identity.  A row costs the product of the three row supports, a few
    terms for a generator.
    """
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
    and N = S - I for the generator S.  The identity terms cancel, so this is
    c A == S c, which gives c(Av) == S(cv) for every vector v."""
    pairs = generator_actions(g)
    c = contraction_matrix(SymplecticSpace(g)).sparse_rows
    ok = 0
    for gen, moved in pairs:
        m_rows = _rows_of(moved)
        n_rows = _moved_columns(gen)  # row i of N = S - I is column i of S.T - I
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

    It is solved on the weight blocks only.  A matrix X in it commutes with
    every D_N (the module docstring), so with the diagonal D_h of the Cartan
    elements h = [e_i, f_i], i < g, and [E(a_g, b_g), E(b_g, a_g)]: they
    multiply a triple by slot i minus slot i + 1 of its weight, and by slot g
    (slot m counts +1 for a_m, -1 for b_m).  These separate the weights, so
    the commutant is the common integer left kernel of the maps X -> M X - X M
    (= A X - X A) over the entries E_kc with weight(k) = weight(c)
    (`_weight_block_entries`): 32 of 400 at genus 3, 2580 of 1299600 at genus 10.
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
    """Outcome of the integral-points roundtrip on a submodule of the cube."""

    invariant: bool
    summand: bool

    def __bool__(self) -> bool:
        return self.invariant and self.summand


def summand_correspondence_roundtrip(v: IntMatrix, g: int) -> RoundtripReport:
    """Rationalize-then-saturate roundtrip on a submodule L of the cube.

    Checks that the rows are carried into their own span by every generator
    action and span a direct summand; on a non-summand, `invariant` speaks
    for Sp(2g, Z) by Steinberg's generation theorem (the module docstring).
    The integral points of L's rational span, the x in Z^n with a nonzero
    multiple in L, reproduce L exactly when Z^n / L has no torsion, which is
    `summand`: the roundtrip's verdict, reported rather than assumed so
    callers can probe non-examples.  Every verdict is taken on L's Hermite
    basis, sparser and smaller than v's echelon rows.  A generator with
    action A moves a row r to r @ A.T, which lies in L iff its moved part
    r @ M.T does, M = A - I, a combination of the columns that
    `generator_actions` stores; an empty one lies in every lattice.
    """
    space = SymplecticSpace(g)
    n = len(space.triples())
    if v.cols != n:
        raise intlinalg.DimensionMismatch(f"rows must have {n} coordinates")
    pairs = generator_actions(g)
    h = intlinalg.row_span_hnf(v)
    moved_parts = (_times(r, moved) for _, moved in pairs for r in h.sparse_rows)
    invariant = all(not part or intlinalg.row_span_contains(h, part) for part in moved_parts)
    return RoundtripReport(invariant, intlinalg.is_direct_summand(h, n))
