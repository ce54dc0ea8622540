"""The symplectic lattice, its exterior-cube action, and the point-push image.

H = Z^(2g) carries the standard form (0 I; -I 0) in the block basis
a1..ag, b1..bg.  The integral symplectic group acts on the third exterior
power; this module builds the five standard generator families, the induced
exterior-cube matrices, the contraction map realizing the splitting off of H,
the image of the point-push generators under the first Johnson map, and the
commutant certificate that pins down the unique 2g-dimensional invariant
subspace for every g >= 3, solved on the weight blocks of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

from . import intlinalg
from .intlinalg import IntMatrix


@dataclass(frozen=True)
class SymplecticSpace:
    """Z^(2g) with basis a1..ag, b1..bg (block order) and the standard form."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def label(self, index: int) -> str:
        """Name of basis vector index: a1..ag for 0..g-1, b1..bg for g..2g-1.

        The inverse of `index_of`; any other index raises ValueError."""
        g = self.genus
        if not isinstance(index, int) or not 0 <= index < 2 * g:
            raise ValueError(f"no basis vector {index!r} at genus {g}")
        return f"a{index + 1}" if index < g else f"b{index - g + 1}"

    def index_of(self, label: str) -> int:
        """Index of the basis vector named label; the inverse of `label`.

        Only the 2g names `label` gives are accepted: 'a0', 'b7' at genus 3,
        'a01' and non-strings raise ValueError."""
        for index in range(self.dim):
            if label == self.label(index):
                return index
        raise ValueError(f"unknown label {label!r} at genus {self.genus}")

    def form_matrix(self) -> IntMatrix:
        g = self.genus
        rows = [[0] * 2 * g for _ in range(2 * g)]
        for i in range(g):
            rows[i][g + i] = 1
            rows[g + i][i] = -1
        return IntMatrix(rows)

    def pairing(self, i: int, j: int) -> int:
        g = self.genus
        if j == i + g:
            return 1
        if i == j + g:
            return -1
        return 0

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(combinations(range(self.dim), 3))

    def triple_index(self) -> dict:
        return {t: i for i, t in enumerate(self.triples())}

    def triple_label(self, t: tuple[int, int, int]) -> str:
        return "^".join(self.label(i) for i in t)


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


class ExtVector:
    """Element of the third exterior power, coordinates over sorted triples."""

    __slots__ = ("space", "coords")

    def __init__(self, space: SymplecticSpace, coords: Iterable[int]):
        self.space = space
        self.coords = _cube_coords(space, coords)

    @classmethod
    def zero(cls, space: SymplecticSpace) -> "ExtVector":
        return cls(space, [0] * len(space.triples()))

    @classmethod
    def wedge(cls, space: SymplecticSpace, i: int, j: int, k: int) -> "ExtVector":
        for index in (i, j, k):
            space.label(index)  # refuses an index outside the basis
        coords = [0] * len(space.triples())
        w = wedge3(i, j, k)
        if w is not None:
            t, sign = w
            coords[space.triple_index()[t]] = sign
        return cls(space, coords)

    def __add__(self, other: "ExtVector") -> "ExtVector":
        if self.space != other.space:
            raise ValueError("different spaces")
        return ExtVector(self.space, [x + y for x, y in zip(self.coords, other.coords)])

    def __neg__(self) -> "ExtVector":
        return ExtVector(self.space, [-x for x in self.coords])

    def __sub__(self, other: "ExtVector") -> "ExtVector":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "ExtVector":
        return ExtVector(self.space, [scalar * x for x in self.coords])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ExtVector)
            and self.space == other.space
            and self.coords == other.coords
        )

    def __repr__(self):
        bits = [
            f"{c}*{self.space.triple_label(t)}"
            for t, c in zip(self.space.triples(), self.coords)
            if c
        ]
        return "ExtVector(" + (" + ".join(bits) if bits else "0") + ")"


def _cube_coords(space: SymplecticSpace, v: ExtVector | Iterable[int]) -> tuple[int, ...]:
    """v's coordinates over the sorted triples: an ExtVector's own, or a
    sequence's as `intlinalg._int_row` reads them.  Any length but C(2g,3)
    raises DimensionMismatch."""
    coords = v.coords if isinstance(v, ExtVector) else intlinalg._int_row(v)
    n = comb(space.dim, 3)
    if len(coords) != n:
        raise intlinalg.DimensionMismatch(f"expected {n} coordinates, got {len(coords)}")
    return coords


@dataclass(frozen=True)
class SpGenerator:
    """One lambda=1 instance of the five standard generator families.

    family is one of upper-ii, lower-ii, upper-sym, lower-sym, unit-shear;
    i, j are the 0-based block indices that instantiate it.  The matrix is
    checked against the form at construction.
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


def _block_matrix(g: int, top_right=None, bottom_left=None, top_left=None, bottom_right=None):
    rows = [[0] * 2 * g for _ in range(2 * g)]
    for r in range(g):
        for c in range(g):
            rows[r][c] = (top_left or _eye(g))[r][c]
            rows[g + r][g + c] = (bottom_right or _eye(g))[r][c]
            if top_right is not None:
                rows[r][g + c] = top_right[r][c]
            if bottom_left is not None:
                rows[g + r][c] = bottom_left[r][c]
    return IntMatrix(rows)


def _eye(g: int):
    return [[1 if r == c else 0 for c in range(g)] for r in range(g)]


def _unit(g: int, i: int, j: int):
    m = [[0] * g for _ in range(g)]
    m[i][j] = 1
    return m


def _sym(g: int, i: int, j: int):
    m = [[0] * g for _ in range(g)]
    m[i][j] += 1
    m[j][i] += 1
    return m


def sp_generators(g: int) -> tuple[SpGenerator, ...]:
    """All five lambda=1 families over their valid index pairs.

    Counts per genus: 2g from the two diagonal families, 2*C(g,2) from the
    symmetric off-diagonal families, g(g-1) from the shear family
    (g=1: 2, g=2: 8, g=3: 18).  Built, and checked against the form, once
    per genus.
    """
    return _sp_generators(g)


@lru_cache(maxsize=None)
def _sp_generators(g: int) -> tuple[SpGenerator, ...]:
    space = SymplecticSpace(g)
    out = []
    for i in range(g):
        out.append(SpGenerator(space, "upper-ii", i, i, _block_matrix(g, top_right=_unit(g, i, i))))
    for i in range(g):
        out.append(SpGenerator(space, "lower-ii", i, i, _block_matrix(g, bottom_left=_unit(g, i, i))))
    for i in range(g):
        for j in range(i + 1, g):
            out.append(SpGenerator(space, "lower-sym", i, j, _block_matrix(g, bottom_left=_sym(g, i, j))))
    for i in range(g):
        for j in range(i + 1, g):
            out.append(SpGenerator(space, "upper-sym", i, j, _block_matrix(g, top_right=_sym(g, i, j))))
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            tl = _eye(g)
            tl[i][j] += 1
            br = _eye(g)
            br[j][i] -= 1
            out.append(SpGenerator(space, "unit-shear", i, j, _block_matrix(g, top_left=tl, bottom_right=br)))
    return tuple(out)


def generator_actions(g: int) -> tuple[tuple[SpGenerator, IntMatrix], ...]:
    """Pairs (gen, lambda3_action(gen)) over `sp_generators(g)`, built once per genus."""
    return _generator_actions(g)


@lru_cache(maxsize=None)
def _generator_actions(g: int) -> tuple[tuple[SpGenerator, IntMatrix], ...]:
    return tuple((gen, lambda3_action(gen)) for gen in sp_generators(g))


@lru_cache(maxsize=None)
def _moved_rows(g: int) -> tuple[dict, ...]:
    """Per generator action A of `generator_actions(g)`, the nonzero sparse
    rows of A.T - I, by row index: row c is the moved part A e_c - e_c of
    basis vector c, and a basis vector A fixes has no entry.  Each action is
    transposed once per genus, here; `commutant_dimension` and the roundtrip
    both read the result."""
    out = []
    for _, act in generator_actions(g):
        rows = {}
        for c, col in enumerate(act.transpose().sparse_rows):
            if len(col) == 1 and col.get(c) == 1:
                continue  # A fixes e_c
            moved = dict(col)
            intlinalg._axpy(moved, {c: 1}, -1)
            rows[c] = moved
        out.append(rows)
    return tuple(out)


def _moved_part(r: dict, moved: dict) -> dict:
    """r @ (A.T - I) for a sparse row r, from A's `_moved_rows` entry."""
    return intlinalg._combination({c: x for c, x in r.items() if c in moved}, moved)


def lambda3_action(m: IntMatrix | SpGenerator) -> IntMatrix:
    """Induced matrix on the third exterior power, built from m's sparse columns.

    Column (i<j<k) is the image (m e_i) ^ (m e_j) ^ (m e_k) of e_i ^ e_j ^ e_k,
    expanded multilinearly over the nonzero entries of the three columns
    with `wedge3`.  Its entry in row (p<q<r) is therefore still the 3x3 minor
    det m[[p,q,r], [i,j,k]], and functoriality (composition goes to
    composition) is the Cauchy-Binet identity.  A column costs the product
    of the three column supports, a few terms for a generator.
    """
    if isinstance(m, SpGenerator):
        m = m.matrix
    n = m.rows
    if n != m.cols:
        raise ValueError("need a square matrix")
    trips = tuple(combinations(range(n), 3))
    index = {t: r for r, t in enumerate(trips)}
    cols = m.transpose().sparse_rows
    images = []
    for i, j, k in trips:
        image: dict = {}
        for p, x in cols[i].items():
            for q, y in cols[j].items():
                for r, z in cols[k].items():
                    w = wedge3(p, q, r)
                    if w is None:
                        continue
                    t, sign = w
                    image[index[t]] = image.get(index[t], 0) + sign * x * y * z
        images.append({row: x for row, x in image.items() if x})
    return IntMatrix._of(images, len(trips)).transpose()


def contraction_matrix(space: SymplecticSpace) -> IntMatrix:
    """Matrix of x^y^z -> w(x,y) z - w(x,z) y + w(y,z) x, shape 2g x C(2g,3)."""
    n = space.dim
    cols = []
    for (i, j, k) in space.triples():
        col = [0] * n
        col[k] += space.pairing(i, j)
        col[j] -= space.pairing(i, k)
        col[i] += space.pairing(j, k)
        cols.append(col)
    return IntMatrix([[cols[c][r] for c in range(len(cols))] for r in range(n)])


def contraction(v: ExtVector | Sequence[int], space: SymplecticSpace) -> tuple[int, ...]:
    """Contraction of an exterior-cube vector down to H; linear and
    equivariant for the symplectic action."""
    coords = _cube_coords(space, v)
    rows = contraction_matrix(space).sparse_rows
    return tuple(sum(x * coords[i] for i, x in row.items()) for row in rows)


def theta_wedge(space: SymplecticSpace, vec: Sequence[int]) -> ExtVector:
    """theta ^ v with theta = sum_i a_i ^ b_i, for v in H = Z^(2g)."""
    g = space.genus
    vec = intlinalg._int_row(vec)
    if len(vec) != space.dim:
        raise intlinalg.DimensionMismatch(f"expected {space.dim} coordinates, got {len(vec)}")
    index = space.triple_index()
    coords = [0] * len(space.triples())
    for k in range(g):
        for m, c in enumerate(vec):
            if not c:
                continue
            w = wedge3(k, g + k, m)
            if w is None:
                continue
            t, sign = w
            coords[index[t]] += sign * c
    return ExtVector(space, coords)


def theta_section_matrix(space: SymplecticSpace) -> IntMatrix:
    """Matrix of v -> theta ^ v, shape C(2g,3) x 2g."""
    n = space.dim
    cols = [theta_wedge(space, [1 if r == m else 0 for r in range(n)]).coords for m in range(n)]
    return IntMatrix([[cols[c][r] for c in range(n)] for r in range(len(space.triples()))], cols=n)


def johnson_image(g: int) -> IntMatrix:
    """Rows theta^a1, theta^b1, ..., theta^ag, theta^bg in triple coordinates.

    For g >= 2 these are independent and span a direct summand (unit
    invariant factors): the point-push generators hit a partial basis.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    space = SymplecticSpace(g)
    rows = []
    for k in range(g):
        for idx in (k, g + k):  # a_{k+1}, b_{k+1} in the project label order
            basis_vec = [1 if m == idx else 0 for m in range(space.dim)]
            rows.append(theta_wedge(space, basis_vec).coords)
    return IntMatrix(rows, cols=len(space.triples()))


def _weight_block_entries(g: int) -> tuple[tuple[int, int], ...]:
    """The entries (k, c) of an n x n matrix over the cube's basis triples
    whose two triples have the same weight, row k by row k.  Slot m of a
    triple's weight counts +1 for a_m and -1 for b_m."""
    weights = []
    for t in SymplecticSpace(g).triples():
        w = [0] * g
        for i in t:
            w[i % g] += 1 if i < g else -1
        weights.append(tuple(w))
    blocks: dict = {}
    for c, w in enumerate(weights):
        blocks.setdefault(w, []).append(c)
    return tuple((k, c) for k, w in enumerate(weights) for c in blocks[w])


def _commutator_images(action: IntMatrix, moved: dict, entries: Sequence[tuple[int, int]]) -> list[dict]:
    """Images of the unit matrices E_kc, for (k, c) in entries, under
    X -> A X - X A, A the action.

    A E_kc puts column k of A into column c and E_kc A puts row c of A into
    row k; matrices are flattened row by row, entry (r, c) to r * n + c.
    Column k of A is e_k plus its moved part, A's `_moved_rows` entry
    `moved` at k, so no action is transposed here.
    """
    n = action.rows
    a_rows = action.sparse_rows
    images = []
    for k, c in entries:
        col = moved.get(k)
        if col is None:
            img = {k * n + c: 1}  # A e_k = e_k
        else:
            img = {r * n + c: x for r, x in col.items()}
            val = img.get(k * n + c, 0) + 1  # plus e_k
            if val:
                img[k * n + c] = val
            else:
                del img[k * n + c]
        # inline, not intlinalg._axpy: a shifted copy of row c per image cost ~3% wall on shipped-g3k4
        for j, x in a_rows[c].items():
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
    commutant is the common integer left kernel of the maps X -> A X - X A
    over the entries E_kc with weight(k) = weight(c)
    (`_weight_block_entries`): 32 of 400 entries at genus 3, 2580 of
    1299600 at genus 10.  Each restriction leaves a small basis, so the
    later maps act on few vectors.
    """
    if g < 3:
        raise ValueError("the uniqueness certificate is stated for genus >= 3")
    entries = _weight_block_entries(g)
    maps = (
        _commutator_images(action, moved, entries)
        for (_, action), moved in zip(generator_actions(g), _moved_rows(g))
    )
    return len(intlinalg.common_left_kernel(len(entries), maps))


def h_projector(space: SymplecticSpace) -> IntMatrix:
    """(g-1) times the projection onto the copy of H, as an integer matrix.

    P = section . contraction satisfies P^2 = (g-1) P and commutes with the
    action; it witnesses, constructively, one nontrivial element of the
    commutant."""
    return theta_section_matrix(space) @ contraction_matrix(space)


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
    moved part of each basis row's image, a sparse combination of the rows
    of A.T - I cached per genus.  An empty moved part lies in every lattice,
    so it is not tested.
    """
    space = SymplecticSpace(g)
    n = len(space.triples())
    if v.cols != n:
        raise intlinalg.DimensionMismatch(f"rows must have {n} coordinates")
    # The Hermite basis h of L is reduced above its pivots, so its rows are
    # sparser and smaller than v's own echelon rows.  A generator with
    # action A moves a row r of h to r @ A.T, which lies in L iff its moved
    # part r @ (A.T - I) does.
    h = intlinalg.row_span_hnf(v)
    moved_parts = (_moved_part(r, moved) for moved in _moved_rows(g) for r in h.sparse_rows)
    invariant = all(not part or intlinalg.row_span_contains(h, part) for part in moved_parts)
    summand = intlinalg.is_direct_summand(h, n)
    if not (invariant and summand):
        return RoundtripReport(invariant, summand, None)
    integral_points = intlinalg.saturate(h, n)
    roundtrip = intlinalg.same_row_span(integral_points, h)
    return RoundtripReport(invariant, summand, roundtrip)
