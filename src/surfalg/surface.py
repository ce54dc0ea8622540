"""The graded Lie algebra of the lower central series of a closed surface group.

For genus g >= 2 this is the free Lie algebra on the 2g letters modulo the
ideal generated by omega = sum_i [a_i, b_i]: each graded piece is a free
Z-module (checked here degree by degree, not assumed), the ranks reproduce the
power series 1/(1 - 2g t + t^2) through the usual graded product formula, and
the center is certified empty in every computed degree by solving the exact
integer linear system [x, generators] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .errors import CertificateError, ResourceLimitExceeded
from .freelie import FreeLieAlgebra, LieElement, free_lie_algebra, witt_dimension
from .intlinalg import IntMatrix

_DIMENSION_CAP = 20_000


def omega_element(g: int) -> LieElement:
    """sum_i [a_i, b_i] in the free Lie algebra on 2g letters."""
    fl = free_lie_algebra(2 * g)
    out = fl.zero()
    for k in range(g):
        out = out + fl.generator(2 * k).bracket(fl.generator(2 * k + 1))
    return out


@dataclass(frozen=True)
class DegreeData:
    """Per-degree quotient data, all in free Lie basis coordinates."""

    ideal_basis: IntMatrix             # Hermite basis of the ideal component
    pivot_columns: tuple[int, ...]     # leading columns, all pivots are 1
    basis_columns: tuple[int, ...]     # complementary columns = quotient basis
    rank: int


class SurfaceAlgebra:
    """Graded quotient built through a fixed truncation degree.

    Built values are immutable and shareable; use build() to construct.
    """

    def __init__(self, genus: int, max_degree: int, degrees: dict[int, DegreeData]):
        self.genus = genus
        self.max_degree = max_degree
        self._degrees = degrees
        self.free = free_lie_algebra(2 * genus)

    def __repr__(self):
        return f"SurfaceAlgebra(genus={self.genus}, max_degree={self.max_degree})"

    def degree_data(self, d: int) -> DegreeData:
        if not 1 <= d <= self.max_degree:
            raise ValueError(f"degree {d} outside 1..{self.max_degree}")
        return self._degrees[d]

    def rank(self, d: int) -> int:
        return self.degree_data(d).rank

    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank(d) for d in range(1, self.max_degree + 1))

    # -- coordinates ---------------------------------------------------------

    def reduce_free_vector(self, d: int, vec: Sequence[int]) -> list[int]:
        """Subtract ideal rows until only quotient-basis columns survive."""
        data = self.degree_data(d)
        v = list(intlinalg._int_row(vec))
        ideal = data.ideal_basis.entries
        for row, c in zip(ideal, data.pivot_columns):
            q = v[c]  # pivot entries are 1, so the quotient is the entry
            if q:
                for j in range(c, len(v)):
                    v[j] -= q * row[j]
        return v

    def project(self, elem: LieElement, d: int) -> tuple[int, ...]:
        """Coordinates of the degree-d component in the quotient basis."""
        data = self.degree_data(d)
        reduced = self.reduce_free_vector(d, self._free_vector(elem, d))
        return tuple(reduced[c] for c in data.basis_columns)

    def lift(self, d: int, coords: Sequence[int]) -> LieElement:
        """Canonical free-Lie representative of quotient coordinates."""
        data = self.degree_data(d)
        words = self.free.basis_words(d)
        out = {}
        for c, col in zip(intlinalg._int_row(coords), data.basis_columns):
            if c:
                out[words[col]] = c
        return LieElement(self.free, out)

    def basis_elements(self, d: int) -> list[LieElement]:
        words = self.free.basis_words(d)
        return [
            LieElement(self.free, {words[col]: 1})
            for col in self.degree_data(d).basis_columns
        ]

    def ideal_elements(self, d: int) -> list[LieElement]:
        words = self.free.basis_words(d)
        out = []
        for row in self.degree_data(d).ideal_basis.entries:
            out.append(
                LieElement(self.free, {words[j]: c for j, c in enumerate(row) if c})
            )
        return out

    def contains_in_ideal(self, elem: LieElement, d: int) -> bool:
        reduced = self.reduce_free_vector(d, self._free_vector(elem, d))
        return all(x == 0 for x in reduced)

    def _free_vector(self, elem: LieElement, d: int) -> list[int]:
        index = self.free.word_index(d)
        vec = [0] * len(index)
        for w, c in elem.homogeneous_component(d).items():
            vec[index[w]] = c
        return vec

    # -- graded bracket ------------------------------------------------------

    def bracket_coords(self, d1: int, coords1: Sequence[int], d2: int, coords2: Sequence[int]) -> tuple[int, ...]:
        """Bracket of quotient elements, in quotient coordinates of degree d1+d2."""
        z = self.lift(d1, coords1).bracket(self.lift(d2, coords2))
        return self.project(z, d1 + d2)


class GradedElement:
    """Element of the quotient, stored per degree in the chosen bases."""

    __slots__ = ("algebra", "_coords")

    def __init__(self, algebra: SurfaceAlgebra, coords: dict[int, Sequence[int]]):
        self.algebra = algebra
        self._coords = {}
        for d, vec in coords.items():
            if not 1 <= d <= algebra.max_degree:
                raise ValueError(f"degree {d} outside 1..{algebra.max_degree}")
            tup = intlinalg._int_row(vec)
            if len(tup) != algebra.rank(d):
                raise ValueError(f"degree-{d} coordinates have wrong length")
            if any(tup):
                self._coords[d] = tup

    def component(self, d: int) -> tuple[int, ...]:
        return self._coords.get(d, tuple([0] * self.algebra.rank(d)))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._coords))

    def is_zero(self) -> bool:
        return not self._coords

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.algebra is other.algebra
            and self._coords == other._coords
        )

    def __repr__(self):
        return f"GradedElement({self._coords!r})"


def build(g: int, K: int) -> SurfaceAlgebra:
    """Construct the quotient through degree K.

    The degree-d ideal component is spanned by brackets of the lower-degree
    ideal bases with the generators (the ideal is generated in degree 2, and
    degree-1 elements generate the free algebra, so these brackets span).
    Quotient bases are the complements of the Hermite pivot columns; the
    pivots are required to be 1, which the degreewise freeness makes possible
    and the build checks.
    """
    if g < 2:
        # genus 1 collapses: the relation kills the only degree-2 bracket and
        # the quotient is abelian, so every element is central
        raise ValueError("genus must be at least 2")
    if K < 1:
        raise ValueError("max_degree must be at least 1")
    if witt_dimension(2 * g, K) > _DIMENSION_CAP:
        raise ResourceLimitExceeded(
            f"free Lie degree {K} over {2 * g} letters is beyond desk scale"
        )
    fl = free_lie_algebra(2 * g)
    degrees: dict[int, DegreeData] = {}
    n1 = len(fl.basis_words(1))
    degrees[1] = DegreeData(
        ideal_basis=IntMatrix.zeros(0, n1),
        pivot_columns=(),
        basis_columns=tuple(range(n1)),
        rank=n1,
    )
    if K >= 2:
        generators = [fl.generator(i) for i in range(2 * g)]
        current: list[LieElement] = [omega_element(g)]
        for d in range(2, K + 1):
            words = fl.basis_words(d)
            index = fl.word_index(d)
            rows = []
            for elem in current:
                vec = [0] * len(words)
                for w, c in elem.items():
                    vec[index[w]] = c
                rows.append(vec)
            span = IntMatrix(rows, cols=len(words))
            ideal = intlinalg.row_span_hnf(span)
            # degreewise freeness: the quotient by this component is
            # torsion-free exactly when all invariant factors are 1
            if ideal.rows:
                factors = intlinalg.snf(ideal).nonzero_factors
                if any(f != 1 for f in factors):
                    raise CertificateError(
                        f"degree-{d} quotient is not free: invariant factors {factors}"
                    )
            pivots = []
            for row in ideal.entries:
                c = next(j for j, x in enumerate(row) if x != 0)
                if row[c] != 1:
                    raise CertificateError(
                        f"degree-{d} ideal basis has a non-unit pivot at column {c}"
                    )
                pivots.append(c)
            pivot_set = set(pivots)
            basis_cols = tuple(j for j in range(len(words)) if j not in pivot_set)
            degrees[d] = DegreeData(
                ideal_basis=ideal,
                pivot_columns=tuple(pivots),
                basis_columns=basis_cols,
                rank=len(basis_cols),
            )
            if d < K:
                ideal_elems = [
                    LieElement(fl, {words[j]: c for j, c in enumerate(row) if c})
                    for row in ideal.entries
                ]
                current = [e.bracket(x) for e in ideal_elems for x in generators]
    return SurfaceAlgebra(g, K, degrees)


def rank(alg: SurfaceAlgebra, d: int) -> int:
    """Rank of the degree-d graded piece."""
    return alg.rank(d)


def center_in_degree(alg: SurfaceAlgebra, d: int) -> list[GradedElement]:
    """Basis of the degree-d elements whose bracket with every generator dies.

    Degree-1 elements generate the quotient, so an element centralizing them
    is central.  Each generator gives one map into degree d+1, x -> [x, gen]
    in quotient coordinates, and the basis is their common integer left
    kernel.  The maps are built one at a time, so once the kernel is empty
    the brackets with the remaining generators are never projected.
    """
    if d + 1 > alg.max_degree:
        raise ValueError(f"need degree {d + 1} <= built degree {alg.max_degree}")
    basis = alg.basis_elements(d)

    def bracket_map(i: int) -> list[dict]:
        gen = alg.free.generator(i)
        return [intlinalg._sparse(alg.project(elem.bracket(gen), d + 1)) for elem in basis]

    combos = intlinalg.common_left_kernel(len(basis), map(bracket_map, range(2 * alg.genus)))
    out = []
    for combo in combos:
        vec = [0] * len(basis)
        for i, c in combo.items():
            vec[i] = c
        out.append(GradedElement(alg, {d: vec}))
    return out


@dataclass(frozen=True)
class CenterReport:
    """Per-degree center dimensions; passes iff every computed degree is 0."""

    genus: int
    max_degree: int
    dims_by_degree: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return all(dim == 0 for _, dim in self.dims_by_degree)


def verify_center_theorem(alg: SurfaceAlgebra) -> CenterReport:
    """Aggregate center_in_degree over every degree the truncation supports."""
    dims = tuple(
        (d, len(center_in_degree(alg, d))) for d in range(1, alg.max_degree)
    )
    return CenterReport(alg.genus, alg.max_degree, dims)
