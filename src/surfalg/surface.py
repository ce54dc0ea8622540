"""The graded Lie algebra of the lower central series of a closed surface group.

For genus g >= 2 this is the free Lie algebra on the 2g letters modulo the
ideal generated by omega = sum_i [a_i, b_i]: each graded piece is a free
Z-module (checked here degree by degree, not assumed), the ranks reproduce the
power series 1/(1 - 2g t + t^2) through the usual graded product formula, and
the center is certified empty in every computed degree by solving the exact
integer linear system [x, generators] = 0.  Elements are index rows over the
free Lie basis, as the `freelie` module docstring sets out.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .errors import CertificateError, ResourceLimitExceeded
from .freelie import FreeLieAlgebra, free_lie_algebra, witt_dimension
from .intlinalg import IntMatrix

_DIMENSION_CAP = 20_000


def _bracket_letter(fl: FreeLieAlgebra, d: int, row: dict, x: int) -> dict:
    """[row, x] for a sparse row {column: coefficient} over fl.basis_words(d)
    and the letter x, as a sparse row over fl.word_index(d + 1)."""
    words = fl.basis_words(d)
    out: dict = {}
    for j, c in row.items():
        intlinalg._axpy(out, fl.bracket_words(words[j], (x,)), c)
    index = fl.word_index(d + 1)
    return {index[w]: c for w, c in out.items()}


@dataclass(frozen=True)
class DegreeData:
    """Per-degree quotient data, all in free Lie basis coordinates.

    Vectors are sparse dicts {column: coefficient} over the degree's basis
    words (index coordinates, `FreeLieAlgebra.word_index`); the dicts are
    shared by every reader and never mutated.  The values of pivot_rows are
    the Hermite basis of the degree's ideal component.
    """

    pivot_rows: dict[int, dict]        # leading column -> its ideal row (pivot 1), increasing
    basis_columns: tuple[int, ...]     # complementary columns = quotient basis
    basis_index: dict[int, int]        # quotient-basis column -> quotient coordinate
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

    def _reduce(self, d: int, v: dict) -> dict:
        """Reduce the sparse v, in place, modulo the unit-pivot ideal rows of
        degree d (`intlinalg._reduce`): only quotient-basis columns survive."""
        return intlinalg._reduce(v, self.degree_data(d).pivot_rows)


def build(g: int, K: int) -> SurfaceAlgebra:
    """Construct the quotient through degree K.

    Every bracket is taken in index coordinates (`_bracket_letter`).  Degree
    2 of the ideal is spanned by omega's row, and degree d + 1 by the
    brackets of the degree-d Hermite rows with each letter (the ideal is
    generated in degree 2, and degree-1 elements generate the free algebra,
    so these brackets span).  Quotient bases are the complements of the
    Hermite pivot columns, and the build succeeds exactly when every pivot
    is 1: unit pivots make the complement columns a Z-basis of the quotient,
    so they imply freeness.  A quotient with torsion and a free one whose
    Hermite basis has a non-unit pivot (the span of (2, 3) in Z^2) both raise
    CertificateError; the Smith normal form only chooses the message, naming
    the invariant factors when there is torsion.
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
        pivot_rows={},
        basis_columns=tuple(range(n1)),
        basis_index={j: j for j in range(n1)},
        rank=n1,
    )
    if K >= 2:
        # omega = sum_k [a_k, b_k], and [a_k, b_k] is the basis word a_k b_k
        index = fl.word_index(2)
        span = [{index[(2 * k, 2 * k + 1)]: 1 for k in range(g)}]
        for d in range(2, K + 1):
            n = len(fl.basis_words(d))
            ideal = intlinalg.row_span_hnf(IntMatrix._of(span, n))
            # degreewise freeness: the quotient by this component is
            # torsion-free exactly when all invariant factors are 1
            if ideal.rows:
                factors = intlinalg.snf(ideal).nonzero_factors
                if any(f != 1 for f in factors):
                    raise CertificateError(
                        f"degree-{d} quotient is not free: invariant factors {factors}"
                    )
            pivot_rows = intlinalg._hermite(ideal)  # the ideal's own memo
            for c, row in pivot_rows.items():
                if row[c] != 1:
                    raise CertificateError(
                        f"degree-{d} ideal basis has a non-unit pivot at column {c}"
                    )
            basis_cols = tuple(j for j in range(n) if j not in pivot_rows)
            degrees[d] = DegreeData(
                pivot_rows=pivot_rows,
                basis_columns=basis_cols,
                basis_index={j: i for i, j in enumerate(basis_cols)},
                rank=len(basis_cols),
            )
            if d < K:
                span = [_bracket_letter(fl, d, row, x) for row in ideal.sparse_rows for x in range(2 * g)]
    return SurfaceAlgebra(g, K, degrees)


def center_in_degree(alg: SurfaceAlgebra, d: int) -> list[dict]:
    """Basis of the degree-d elements whose bracket with every generator dies,
    as sparse rows {quotient coordinate: coefficient}.

    Degree-1 elements generate the quotient, so an element centralizing them
    is central.  Each generator gives one map into degree d+1, x -> [x, gen]
    in quotient coordinates, and the basis is their common integer left
    kernel.  The maps are built one at a time, so once the kernel is empty
    the brackets with the remaining generators are never reduced.
    """
    if d + 1 > alg.max_degree:
        raise ValueError(f"need degree {d + 1} <= built degree {alg.max_degree}")
    columns = alg.degree_data(d).basis_columns
    upper = alg.degree_data(d + 1).basis_index

    def bracket_map(i: int) -> list[dict]:
        return [
            {upper[j]: x for j, x in alg._reduce(d + 1, _bracket_letter(alg.free, d, {c: 1}, i)).items()}
            for c in columns
        ]

    return intlinalg.common_left_kernel(len(columns), map(bracket_map, range(2 * alg.genus)))


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
