"""Boolean-polynomial algebra and the abelianization pullbacks.

Boolean polynomials on the 2g idempotent indeterminates a1, b1, ..., ag, bg,
indexed as the basis of H in `symplectic` (its module docstring fixes the
convention), carry the 2-torsion of the relevant abelianizations; the
cubic-to-wedge map q links them to the exterior cube mod 2.  The fiber
products of interest are presented by explicit integer generator/relation
matrices and classified via Smith normal form: generators are the boolean
basis monomials (order 2) plus a free generator per wedge triple, relations
say twice a boolean generator is the wedge lift of its q-image.

The exact formula for q is reconstructed here (cubic monomials to wedges,
lower degrees to zero): it is the minimal surjection with the kernel the
pullback computation needs, every report carries the reconstruction flag, and
the computed invariants depend only on those two properties, which are
verified, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import intlinalg
from .enveloping import letter_name
from .errors import ResourceLimitExceeded
from .intlinalg import FgAbGroup, IntMatrix
from .symplectic import SymplecticSpace

Monomial = tuple[int, ...]  # strictly increasing letter indices; () is 1

_RELATION_CELL_CAP = 12_000_000  # 10.1M cells at genus 12, 16.4M at genus 13


def bool_basis(g: int, max_degree: int) -> list[Monomial]:
    """All squarefree monomials of degree <= max_degree, constant included."""
    if max_degree < 0:
        raise ValueError("degree bound must be non-negative")
    out: list[Monomial] = []
    for d in range(max_degree + 1):
        out.extend(combinations(range(2 * g), d))
    return out


def bool_dimension(g: int, max_degree: int) -> int:
    return sum(comb(2 * g, d) for d in range(max_degree + 1))


class BoolPoly:
    """Z/2 polynomial in idempotent variables: a set of squarefree monomials."""

    __slots__ = ("genus", "monomials", "degree_bound")

    def __init__(self, genus: int, monomials: Iterable[Monomial], degree_bound: int = 3):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        mons = set()
        for m in monomials:
            m = tuple(sorted(set(intlinalg._int_word(m))))
            if any(not 0 <= x < 2 * genus for x in m):
                raise ValueError(f"variable outside 0..{2 * genus - 1} in {m}")
            if len(m) > degree_bound:
                raise ValueError(f"monomial {m} exceeds degree bound {degree_bound}")
            if m in mons:
                mons.remove(m)  # coefficients live in Z/2
            else:
                mons.add(m)
        self.genus = genus
        self.monomials = frozenset(mons)
        self.degree_bound = degree_bound

    def __add__(self, other: "BoolPoly") -> "BoolPoly":
        if self.genus != other.genus:
            raise ValueError("different variable sets")
        return BoolPoly(
            self.genus,
            self.monomials ^ other.monomials,
            max(self.degree_bound, other.degree_bound),
        )

    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def is_zero(self) -> bool:
        return not self.monomials

    def __eq__(self, other):
        return (
            isinstance(other, BoolPoly)
            and self.genus == other.genus
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((self.genus, self.monomials))

    def __repr__(self):
        if not self.monomials:
            return "BoolPoly(0)"
        bits = sorted(self.monomials, key=lambda m: (len(m), m))
        text = " + ".join("".join(letter_name(i) for i in m) if m else "1" for m in bits)
        return f"BoolPoly({text})"


def element_a(g: int) -> BoolPoly:
    """sum_i a_i b_i: nonzero, killed by doubling, degree 2."""
    return BoolPoly(g, [(2 * k, 2 * k + 1) for k in range(g)], degree_bound=2)


def q_map(p: BoolPoly) -> tuple[int, ...]:
    """Mod-2 image in the exterior cube: cubic monomials to wedges, lower
    degrees to zero.  A cubic monomial is a sorted triple of basis indices,
    so it goes to the basis wedge of that same triple (the sign is
    invisible mod 2).  Linear over Z/2 and surjective (cubic monomials hit
    every basis wedge)."""
    if p.degree() > 3:
        raise ValueError("q is defined on degree <= 3")
    index = SymplecticSpace(p.genus).triple_index()
    out = [0] * len(index)
    for m in p.monomials:
        if len(m) == 3:
            out[index[m]] ^= 1
    return tuple(out)


def gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Z/2 of 0/1 rows, via bitmask elimination: each row's mask is
    XORed down from its top bit against the basis mask leading there, and
    joins the basis {leading bit: mask} if anything is left."""
    basis: dict[int, int] = {}
    for row in rows:
        m = sum(1 << j for j, x in enumerate(row) if x & 1)
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
    return len(basis)


def q_surjective(g: int) -> bool:
    """Rank check over Z/2 that q hits all of the cube mod 2.

    This is also the fact that the fiber product maps onto the integral cube.
    That image is L + 2Z^n, L the span of the integer lifts of the q-images,
    and Z^n / (L + 2Z^n) = F_2^n / (L mod 2): it is onto exactly when q is.
    """
    _refuse_beyond_cap(g)
    rows = [q_map(BoolPoly(g, [m])) for m in bool_basis(g, 3)]
    return gf2_rank(rows) == comb(2 * g, 3)


@dataclass(frozen=True)
class PullbackGroup:
    """Fiber product presented by integer generators and relations.

    Generators are the boolean basis monomials followed by one free generator
    per wedge triple; the relation matrix presents the subgroup structure and
    invariants classifies the group.  q_reconstructed records that the
    cubic-to-wedge formula is this artifact's reconstruction.  The torsion
    exponent (the number of Z/2 factors) is read off the computed invariants,
    never from the dim B2 formula it is checked against.
    """

    genus: int
    kind: str  # "d1" or "d3"
    boolean_generators: tuple[Monomial, ...]
    relations: IntMatrix
    invariants: FgAbGroup
    q_reconstructed: bool = True


def _refuse_beyond_cap(g: int) -> None:
    """Every torelli-h1 entry reads the size of the dense relation matrix of
    d1 (d3 adds one row) and is refused before anything is built."""
    rows = bool_dimension(g, 3)
    cols = rows + comb(2 * g, 3)
    if rows * cols > _RELATION_CELL_CAP:
        raise ResourceLimitExceeded(f"relation matrix of {rows} x {cols} at genus {g} is beyond desk scale")


def _pullback_relations(g: int, kill_a: bool) -> tuple[tuple[Monomial, ...], IntMatrix]:
    """Relation matrix over generators (boolean monomials, wedge triples).

    Rows: 2*x_m = 0 for deg <= 2; 2*x_m = y_(wedge of m) for cubic m; and,
    when kill_a, the class of (sum_i a_i b_i, 0) itself.
    """
    index = SymplecticSpace(g).triple_index()
    mons = tuple(bool_basis(g, 3))
    n_bool = len(mons)
    cols = n_bool + comb(2 * g, 3)
    rows = []
    for pos, m in enumerate(mons):
        row = [0] * cols
        row[pos] = 2
        if len(m) == 3:
            row[n_bool + index[m]] = -1
        rows.append(row)
    if kill_a:
        row = [0] * cols
        for k in range(g):
            row[mons.index((2 * k, 2 * k + 1))] = 1
        rows.append(row)
    return mons, IntMatrix(rows, cols=cols)


def _kills_a(kind: str) -> bool:
    """Whether the fiber product of this kind kills the class of
    (sum_i a_i b_i, 0): d3 does, d1 does not, and any other kind is refused."""
    if kind not in ("d1", "d3"):
        raise ValueError(f"unknown pullback kind {kind!r}; expected 'd1' or 'd3'")
    return kind == "d3"


def _pullback(g: int, kind: str) -> PullbackGroup:
    """The fiber product of the given kind, classified by its cokernel."""
    kill_a = _kills_a(kind)
    if g < 2:
        raise ValueError("genus must be at least 2")
    _refuse_beyond_cap(g)
    mons, rel = _pullback_relations(g, kill_a)
    return PullbackGroup(
        genus=g,
        kind=kind,
        boolean_generators=mons,
        relations=rel,
        invariants=intlinalg.cokernel(rel),
    )


def pullback_d1(g: int) -> PullbackGroup:
    """The fiber product of the boolean cubics with the integral cube over the
    cube mod 2: free of rank C(2g,3) plus an elementary 2-group."""
    return _pullback(g, "d1")


def pullback_d3(g: int) -> PullbackGroup:
    """The same fiber product with the class of (sum_i a_i b_i, 0) killed."""
    return _pullback(g, "d3")


def expected_invariants(g: int, kind: str) -> FgAbGroup:
    """Free rank C(2g,3) with (Z/2)^(dim B2) torsion, one factor fewer for d3."""
    exponent = bool_dimension(g, 2) - _kills_a(kind)
    return FgAbGroup(comb(2 * g, 3), (2,) * exponent)

