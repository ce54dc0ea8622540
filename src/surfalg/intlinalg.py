"""Exact linear algebra over the integers.

Smith and Hermite normal forms with unimodular transforms, integer kernels,
row-span saturation, and direct-summand certificates.  Coefficients are
arbitrary-precision Python ints throughout.  A single elimination routine,
`sparse_echelon`, does every reduction on rows stored as dicts
{column: coefficient}; the normal forms, kernels and ranks are built on its
output.  `IntMatrix` stores its rows in that same format; dense tuples are
only a view built on request.  Every matrix value is immutable and every
operation returns fresh results, so all functions here are safe to call
concurrently.  A matrix caches its transform-free echelon; no caller may
mutate it or the stored rows.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CertificateError


class DimensionMismatch(ValueError):
    """An operand's shape contradicts the stated ambient rank."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix:
    """Immutable exact integer matrix, stored as sparse rows.

    Dimensions are fixed at construction.  A matrix may have zero rows (an
    empty family of vectors in a known ambient space) but its column count
    must then be given explicitly.  Rows are stored as zero-free dicts
    {column: coefficient} (`sparse_rows`), the engine's own format; `entries`,
    `row` and indexing build dense tuples on each call.  The public
    constructor coerces every entry with int(), refuses any non-string entry
    that int() would change (1.9, 2.5), and rejects ragged rows;
    `IntMatrix._of` skips all of it and is only for rows the package built.
    The transform-free `sparse_echelon` (`_pivots`) is memoized on first
    use; the rows never change, so it never goes stale.  Rows and memo are
    shared by every reader, so no caller may mutate either.
    """

    __slots__ = ("_sparse", "_cols", "_echelon")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None):
        data = tuple(map(_int_row, rows))
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise DimensionMismatch(f"rows have {width} columns, expected {cols}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self._sparse = tuple(map(_sparse, data))
        self._cols = cols
        self._echelon = None

    @classmethod
    def _of(cls, rows: Iterable[dict], cols: int) -> "IntMatrix":
        """Wrap zero-free sparse rows with columns in range(cols), unchecked."""
        m = object.__new__(cls)
        m._sparse = tuple(rows)
        m._cols = cols
        m._echelon = None
        return m

    @property
    def rows(self) -> int:
        return len(self._sparse)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._sparse), self._cols

    @property
    def sparse_rows(self) -> tuple[dict, ...]:
        """The stored rows, zero-free dicts {column: coefficient}: read only."""
        return self._sparse

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built from the sparse ones on each call."""
        return tuple(_dense_row(r, self._cols) for r in self._sparse)

    def row(self, i: int) -> tuple[int, ...]:
        return _dense_row(self._sparse[i], self._cols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.row(i)[j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(_transpose_rows(self._sparse, self._cols), len(self._sparse))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Product computed row by row as combinations of other's rows."""
        if self._cols != len(other._sparse):
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return IntMatrix._of((_combination(r, other._sparse) for r in self._sparse), other._cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._cols == other._cols and self._sparse == other._sparse

    def __hash__(self) -> int:
        return hash((self.entries, self._cols))

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))!r})"

    def is_zero(self) -> bool:
        return not any(self._sparse)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form u @ a @ v == diag(d), with u, v unimodular.

    The invariant factors d are non-negative and each divides the next.
    """

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)

    @property
    def nonzero_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.d if x != 0)


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group: free rank plus invariant-factor torsion."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError(f"free rank {self.free_rank!r} is not a non-negative int")
        # frozen: the coerced torsion replaces the given one
        object.__setattr__(self, "torsion", _int_row(self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Sparse rows: dicts {column: coefficient} holding only nonzero entries.


def _sparse(row: Sequence[int]) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def _dense_row(row: dict, cols: int) -> tuple[int, ...]:
    vec = [0] * cols
    for j, x in row.items():
        vec[j] = x
    return tuple(vec)


def _int_row(row: Iterable) -> tuple[int, ...]:
    """row as an int tuple: strings are parsed by int(), and any other entry
    that int() would change (a float with a fraction part) is refused.  A
    mapping or set is refused whole: it has no entry order (a dict would be
    read as its keys), so pass a dict's .values() where they are meant.

    The one coercion rule for integer input across the package."""
    # the ABC test is slow, and the hot callers pass lists and tuples
    if not isinstance(row, (tuple, list)) and isinstance(row, (Mapping, AbstractSet)):
        raise ValueError(f"{type(row).__name__} {row!r} has no entry order; give a sequence")
    row = tuple(row)
    out = tuple(map(int, row))
    if out != row:
        for x, n in zip(row, out):
            if n != x and not isinstance(x, str):
                raise ValueError(f"entry {x!r} is not an integer")
    return out


def _int_word(word: Iterable) -> tuple[int, ...]:
    """word as a tuple of int letters by `_int_row`'s rule.

    A str or bytes word is refused whole: iterating it would read one
    character (or byte) per letter, so '10' would become the letters 1, 0.
    The one coercion rule for word input across the package."""
    if isinstance(word, (str, bytes, bytearray)):
        raise ValueError(f"word {word!r} is a string; give its letters as a sequence of ints")
    return _int_row(word)


def _pivots(a: IntMatrix) -> dict:
    """a's transform-free `sparse_echelon` pivots, memoized on a: read only.

    `row_span_hnf` does not use this: it builds an echelon of its own,
    because `_hermite_rows` negates some pivot rows into new dicts and
    reduces the rest in place, and the memo must stay the echelon.
    """
    pivots = a._echelon
    if pivots is None:
        pivots = a._echelon = sparse_echelon(a._sparse)[0]
    return pivots


def _transpose_rows(rows: Sequence[dict], cols: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _combination(coeffs: dict, rows: Sequence[dict]) -> dict:
    """The sparse row sum of coeffs[k] * rows[k]."""
    out: dict = {}
    for k, c in coeffs.items():
        _axpy(out, rows[k], c)
    return out


def _axpy(target: dict, source: dict, factor: int) -> None:
    """target += factor * source on zero-free sparse dicts, in place.

    The package's one accumulate rule: cancelled keys are dropped, source is
    only read, factor 0 is a no-op.  Private because `surfbench/tracer.py`
    spans every public function, and this one runs once per summand."""
    if factor == 0:
        return
    for c, val in source.items():
        new = target.get(c, 0) + factor * val
        if new:
            target[c] = new
        else:
            target.pop(c, None)


def _combine(a: dict, ca: int, b: dict, cb: int) -> dict:
    out: dict = {}
    _axpy(out, a, ca)
    _axpy(out, b, cb)
    return out


def sparse_echelon(
    rows: Iterable[dict], want_kernel: bool = False
) -> tuple[dict, list[dict]]:
    """Bring sparse integer rows to echelon form by unimodular combinations.

    Returns (pivots, kernel).  pivots maps a column index to the pair
    (echelon row with that leading column, its transform): the transform is a
    coefficient dict {input_row_index: coefficient} giving the row as a
    combination of the inputs, or None unless want_kernel.  kernel lists the
    transforms of the inputs that reduced to zero; they form a basis of the
    left kernel lattice (empty unless want_kernel).  Pivots are not made
    positive and entries above them are not reduced; see `hermite_with_transform`.
    """
    pivots: dict[int, tuple[dict, dict | None]] = {}
    kernel_rows: list[dict] = []
    for idx, row in enumerate(rows):
        vec = {c: v for c, v in row.items() if v}
        trans: dict | None = {idx: 1} if want_kernel else None
        installed = False
        while vec:
            c = min(vec)
            entry = pivots.get(c)
            if entry is None:
                pivots[c] = (vec, trans)
                installed = True
                break
            prow, ptrans = entry
            aa, bb = prow[c], vec[c]
            if bb % aa == 0:
                q = bb // aa
                _axpy(vec, prow, -q)
                if want_kernel:
                    _axpy(trans, ptrans, -q)
            else:
                x, y, g = xgcd(aa, bb)
                s, tt = -(bb // g), aa // g
                new_p = _combine(prow, x, vec, y)
                new_v = _combine(prow, s, vec, tt)
                new_pt = new_vt = None
                if want_kernel:
                    new_pt = _combine(ptrans, x, trans, y)
                    new_vt = _combine(ptrans, s, trans, tt)
                pivots[c] = (new_p, new_pt)
                vec, trans = new_v, new_vt
        if not installed and want_kernel and not vec:
            kernel_rows.append(trans)
    return pivots, kernel_rows


def sparse_rank(rows: Iterable[dict]) -> int:
    pivots, _ = sparse_echelon(rows, want_kernel=False)
    return len(pivots)


def sparse_left_kernel(rows: Sequence[dict]) -> list[dict]:
    """Basis, as {row_index: coefficient} dicts, of the rows' left kernel."""
    _, knl = sparse_echelon(rows, want_kernel=True)
    return knl


def common_left_kernel(n: int, maps: Iterable[Sequence[dict]]) -> list[dict]:
    """Lattice basis, as dicts over range(n), of {x : x @ M == 0 for all M}.

    Each M in maps is given by its rows, the sparse images of the n unit
    vectors.  The basis B starts as the n unit vectors; each map replaces it
    by K @ B, K a basis of the left kernel of B @ M.  Every x killed by the
    maps seen so far is c @ B for an integer c, and c @ B @ M == 0 puts c in
    the span of K, so B stays a basis of the common kernel: the same lattice
    as the left kernel of all the maps stacked side by side.  maps is
    consumed lazily: once the basis is empty, the maps after it are never
    built.  On the unit vectors a map's images are its rows, so the first
    map is echeloned as it is; `sparse_echelon` reads each row once, in
    order, so rows built on lookup are dropped once echeloned.
    """
    maps = iter(maps)
    if not n or (rows := next(maps, None)) is None:
        return [{i: 1} for i in range(n)]
    _, basis = sparse_echelon((rows[i] for i in range(n)), want_kernel=True)
    while basis and (rows := next(maps, None)) is not None:
        images = [_combination(b, rows) for b in basis]
        basis = [_combination(k, basis) for k in sparse_left_kernel(images)]
    return basis


# ---------------------------------------------------------------------------
# Normal forms and lattices, all on top of sparse_echelon.


def _hermite_rows(pivots: dict) -> tuple[list[dict], list[dict]]:
    """Hermite rows, and their transforms if any, from a `sparse_echelon` result.

    Each pivot row is first made positive.  Then, from the last pivot to the
    first, each row is reduced against the rows below it, which are already
    final: the pivot columns the row holds are visited in increasing order
    (a heap, as in `SurfaceAlgebra._reduce`), and the entry at each is
    brought into [0, pivot) by subtracting a multiple of that column's final
    row.  A final row adds entries only right of its own pivot, so no visited
    column changes again, and a row never meets a column it does not hold.
    The echelon rows are independent, so each final row's coefficients over
    them, and so the rows and transforms, are the unique Hermite ones that a
    top-down pass gives too.  The transforms are reduced alongside when the
    echelon carries them; otherwise the second list is empty.  Rows that
    need no sign change are the echelon's own dicts, updated in place.
    """
    cols = sorted(pivots)
    h: list[dict] = []
    u: list[dict] = []
    for c in cols:
        vec, trans = pivots[c]
        if vec[c] < 0:
            vec = {j: -x for j, x in vec.items()}
            if trans is not None:
                trans = {j: -x for j, x in trans.items()}
        h.append(vec)
        if trans is not None:
            u.append(trans)
    position = {c: k for k, c in enumerate(cols)}
    # the pivot columns right of its own pivot that each final row holds
    later: list[list[int]] = [[]] * len(cols)
    for k in range(len(cols) - 1, -1, -1):
        row = h[k]
        todo = [j for j in row if j in position and j != cols[k]]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            x = row.get(c)
            if x is None:
                continue  # cancelled on the way
            i = position[c]
            final = h[i]
            q = x // final[c]
            if not q:
                continue  # already in range, or a column pushed twice
            for j in later[i]:
                if j not in row:
                    heapq.heappush(todo, j)
            _axpy(row, final, -q)
            if u:
                _axpy(u[k], u[i], -q)
        later[k] = [j for j in row if j in position and j != cols[k]]
    return h, u


def hermite_with_transform(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form (h, u) with u @ a == h and u unimodular.

    h is in row-echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot); zero rows come last.  h has the shape of
    a and u is square with a.rows rows.  `sparse_echelon` brings the rows to
    echelon form and `_hermite_rows` normalizes it from the last pivot up,
    reducing each row only against final rows and only at the pivot columns
    it holds.  The rows of u from rank(a) on are a basis of the left kernel
    of a.
    """
    nrows, ncols = a.shape
    pivots, knl = sparse_echelon(a._sparse, want_kernel=True)
    h, u = _hermite_rows(pivots)
    h.extend({} for _ in knl)
    return IntMatrix._of(h, ncols), IntMatrix._of(u + knl, nrows)


def row_span_hnf(a: IntMatrix) -> IntMatrix:
    """Canonical basis (Hermite form, zero rows dropped) of the row span.

    The same rows as the nonzero rows of `hermite_with_transform`, built
    without the transform.
    """
    pivots, _ = sparse_echelon(a._sparse)
    h, _ = _hermite_rows(pivots)
    return IntMatrix._of(h, a.cols)


def same_row_span(a: IntMatrix, b: IntMatrix) -> bool:
    if a.cols != b.cols:
        raise DimensionMismatch("ambient dimensions differ")
    return row_span_hnf(a) == row_span_hnf(b)


def row_span_contains(a: IntMatrix, vec: Sequence[int] | dict) -> bool:
    """Whether vec lies in the integer row span of a.

    vec is a dense sequence of a.cols entries or a sparse dict
    {column: coefficient} with columns in range(a.cols); either way its
    entries are coerced as by the IntMatrix constructor (`_int_row`), and
    zero values of a dict are dropped.  A wrong length or a column outside
    the range raises DimensionMismatch.  vec is reduced against the echelon
    rows of a, which have distinct leading columns and span the same
    lattice: it is a member iff each leading entry met is a multiple of that
    column's pivot and nothing is left.  The echelon is computed once per
    matrix and kept on it, so testing many vectors against one matrix costs
    one elimination.  A dict given as vec is only read.
    """
    if isinstance(vec, dict):
        columns = range(a.cols)
        if not all(type(c) is int and c in columns for c in vec):
            raise DimensionMismatch(f"sparse vector has a column outside range({a.cols})")
        v = {c: x for c, x in zip(vec, _int_row(vec.values())) if x}
    elif len(vec) != a.cols:
        raise DimensionMismatch("vector length differs from column count")
    else:
        v = _sparse(_int_row(vec))
    pivots = _pivots(a)
    while v:
        c = min(v)
        entry = pivots.get(c)
        if entry is None:
            return False
        prow = entry[0]
        q, r = divmod(v[c], prow[c])
        if r:
            return False
        _axpy(v, prow, -q)
    return True


def kernel(a: IntMatrix) -> IntMatrix:
    """Lattice basis (rows) of {x : a @ x == 0}, x a column vector."""
    return IntMatrix._of(sparse_left_kernel(_transpose_rows(a._sparse, a.cols)), a.cols)


def _is_diagonal(m: IntMatrix) -> bool:
    return all(row.keys() <= {i} for i, row in enumerate(m._sparse))


def _diagonalize(a: IntMatrix) -> tuple[list[int], list[dict], list[dict]]:
    """(diagonal, u rows, v-transpose rows) from alternating Hermite steps.

    A function of its own so that the matrices of the last step are freed
    before snf builds its result.  The first step on each side is that
    side's transform as it stands; later steps are composed onto it.  v
    transposed is the identity when no column step runs.
    """
    u = vt = None
    m = a
    while True:
        m, step = hermite_with_transform(m)
        u = list(step._sparse) if u is None else [_combination(r, u) for r in step._sparse]
        if _is_diagonal(m):
            break
        m, step = hermite_with_transform(m.transpose())
        vt = list(step._sparse) if vt is None else [_combination(r, vt) for r in step._sparse]
        m = m.transpose()
        if _is_diagonal(m):
            break
    if vt is None:
        vt = [{j: 1} for j in range(a.cols)]
    return [m._sparse[k].get(k, 0) for k in range(min(a.shape))], u, vt


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Alternates row Hermite reductions of the matrix and of its transpose (via
    `hermite_with_transform`) until it is diagonal; each round replaces a
    leading pivot by a divisor of it, or clears that pivot's row and column,
    so this terminates.  Nonzero diagonal entries come first.  Each pair
    (p, q) of them with p not dividing q is then replaced by (gcd, lcm); a
    factor 1 divides every other, so its pairs are skipped, and a diagonal of
    ones costs one pass, not one per pair.
    The transforms are kept as sparse rows of u and of v transposed, and the
    result is checked exactly: a CertificateError is raised unless
    u @ a @ v == diag(d).  d has min(a.rows, a.cols) entries; u is square of
    size a.rows and v of size a.cols.  Total on any matrix with at least one
    row and one column.
    """
    if a.rows == 0 or a.cols == 0:
        raise ValueError("snf needs at least one row and one column")
    nrows, ncols = a.shape
    d, u, vt = _diagonalize(a)
    r = sum(1 for x in d if x)
    for i in range(r):
        if d[i] == 1:
            continue  # 1 divides every later factor
        for j in range(i + 1, r):
            p, q = d[i], d[j]
            if q % p:
                # [[x, y], [-q/g, p/g]] diag(p, q) [[1, -y q/g], [1, x p/g]]
                # == diag(g, lcm), both transforms of determinant 1
                x, y, g = xgcd(p, q)
                d[i], d[j] = g, p // g * q
                u[i], u[j] = (
                    _combine(u[i], x, u[j], y),
                    _combine(u[i], -(q // g), u[j], p // g),
                )
                vt[i], vt[j] = (
                    _combine(vt[i], 1, vt[j], 1),
                    _combine(vt[i], -y * (q // g), vt[j], x * (p // g)),
                )
    v = _transpose_rows(vt, ncols)
    for i, urow in enumerate(u):
        expect = {i: d[i]} if i < len(d) and d[i] else {}
        if _combination(_combination(urow, a._sparse), v) != expect:
            raise CertificateError(f"snf postcondition violated: row {i} of u @ a @ v is not diagonal")
    return SnfResult(tuple(d), IntMatrix._of(u, nrows), IntMatrix._of(v, ncols))


def is_direct_summand(span_gens: IntMatrix, ambient_rank: int) -> bool:
    """Whether the row span L is a saturated submodule (a direct summand) of
    Z^ambient_rank, i.e. whether Z^ambient_rank / L is torsion-free.

    The echelon rows B of span_gens (memoized, shared with
    `row_span_contains`) are r = rank independent rows spanning L.  A
    transform-free echelon of the transpose brings it, by unimodular row
    operations U, to an r x r triangular block T over zero rows; then
    B @ U.T == [T.T | 0], so Z^n / L is isomorphic to Z^r / T.T Z^r plus
    Z^(n-r).  That is torsion-free iff |det T| == 1, iff every pivot of T is
    +-1.  The verdict is exact and equals "every nonzero Smith invariant
    factor is 1", without building a Smith form.
    """
    if span_gens.cols != ambient_rank:
        raise DimensionMismatch(
            f"generators live in Z^{span_gens.cols}, ambient is Z^{ambient_rank}"
        )
    echelon_rows = [row for row, _ in _pivots(span_gens).values()]
    triangle, _ = sparse_echelon(_transpose_rows(echelon_rows, ambient_rank))
    return all(abs(row[c]) == 1 for c, (row, _) in triangle.items())


def saturate(span_gens: IntMatrix, ambient_rank: int) -> IntMatrix:
    """Hermite basis of the smallest direct summand containing the row span.

    This is the Hermite basis of kernel(kernel(span_gens)): the vectors
    orthogonal to every integer solution of span_gens @ x == 0 are exactly
    the integral points of the rational row span, and an integer kernel is
    always saturated.  Returns a matrix with rank(span_gens) rows and
    ambient_rank columns.
    """
    if span_gens.cols != ambient_rank:
        raise DimensionMismatch(
            f"generators live in Z^{span_gens.cols}, ambient is Z^{ambient_rank}"
        )
    return row_span_hnf(kernel(kernel(span_gens)))


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Invariant factors of Z^cols / rowspan(a); rows are relations."""
    if a.rows == 0 or a.is_zero():
        return FgAbGroup(a.cols, ())
    res = snf(a)
    nonzero = res.nonzero_factors
    free = a.cols - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return FgAbGroup(free, torsion)
