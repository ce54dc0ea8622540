"""Exact arithmetic in nilpotent quotients of a closed surface group.

Group words on the 2g letters expand, letter by letter, into the degree-K
truncation of the integral group ring: a generator goes to 1 + x and an
inverse to the truncated geometric series.  The expansion identifies the
truncated free-group ring with the truncated tensor algebra, so the surface
relation becomes the single rewrite rule bg*ag -> (lower two-letter words)
+ (the relator expansion's higher tail).  That rule has the same leading word
as the graded quotient, no self-overlaps, and strictly decreases a
shorter-word-is-bigger order, so normal forms are unique, the relator reduces
to 1 at every truncation (the keystone self-test checks this), and the
expansion descends to the surface group.  Words are then equal modulo the
(k+1)st lower-central term exactly when their expansions agree through degree
k: one direction is structural (iterated commutators expand to 1 + higher
order), the converse is certified by the rank certificates below.

The graded pieces of this filtered model are the graded quotient's reduced
words, which is why the two modules share their word bases.

The ring multiplies by an expansion E(w) in one way and divides by it in
one way.  `_times` forms the product with E(w) - 1: by the kernel's
`mul_letter` for a generator, which rewrites only at the junction of a
reduced word and the letter, and by a truncated `mul_reduce` otherwise.
`_divide` forms acc*E(w)^-1 as the Y with Y + Y*(E(w) - 1) = acc, solved
degree by degree, so no inverse series is formed.  A generator step of an
expansion is acc + acc*x, and an inverse step divides by the letter.  A
commutator [x, y] expands as 1 + (XY - YX) X^-1 Y^-1: the defect XY - YX,
divided by X and then by Y.  If the defect starts in degree K, no product
is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import intlinalg
from .enveloping import _RewriteRing, enveloping_algebra, hilbert_dimension, letter_name
from .errors import CertificateError, ResourceLimitExceeded
from .freelie import free_lie_algebra

_DIMENSION_CAP = 100_000


class GroupWord:
    """Freely reduced word over a1, b1, ..., ag, bg and their inverses.

    Letters are nonzero ints: +(i+1) is the generator with project letter
    index i, negative its inverse.  No adjacent inverse pairs survive
    construction.  The public constructor coerces the letters by
    `intlinalg._int_word` (a string word is refused whole, a non-string
    letter that int() would change is refused), checks the alphabet and
    reduces fully; `GroupWord._of` skips all of it and is only
    for letters that are already reduced, as products and inverses of
    reduced words are.
    """

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: Iterable[int] = ()):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        stack: list[int] = []
        for l in intlinalg._int_word(letters):
            if l == 0 or abs(l) > 2 * genus:
                raise ValueError(f"letter {l} outside the alphabet of genus {genus}")
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
        self.genus = genus
        self.letters = tuple(stack)

    @classmethod
    def _of(cls, genus: int, letters: tuple[int, ...]) -> "GroupWord":
        """Wrap a tuple of freely reduced letters of the genus, unchecked."""
        w = object.__new__(cls)
        w.genus = genus
        w.letters = letters
        return w

    @classmethod
    def generator(cls, genus: int, index: int) -> "GroupWord":
        """Generator for the 0-based project letter index."""
        if not 0 <= index < 2 * genus:
            raise ValueError(f"letter index {index} outside 0..{2 * genus - 1}")
        return cls(genus, (index + 1,))

    def _check_same(self, other: "GroupWord"):
        if self.genus != other.genus:
            raise ValueError("words over different alphabets")

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        """Concatenation; both factors are reduced, so only the letters
        meeting at the junction can cancel."""
        self._check_same(other)
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return GroupWord._of(self.genus, a[: len(a) - k] + b[k:])

    def inverse(self) -> "GroupWord":
        return GroupWord._of(self.genus, tuple(-l for l in reversed(self.letters)))

    def commutator(self, other: "GroupWord") -> "GroupWord":
        return self * other * self.inverse() * other.inverse()

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and self.genus == other.genus
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.genus, self.letters))

    def __repr__(self):
        if not self.letters:
            return "GroupWord(1)"
        bits = [
            letter_name(abs(l) - 1) + ("" if l > 0 else "^-1") for l in self.letters
        ]
        return "GroupWord(" + "*".join(bits) + ")"


def generators(genus: int) -> list[GroupWord]:
    return [GroupWord.generator(genus, i) for i in range(2 * genus)]


def surface_relator(genus: int) -> GroupWord:
    """prod_i [a_i, b_i]."""
    out = GroupWord(genus)
    for k in range(genus):
        out = out * GroupWord.generator(genus, 2 * k).commutator(
            GroupWord.generator(genus, 2 * k + 1)
        )
    return out


def _generator_letter(word: GroupWord) -> int | None:
    """The 0-based letter index of a word that is a single generator, else None."""
    if len(word.letters) == 1 and word.letters[0] > 0:
        return word.letters[0] - 1
    return None


def _free_mul(a: dict, b: dict, max_degree: int) -> dict:
    """Truncated product in the free tensor algebra (no rewriting)."""
    out: dict = {}
    for wa, ca in a.items():
        room = max_degree - len(wa)
        intlinalg._axpy(out, {wa + wb: cb for wb, cb in b.items() if len(wb) <= room}, ca)
    return out


class GroupRingTruncation(_RewriteRing):
    """The integral group ring of the surface group modulo degree > K.

    Identifying the truncated free-group ring with the truncated tensor
    algebra via x -> 1 + x turns the relation into the rewrite rule described
    in the module docstring.  The rule's two-letter part is the graded
    relation; its tail is the relator expansion's higher part, so reduction
    here refines the graded reduction degree by degree.  The kernel calls
    (`mul_raw`, `mul_letter_raw`) are the enveloping algebra's, with words
    longer than K dropped.
    """

    def __init__(self, genus: int, truncation: int):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        if hilbert_dimension(genus, truncation) > _DIMENSION_CAP:
            raise ResourceLimitExceeded(
                f"truncation {truncation} at genus {genus} is beyond desk scale"
            )
        self.genus = genus
        self.truncation = truncation
        self.graded = enveloping_algebra(genus)
        if truncation == 1:
            # no two-letter words exist, so the rule below can never fire;
            # keep the graded relation as an inert placeholder
            defect = dict(self.graded.relation)
        else:
            # in the free algebra: 1 + x for a generator, the truncated
            # geometric series 1 - x + x^2 - ... for an inverse
            relator_image = {(): 1}
            for l in surface_relator(genus).letters:
                i = abs(l) - 1
                if l > 0:
                    series = {(): 1, (i,): 1}
                else:
                    series = {(i,) * j: (-1) ** j for j in range(truncation + 1)}
                relator_image = _free_mul(relator_image, series, truncation)
            defect = dict(relator_image)
            intlinalg._axpy(defect, {(): 1}, -1)
            # the two-letter part of the defect is the graded relation, with
            # the leading word carrying coefficient -1
            if {w: c for w, c in defect.items() if len(w) == 2} != self.graded.relation:
                raise CertificateError("relator defect differs from the graded relation")
            if any(len(w) < 2 for w in defect):
                raise CertificateError("relator defect has a term below degree two")
        super().__init__(self.graded.lead, defect, truncation)
        self._words: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._cache: dict[tuple[int, ...], dict] = {}

    def __repr__(self):
        return f"GroupRingTruncation(genus={self.genus}, K={self.truncation})"

    def reduced_words(self, degree: int):
        return self.graded.reduced_words(degree)

    def word_index(self, degree: int):
        return self.graded.word_index(degree)

    # -- expansion -----------------------------------------------------------

    def expand_raw(self, word: GroupWord) -> dict:
        if word.genus != self.genus:
            raise ValueError("word over a different alphabet")
        cached = self._cache.get(word.letters)
        if cached is not None:
            return cached
        acc = {(): 1}
        for l in word.letters:
            if l > 0:
                step = self.mul_letter_raw(acc, l - 1, False)
                intlinalg._axpy(step, acc, 1)
                acc = step
            else:
                acc = self._divide(acc, GroupWord._of(self.genus, (-l,)))
        self._cache[word.letters] = acc
        return acc

    def expand(self, word: GroupWord) -> "MagnusSeries":
        return MagnusSeries(self, self.expand_raw(word))

    def _times(self, terms: dict, w: GroupWord, on_left: bool, cap: int) -> dict:
        """(E(w) - 1)*terms (on_left) or terms*(E(w) - 1) for reduced terms,
        product words cut at cap: one letter product for a generator w, a
        truncated product with the non-constant part of E(w) otherwise."""
        letter = _generator_letter(w)
        if letter is not None:
            return self.mul_letter_raw(terms, letter, on_left, cap)
        # a word of E(w) longer than room makes every product overflow cap
        room = cap - min(map(len, terms), default=0)
        step = {v: c for v, c in self.expand_raw(w).items() if v and len(v) <= room}
        return self.mul_raw(step, terms, cap) if on_left else self.mul_raw(terms, step, cap)

    def _divide(self, acc: dict, w: GroupWord) -> dict:
        """acc * E(w)^-1 for reduced acc: the Y with Y + Y*(E(w) - 1) = acc.

        E(w) - 1 has no constant term and reduction never shortens a word,
        so Y*(E(w) - 1) raises every degree by at least one, and Y's degree-d
        part is acc's minus the degree-d part of Y*(E(w) - 1) from the
        degrees below.  The terms are bucketed by degree, and each bucket is
        multiplied once, when it is final.  No inverse series is formed, and
        when acc has no term below degree K no product is formed at all: acc
        itself is returned.
        """
        k = self.truncation
        if min(map(len, acc), default=k) == k:
            return acc
        buckets: list[dict] = [{} for _ in range(k + 1)]
        for v, c in acc.items():
            buckets[len(v)][v] = c
        out: dict = {}
        for d, part in enumerate(buckets):
            if not part:
                continue
            out.update(part)
            if d < k:
                for v, c in self._times(part, w, False, k).items():
                    bucket = buckets[len(v)]
                    val = bucket.get(v, 0) - c
                    if val:
                        bucket[v] = val
                    else:
                        del bucket[v]
        return out

    def defect_raw(self, x: GroupWord, y: GroupWord, degree: int | None = None) -> dict:
        """XY - YX for X = E(x) and Y = E(y), through the given degree.

        The constant terms' products cancel, so XY - YX = X(Y-1) - (Y-1)X,
        two products by an expansion (`_times`).  When x is a generator the
        roles swap, XY - YX = (X-1)Y - Y(X-1), so that the products are by a
        letter.  When neither is a generator, X's constant term is dropped
        too: its products would cost a pass over Y - 1 each.  With a degree d
        below the truncation, product words longer than d are dropped before
        reduction and the result is cut to degree d.  Reduction never
        shortens a word, so that equals the full defect truncated to degree d.
        """
        k = self.truncation
        cap = k if degree is None else min(degree, k)
        on_left = _generator_letter(x) is not None
        if on_left:
            x, y = y, x
        terms = self.expand_raw(x)
        if _generator_letter(y) is None:
            terms = {w: c for w, c in terms.items() if w}
        out = self._times(terms, y, on_left, cap)
        intlinalg._axpy(out, self._times(terms, y, not on_left, cap), -1)
        if cap < k:
            out = {w: c for w, c in out.items() if len(w) <= cap}
        return out

    def commutator_raw(self, x: GroupWord, y: GroupWord) -> dict:
        """Expansion of [x, y] = x y x^-1 y^-1 from the cached expansions.

        With X = E(x) and Y = E(y), E([x, y]) = 1 + (XY - YX) X^-1 Y^-1,
        since (XY - YX) X^-1 Y^-1 = XY X^-1 Y^-1 - 1.  So [x, y] expands to 1
        exactly when the defect XY - YX (`defect_raw`) vanishes.  For x in
        the jth and y in the ith lower-central term, X - 1 and Y - 1 start in
        degrees j and i, so the defect and [x, y] - 1 start in degree i + j,
        as the filtration demands.

        The defect is divided by X, then by Y (`_divide`).  A product of a
        degree-m term with X - 1 or Y - 1 lies past the truncation once
        m = K, so a defect that starts in degree K forms no product at all.
        Letter products make a new tuple per word, so the result's words are
        interned per ring (`_words`): equal words of all the commutator
        expansions share one tuple.
        """
        defect = self.defect_raw(x, y)
        if not defect:
            return {(): 1}
        intern = self._words.setdefault
        out = {intern(w, w): c for w, c in self._divide(self._divide(defect, x), y).items()}
        out[()] = 1  # the defect has no constant term, so neither has out
        return out


@lru_cache(maxsize=None)
def group_ring_truncation(genus: int, truncation: int) -> GroupRingTruncation:
    """Shared handle per (genus, K); expansion caches are reused process-wide."""
    return GroupRingTruncation(genus, truncation)


class MagnusSeries:
    """Degree-truncated expansion of a group word, constant term exactly 1."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: GroupRingTruncation, terms: dict):
        if terms.get((), 0) != 1:
            raise ValueError("expansion must have constant coefficient exactly 1")
        self.ring = ring
        self._terms = {w: c for w, c in terms.items() if c and len(w) <= ring.truncation}

    @property
    def truncation(self) -> int:
        return self.ring.truncation

    def is_one(self) -> bool:
        return self._terms == {(): 1}

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if self.ring is not other.ring:
            raise ValueError("mismatched truncations")
        return MagnusSeries(self.ring, self.ring.mul_raw(self._terms, other._terms))

    def __eq__(self, other):
        return (
            isinstance(other, MagnusSeries)
            and self.ring is other.ring
            and self._terms == other._terms
        )

    def __repr__(self):
        return f"MagnusSeries(K={self.truncation}, {len(self._terms)} terms)"


def expand(word: GroupWord, truncation: int) -> MagnusSeries:
    """Multiplicative degree-truncated expansion; the identity goes to 1."""
    return group_ring_truncation(word.genus, truncation).expand(word)


def equal_in_quotient(u: GroupWord, v: GroupWord, k: int) -> bool:
    """Whether u and v agree modulo the (k+1)st lower-central-series term."""
    u._check_same(v)
    ring = group_ring_truncation(u.genus, k)
    return ring.expand(u * v.inverse()).is_one()


@lru_cache(maxsize=None)
def _hall_table(genus: int):
    """The free Lie algebra on the 2g letters and the genus's realized Hall
    words, {Lyndon word: GroupWord}, filled lazily by `_hall_word`."""
    return free_lie_algebra(2 * genus), {}


def _hall_word(genus: int, word: tuple[int, ...]) -> GroupWord:
    """Hall word of a Lyndon word: its generator for a letter, else the
    commutator [u, v] of its standard factors' Hall words, built once."""
    fl, table = _hall_table(genus)
    out = table.get(word)
    if out is None:
        if len(word) == 1:
            out = GroupWord.generator(genus, word[0])
        else:
            u, v = fl.standard_factorization(word)
            out = _hall_word(genus, u).commutator(_hall_word(genus, v))
        table[word] = out
    return out


def _seed(genus: int, word: tuple[int, ...], ring: GroupRingTruncation) -> GroupWord:
    """Hall word of a Lyndon word, with its expansion in ring's cache.

    An uncached [u, v] is expanded by commutator_raw from the expansions of
    u and v, seeded first; an expansion already cached is left as it is.
    """
    x = _hall_word(genus, word)
    if len(word) > 1 and x.letters not in ring._cache:
        u, v = _hall_table(genus)[0].standard_factorization(word)
        ring._cache[x.letters] = ring.commutator_raw(_seed(genus, u, ring), _seed(genus, v, ring))
    return x


def _realize_hall_words(genus: int, degree: int, ring: GroupRingTruncation) -> list[GroupWord]:
    """Commutator words of the degree-d bracketings, in basis order.

    Each Hall word is built once per genus (`_hall_word`) and shared by every
    caller and every ring.  Every commutator met in the bracketing is also
    expanded in ring (`_seed`), so expand_raw on the returned words is a
    cache hit.
    """
    return [_seed(genus, w, ring) for w in _hall_table(genus)[0].basis_words(degree)]


@dataclass(frozen=True)
class LayerVerdict:
    """Commutation status of one lower-central layer inside the quotient."""

    layer: int
    spanning_count: int
    central_count: int

    @property
    def centralizes(self) -> bool:
        return self.central_count == self.spanning_count


@dataclass(frozen=True)
class QuotientCenterReport:
    genus: int
    nilpotency_class: int
    layers: tuple[LayerVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(
            v.centralizes == (v.layer == self.nilpotency_class) for v in self.layers
        )


def center_of_quotient(genus: int, k: int) -> QuotientCenterReport:
    """Which lower-central layers centralize the class-k quotient.

    Spanning cosets of each layer j <= k, realized as commutator words, are
    tested against all 2g generators modulo the (k+1)st term.  Passing means
    exactly the top layer j = k centralizes.  The verdicts use the Magnus
    expansions alone; no graded algebra is built.

    A word x commutes with y in the quotient exactly when the defect
    E(x)E(y) - E(y)E(x) vanishes through degree k; for x in layer j it
    starts in degree j + 1.  Reduction never shortens a word, so the defect
    cut at a degree d < k is the full defect truncated to degree d, and a
    nonzero cut already proves non-centrality.  Each word below layer k - 1
    is therefore first tested at degree j + 1; only a word that no generator
    witnesses there is tested at the full degree k, so central_count stays
    exact.  A top-layer word passes the layer check only with no term below
    degree k, so its defects start in degree k + 1 and it is counted central
    with no product formed.
    """
    if k < 2:
        raise ValueError("the class-1 quotient is abelian; need k >= 2")
    ring = group_ring_truncation(genus, k)
    gens = generators(genus)
    verdicts = []
    for j in range(1, k + 1):
        spanning = _realize_hall_words(genus, j, ring)
        central = 0
        for x in spanning:
            if any(w and len(w) < j for w in ring.expand_raw(x)):
                raise CertificateError(f"commutator word expands below its layer {j}")
            if j == k:
                # no term below degree k, so every defect starts past the truncation
                central += 1
                continue
            if j + 1 < k and any(ring.defect_raw(x, y, j + 1) for y in gens):
                continue
            if not any(ring.defect_raw(x, y) for y in gens):
                central += 1
        verdicts.append(LayerVerdict(j, len(spanning), central))
    return QuotientCenterReport(genus, k, tuple(verdicts))


@dataclass(frozen=True)
class RankCertificate:
    """Rank of the degree-k leading coefficients of the layer's expansions.

    Equality with the graded rank (for example `enveloping.lcs_ranks`)
    certifies that the expansion separates classes at this level: the
    spanning commutator words hit a module of full graded rank, so no class
    collapses invisibly.  The caller makes that comparison.
    """

    genus: int
    level: int
    word_count: int
    rank: int


def graded_rank_certificate(genus: int, level: int) -> RankCertificate:
    if level < 1:
        raise ValueError("level must be at least 1")
    ring = group_ring_truncation(genus, level)
    words = _realize_hall_words(genus, level, ring)
    index = ring.word_index(level)
    rows = []
    for w in words:
        series = ring.expand_raw(w)
        if any(ww and len(ww) != level for ww in series):
            raise CertificateError(f"lower-degree term in a layer-{level} word")
        rows.append({index[ww]: c for ww, c in series.items() if ww})
    got = intlinalg.sparse_rank(rows)
    return RankCertificate(genus, level, len(words), got)


def verify_identity_viii(p: GroupWord, gw: GroupWord, n: GroupWord) -> bool:
    """Free-word identity splitting [p*gw, n] into a conjugated piece and a
    commutator piece: both sides must freely reduce to the same word."""
    p._check_same(gw)
    p._check_same(n)
    lhs = (p * gw).commutator(n)
    first = p * gw * n * p.inverse() * n.inverse() * p * gw.inverse() * p.inverse()
    conj = p * gw * p.inverse()
    second = conj * n * conj.inverse() * n.inverse()
    return lhs == first * second
