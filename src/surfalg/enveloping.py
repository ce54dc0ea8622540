"""The associative quotient carrying the graded Lie algebra's enveloping structure.

The free associative algebra on the 2g letters a1, b1, ..., ag, bg is divided
by the two-sided ideal generated by sum_i (a_i b_i - b_i a_i).  Under the
degree-lexicographic order with a1 < b1 < ... < ag < bg the relation's leading
word is bg*ag, giving a single degree-preserving rewrite rule with no
self-overlap; leftmost rewriting to a fixed point is therefore confluent and
normal forms decide congruence.  Elements are dicts {reduced word:
coefficient}, as the `freelie` module docstring sets out.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import intlinalg
from ._kernel import mul_letter, mul_reduce
from .errors import CertificateError, ResourceLimitExceeded

_DIMENSION_CAP = 100_000


def letter_name(index: int) -> str:
    """Project-wide letter naming: 2k -> a_{k+1}, 2k+1 -> b_{k+1}, the basis
    order of H fixed in the `symplectic` module docstring."""
    return f"{'ab'[index % 2]}{index // 2 + 1}"


def _deglex_key(word: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (len(word), word)


class _RewriteRing:
    """One rewrite rule lead -> rhs over the kernel, with its memo.

    The relation is a polynomial whose leading word `lead` carries
    coefficient -1, so lead equals the rest of it.  Words longer than
    `max_len` vanish (-1: no cutoff), and a max_degree of -1 means max_len.
    The memo is keyed by (rule, max_len), which is fixed per instance.
    """

    def __init__(self, lead: tuple[int, int], relation: dict, max_len: int):
        self.lead = lead
        rhs = [(w, c) for w, c in relation.items() if w != lead]
        self.rhs_words = tuple(w for w, _ in rhs)
        self.rhs_coeffs = tuple(c for _, c in rhs)
        self.max_len = max_len
        self._memo: dict = {}

    def mul_raw(self, a: dict, b: dict, max_degree: int = -1) -> dict:
        return mul_reduce(
            a, b, max_degree, self.lead[0], self.lead[1],
            self.rhs_words, self.rhs_coeffs, self._memo, self.max_len,
        )

    def mul_letter_raw(self, terms: dict, letter: int, on_left: bool, max_degree: int = -1) -> dict:
        """letter*terms (on_left) or terms*letter for reduced terms and a
        0-based letter index."""
        return mul_letter(
            terms, letter, on_left, max_degree, self.lead[0], self.lead[1],
            self.rhs_words, self.rhs_coeffs, self._memo, self.max_len,
        )


class EnvelopingAlgebra(_RewriteRing):
    """Rewriting handle for one genus; holds the shared reduction memo."""

    def __init__(self, genus: int):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        self.genus = genus
        self.n_letters = 2 * genus
        relation = {}
        for k in range(genus):
            relation[(2 * k, 2 * k + 1)] = 1
            relation[(2 * k + 1, 2 * k)] = -1
        self.relation = relation
        lead = max(relation, key=_deglex_key)
        if relation[lead] != -1:
            raise CertificateError("the leading word must carry coefficient -1")
        super().__init__(lead, relation, -1)
        self._words_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._check_rewriting_system()

    def _check_rewriting_system(self):
        # degree-preserving, strictly decreasing, and overlap-free: these are
        # exactly the hypotheses that make the single rule confluent
        lead = self.lead
        if any(len(w) != len(lead) for w in self.rhs_words):
            raise CertificateError("the rewrite rule does not preserve degree")
        if any(_deglex_key(w) >= _deglex_key(lead) for w in self.rhs_words):
            raise CertificateError("the rewrite rule does not decrease words")
        for cut in range(1, len(lead)):
            if lead[-cut:] == lead[:cut]:
                raise CertificateError("leading word overlaps itself")

    def __repr__(self):
        return f"EnvelopingAlgebra(genus={self.genus})"

    # -- reduced-word bases --------------------------------------------------

    def reduced_words(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All normal-form words of the given length, lexicographically.

        Each degree extends the cached words one degree shorter by one letter,
        dropping the leading word at the new junction.  The shorter words are
        in lexicographic order and each is extended by letters in increasing
        order, so the result is in lexicographic order too.
        """
        cached = self._words_cache.get(degree)
        if cached is not None:
            return cached
        if hilbert_dimension(self.genus, degree) > _DIMENSION_CAP:
            raise ResourceLimitExceeded(
                f"degree-{degree} reduced basis at genus {self.genus} is beyond desk scale"
            )
        if degree == 0:
            cached = ((),)
        else:
            l0, l1 = self.lead
            letters = tuple(range(self.n_letters))
            after_l0 = tuple(x for x in letters if x != l1)
            cached = tuple(
                w + (x,)
                for w in self.reduced_words(degree - 1)
                for x in (after_l0 if w[-1:] == (l0,) else letters)
            )
        self._words_cache[degree] = cached
        return cached

    def word_index(self, degree: int) -> dict:
        return {w: i for i, w in enumerate(self.reduced_words(degree))}


@lru_cache(maxsize=None)
def enveloping_algebra(genus: int) -> EnvelopingAlgebra:
    """Shared handle per genus (the reduction memo is expensive to rebuild)."""
    return EnvelopingAlgebra(genus)


def hilbert_dimension(genus: int, degree: int) -> int:
    """Count of reduced words of the given length.

    Satisfies c_d = 2g*c_{d-1} - c_{d-2}: a reduced word is any letter
    followed by a reduced word, minus the corrections from the forbidden
    factor, which biject with reduced words two letters shorter.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n = 2 * genus
    prev2, prev1 = 1, n
    if degree == 0:
        return prev2
    if degree == 1:
        return prev1
    for _ in range(degree - 1):
        prev2, prev1 = prev1, n * prev1 - prev2
    return prev1


class _CommutatorRows:
    """The rows w -> w*x - x*w of one letter x, each built when looked up.

    Keyed by the position of w in `words`, a tuple of reduced words of one
    degree; each row is a dict over the product words.  A reduced word meets
    the rewrite rule only at its junction with x, so only a row whose w*x ends
    in the leading word, or whose x*w starts with it, goes through the
    rewrite kernel; every other row is w*x minus x*w as they stand.
    """

    def __init__(self, algebra: EnvelopingAlgebra, words: tuple, letter: int):
        self.algebra = algebra
        self.words = words
        self.letter = letter

    def __getitem__(self, i: int) -> dict:
        alg, w, x = self.algebra, self.words[i], self.letter
        l0, l1 = alg.lead
        if (w[-1] == l0 and x == l1) or (x == l0 and w[0] == l1):
            row = alg.mul_letter_raw({w: 1}, x, False)
            intlinalg._axpy(row, alg.mul_letter_raw({w: 1}, x, True), -1)
            return row
        wx, xw = w + (x,), (x,) + w
        return {wx: 1, xw: -1} if wx != xw else {}


def center_in_degree_assoc(genus: int, degree: int) -> list[dict]:
    """Basis of degree-d elements commuting with every generator, as sparse
    rows {position in reduced_words(d): coefficient}.

    Each letter x gives one map into degree d+1, w -> w*x - x*w on the
    reduced words, and the basis is their common integer left kernel; the
    maps are taken one at a time and stop once the kernel is empty.  A map's
    columns are the degree-(d+1) product words themselves: words of one
    length compare lexicographically, the order of `reduced_words`, so the
    echelon meets the same pivots as on column indices, and the degree-(d+1)
    basis is never built.  A map's rows are built lazily (`_CommutatorRows`),
    only for the words in the support of the kernel basis that reaches it:
    the first letter needs every row, and it leaves a single kernel vector,
    a1^d, in every case tried (g = 2..5, d <= 5).  So the cap reads the size
    of the degree-d basis, one first-letter row per word.  Empty for d >= 1
    is the degreewise shadow of the quotient having scalar center.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    alg = enveloping_algebra(genus)
    if hilbert_dimension(genus, degree) > _DIMENSION_CAP:
        raise ResourceLimitExceeded(
            f"center system at genus {genus}, degree {degree} is beyond desk scale"
        )
    basis = alg.reduced_words(degree)
    maps = (_CommutatorRows(alg, basis, x) for x in range(alg.n_letters))
    return intlinalg.common_left_kernel(len(basis), maps)


def series_product(rank_by_degree: dict, max_degree: int) -> list[int]:
    """Coefficients through t^K of prod_k (1 - t^k)^(-r_k)."""
    coeffs = [1] + [0] * max_degree
    for k, r in sorted(rank_by_degree.items()):
        if k > max_degree or r == 0:
            continue
        # multiply by (1 - t^k)^(-r) = sum_j C(j + r - 1, j) t^(jk)
        factor = [0] * (max_degree + 1)
        for j in range(max_degree // k + 1):
            factor[j * k] = comb(j + r - 1, j)
        new = [0] * (max_degree + 1)
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            for j in range(0, max_degree + 1 - i):
                if factor[j]:
                    new[i + j] += ci * factor[j]
        coeffs = new
    return coeffs


def target_series(genus: int, max_degree: int) -> list[int]:
    """Coefficients through t^K of 1 / (1 - 2g t + t^2)."""
    return [hilbert_dimension(genus, d) for d in range(max_degree + 1)]


def lcs_ranks(genus: int, max_degree: int) -> list[int]:
    """Ranks r_1..r_K of the lower-central-series quotients in closed form.

    They are the unique solution of prod_k (1 - t^k)^(-r_k) = 1 / (1 - 2g t
    + t^2) through t^K (Labute, J. Algebra 14, 1970).  The t^k coefficient of
    the product is r_k plus that of the factors below k, so each r_k is
    peeled off in turn.  No graded algebra is built.
    """
    target = target_series(genus, max_degree)
    ranks: dict[int, int] = {}
    for k in range(1, max_degree + 1):
        ranks[k] = target[k] - series_product(ranks, k)[k]
    return list(ranks.values())
