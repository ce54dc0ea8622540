"""Free Lie algebra over Z with the Lyndon-word homogeneous basis.

Basis elements are Lyndon words with their standard (Chen-Fox-Lyndon)
bracketing; arbitrary brackets are rewritten into the basis through the
classical Jacobi recursion on standard factorizations.  Structure constants
are cached per algebra, so building an algebra once and sharing it is cheap
and safe (caches are only ever extended, never mutated in place).

Coordinates, for the whole package.  An element of the degree-d piece of
the free Lie algebra is a sparse dict {index in basis_words(d): coefficient}
(`FreeLieAlgebra.word_index`), and so is an element of the surface group's
graded quotient L, read modulo the degree's ideal rows (`surface`).  An
element of the enveloping quotient U is a sparse dict {reduced word:
coefficient} (`enveloping`).  Zero coefficients are never stored.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CertificateError, ResourceLimitExceeded
from .intlinalg import _axpy

# degree-d components beyond this dimension are outside desk scale
_DIMENSION_CAP = 50_000


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(n: int, degree: int) -> int:
    """Rank of the degree-d component: (1/d) * sum_{e|d} mu(e) n^(d/e)."""
    if n < 1 or degree < 1:
        raise ValueError("need n >= 1 and degree >= 1")
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * n ** (degree // e)
    return total // degree


def lyndon_words(n: int, degree: int) -> list[tuple[int, ...]]:
    """All Lyndon words of the given length over letters 0..n-1, by Duval's
    algorithm, in lexicographic order."""
    if n < 1 or degree < 1:
        raise ValueError("need n >= 1 and degree >= 1")
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == degree:
            out.append(tuple(w))
        while len(w) < degree:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()
    return out


class FreeLieAlgebra:
    """Handle fixing the alphabet size and the basis convention, with the
    per-degree bases and the bracket's structure constants."""

    basis_convention = "lyndon-standard-factorization"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one generator")
        self.n = n
        self._lyndon: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._stdfact: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._brackets: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}

    def __repr__(self):
        return f"FreeLieAlgebra(n={self.n}, basis={self.basis_convention!r})"

    def basis_words(self, degree: int) -> tuple[tuple[int, ...], ...]:
        cached = self._lyndon.get(degree)
        if cached is None:
            if witt_dimension(self.n, degree) > _DIMENSION_CAP:
                raise ResourceLimitExceeded(
                    f"degree-{degree} component over {self.n} letters is beyond desk scale"
                )
            cached = tuple(lyndon_words(self.n, degree))
            self._lyndon[degree] = cached
        return cached

    def word_index(self, degree: int) -> dict[tuple[int, ...], int]:
        """{word: position in basis_words(degree)}, built once per degree.

        The dict is shared by every caller: read it, never mutate it.
        """
        cached = self._index.get(degree)
        if cached is None:
            cached = {w: i for i, w in enumerate(self.basis_words(degree))}
            self._index[degree] = cached
        return cached

    def standard_factorization(self, word: tuple[int, ...]):
        """w = u v with v the lexicographically least proper suffix."""
        cached = self._stdfact.get(word)
        if cached is None:
            if len(word) < 2:
                raise CertificateError(f"a word of length {len(word)} has no standard factorization")
            best = 1
            for i in range(2, len(word)):
                if word[i:] < word[best:]:
                    best = i
            cached = (word[:best], word[best:])
            self._stdfact[word] = cached
        return cached

    def _is_standard_pair(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        # for Lyndon u < v the word uv is Lyndon; (u, v) is its standard
        # factorization iff u is a letter or u's right factor is >= v
        return len(u) == 1 or self.standard_factorization(u)[1] >= v

    def bracket_words(self, u: tuple[int, ...], v: tuple[int, ...]) -> dict:
        """[P(u), P(v)] in basis coordinates, as a dict {word: coeff}."""
        if u == v:
            return {}
        if v < u:
            return {w: -c for w, c in self.bracket_words(v, u).items()}
        key = (u, v)
        cached = self._brackets.get(key)
        if cached is not None:
            return cached
        if self._is_standard_pair(u, v):
            result = {u + v: 1}
        else:
            u1, u2 = self.standard_factorization(u)
            # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
            result = {}
            for w, c in self.bracket_words(u2, v).items():
                _axpy(result, self.bracket_words(u1, w), c)
            for w, c in self.bracket_words(u1, v).items():
                _axpy(result, self.bracket_words(u2, w), -c)
        self._brackets[key] = result
        return result


@lru_cache(maxsize=None)
def _shared_algebra(n: int) -> FreeLieAlgebra:
    return FreeLieAlgebra(n)


def free_lie_algebra(n: int) -> FreeLieAlgebra:
    """Process-wide shared handle (idempotent, safe under concurrent first use)."""
    return _shared_algebra(n)
