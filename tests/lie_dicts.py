"""Free Lie elements as word dicts, the tests' route for their oracles.

An element here is a zero-free dict {Lyndon word: coefficient}, of any mix of
degrees; the bracket goes term by term through
`FreeLieAlgebra.bracket_words`, and a word's bracketing tree comes from its
standard factorization.  The package itself works on index rows (the
`freelie` module docstring), so these dicts give its index-coordinate code an
independent reference.
"""

from surfalg import intlinalg


def combination(*terms):
    """sum of c * x over the (x, c) pairs; zero coefficients in x are
    dropped."""
    out = {}
    for x, c in terms:
        intlinalg._axpy(out, {w: a for w, a in x.items() if a}, c)
    return out


def letter(i):
    return {(i,): 1}


def bracket(fl, x, y):
    """[x, y] in the free Lie algebra fl."""
    out = {}
    for wa, ca in x.items():
        for wb, cb in y.items():
            intlinalg._axpy(out, fl.bracket_words(wa, wb), ca * cb)
    return out


def omega(fl, g):
    """sum_k [a_k, b_k], bracketed from the letters."""
    return combination(*((bracket(fl, letter(2 * k), letter(2 * k + 1)), 1) for k in range(g)))


def bracketing(fl, word):
    """The binary bracketing tree of a Lyndon word, ints at the leaves."""
    if len(word) == 1:
        return word[0]
    u, v = fl.standard_factorization(word)
    return (bracketing(fl, u), bracketing(fl, v))


def row(fl, d, x):
    """The degree-d part of x as an index row over fl.basis_words(d)."""
    index = fl.word_index(d)
    return {index[w]: c for w, c in x.items() if len(w) == d}


def element(fl, d, r):
    """The index row r over fl.basis_words(d) as a word dict."""
    words = fl.basis_words(d)
    return {words[j]: c for j, c in r.items() if c}


def project(alg, x, d):
    """Quotient coordinates of x's degree-d part, dense, through the
    algebra's reduction."""
    data = alg.degree_data(d)
    reduced = alg._reduce(d, row(alg.free, d, x))
    return intlinalg._dense_row({data.basis_index[j]: c for j, c in reduced.items()}, data.rank)


def lift(alg, d, coords):
    """The free-Lie representative of dense quotient coordinates, read as
    `intlinalg._int_row` reads a row."""
    columns = alg.degree_data(d).basis_columns
    return element(alg.free, d, dict(zip(columns, intlinalg._int_row(coords), strict=True)))
