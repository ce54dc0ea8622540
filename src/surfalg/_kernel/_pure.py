"""Pure-Python noncommutative rewrite kernel.

Words are tuples of small ints, coefficients are arbitrary-precision ints,
polynomials are dicts word -> coeff with no zero values.  The single rewrite
rule sends the two-letter word (lead0, lead1) to the polynomial given by
parallel tuples rhs_words / rhs_coeffs.  Replacement words are either two
letters and lexicographically below the leading word, or strictly longer (an
inhomogeneous tail); with max_len >= 0 words beyond that length are dropped,
which makes leftmost rewriting terminating, and the leading word never
overlaps itself, so the normal form is unique.

No work is done past max_len: a replacement that would make the word longer
than max_len is skipped, not rewritten to nothing, and mul_reduce never forms
a product word longer than max_len.  A word longer than max_len reduces to the
empty polynomial without a memo entry, so the memo holds only words of length
at most max_len.

Inputs need not be reduced: reduce_terms and mul_reduce reduce every word
they meet.  mul_reduce groups its second factor's words by length once per
call, so under a degree cap it visits only the pairs of lengths the cap
admits.

mul_letter multiplies a polynomial by one letter, on either side, and is the
exception: its input must already be reduced.  A reduced word w can then meet
the leading word only at the junction with the letter x, so w*x goes through
reduce_word only when (w[-1], x) is the leading pair, and x*w only when
(x, w[0]) is; every other product word is already in normal form and is
appended as it is.

Callers own the memo dict and must key it per (rule, max_len); the same memo
may be shared across calls only when those two are fixed.
"""

IMPLEMENTATION = "pure"


def reduce_word(word, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    """Normal form of a single word as a dict {word: coeff}.

    Callers must not mutate the returned dicts.
    """
    cached = memo.get(word)
    if cached is not None:
        return cached
    if 0 <= max_len < len(word):
        return {}
    pos = -1
    for i in range(len(word) - 1):
        if word[i] == lead0 and word[i + 1] == lead1:
            pos = i
            break
    if pos < 0:
        result = {word: 1}
    else:
        pre = word[:pos]
        suf = word[pos + 2 :]
        # pre + rw + suf has len(word) - 2 + len(rw) letters: skip an rw
        # longer than room, whose replacement would exceed max_len
        room = max_len - len(word) + 2
        acc = {}
        for rw, rc in zip(rhs_words, rhs_coeffs):
            if 0 <= max_len and room < len(rw):
                continue
            part = reduce_word(
                pre + rw + suf, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
            )
            # inline, not intlinalg._axpy: a call per word cost ~3% wall on graded-g2k6 and magnus-g2k6
            for w2, c2 in part.items():
                val = acc.get(w2, 0) + rc * c2
                if val:
                    acc[w2] = val
                else:
                    del acc[w2]
        result = acc
    memo[word] = result
    return result


def reduce_terms(terms, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    """Normal form of a polynomial given as a dict {word: coeff}."""
    acc = {}
    for w, c in terms.items():
        if not c:
            continue
        # inline, not intlinalg._axpy: a call per word cost ~3% wall on graded-g2k6 and magnus-g2k6
        for w2, c2 in reduce_word(
            w, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
        ).items():
            val = acc.get(w2, 0) + c * c2
            if val:
                acc[w2] = val
            else:
                acc.pop(w2, None)
    return acc


def mul_reduce(a, b, max_degree, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1):
    """Reduced truncated product of two polynomials.

    The inputs need not be reduced.  Product words longer than max_degree are
    dropped before reduction (pass a negative max_degree for no truncation);
    max_len is the rewrite cutoff and must match the memo's.  A word longer
    than max_len reduces to nothing, so with max_len >= 0 the cap is
    min(max_degree, max_len).  b's terms are grouped by word length once per
    call, and each term of a walks only the groups short enough to keep, so a
    rejected pair costs nothing.
    """
    if 0 <= max_len and not 0 <= max_degree <= max_len:
        max_degree = max_len
    by_len = {}
    for wb, cb in b.items():
        if cb:
            group = by_len.get(len(wb))
            if group is None:
                by_len[len(wb)] = [(wb, cb)]
            else:
                group.append((wb, cb))
    groups = sorted(by_len.items())
    acc = {}
    for wa, ca in a.items():
        if not ca:
            continue
        room = max_degree - len(wa)
        for lb, group in groups:
            if 0 <= max_degree and room < lb:
                break
            for wb, cb in group:
                coeff = ca * cb
                # inline, not intlinalg._axpy: a call per word cost ~3% wall on graded-g2k6 and magnus-g2k6
                for w2, c2 in reduce_word(
                    wa + wb, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len
                ).items():
                    val = acc.get(w2, 0) + coeff * c2
                    if val:
                        acc[w2] = val
                    else:
                        del acc[w2]
    return acc


def mul_letter(
    terms, letter, on_left, max_degree, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len=-1
):
    """Reduced truncated product letter*terms (on_left) or terms*letter.

    terms must be reduced, with no zero coefficient.  Every product word is
    formed first; those are distinct, and only a word that forms the leading
    word at the junction is then taken out and rewritten.  Its normal form
    has no leading word, so it never meets another junction word.  Product
    words longer than min(max_degree, max_len) are dropped, as in mul_reduce.
    """
    if 0 <= max_len and not 0 <= max_degree <= max_len:
        max_degree = max_len
    x = (letter,)
    room = max_degree if max_degree >= 0 else float("inf")
    if on_left:
        acc = {x + w: c for w, c in terms.items() if len(w) < room}
        junction = [w for w in acc if len(w) > 1 and w[1] == lead1] if letter == lead0 else ()
    else:
        acc = {w + x: c for w, c in terms.items() if len(w) < room}
        junction = [w for w in acc if len(w) > 1 and w[-2] == lead0] if letter == lead1 else ()
    for xw in junction:
        c = acc.pop(xw)
        # inline, as in mul_reduce
        for w2, c2 in reduce_word(xw, lead0, lead1, rhs_words, rhs_coeffs, memo, max_len).items():
            val = acc.get(w2, 0) + c * c2
            if val:
                acc[w2] = val
            else:
                del acc[w2]
    return acc
