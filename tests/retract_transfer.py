"""The two verdicts of the retract-transfer lemma, for the tests that check it.

If l3 @ l1 is split injective, so is l1: a retraction r of l3 @ l1 gives the
retraction r @ l3 of l1.  The lemma holds for every integer matrix, so it is
a unit test, not a fact about the surface group.  Maps are matrices in the
column convention, and images are row spans of the transposes.
"""

from surfalg.intlinalg import IntMatrix, is_direct_summand, sparse_rank


def transfer_verdicts(l1: IntMatrix, l3: IntMatrix) -> tuple[bool, bool]:
    """(the image of l3 @ l1 is a direct summand of full rank l1.cols, the
    image of l1 is a direct summand).  The lemma says the first implies the
    second."""
    composite = l3 @ l1
    image = composite.transpose()
    split = is_direct_summand(image, composite.rows) and sparse_rank(image.sparse_rows) == l1.cols
    return split, is_direct_summand(l1.transpose(), l1.rows)
