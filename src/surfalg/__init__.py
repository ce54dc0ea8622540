"""Exact-arithmetic algebra engine for surface-group filtrations.

Computes and certifies, at desk scale: the graded Lie algebra of the lower
central series of a closed surface group, its universal enveloping quotient,
nilpotent-quotient arithmetic via truncated expansions, the symplectic action
on the third exterior power of homology, and the Torelli-type abelianization
pullbacks.  Everything is exact: arbitrary-precision integers, Z/2, and
unimodular transforms; no floating point anywhere.

Submodules
----------
intlinalg   Smith/Hermite normal forms, kernels, saturation, summand tests
freelie     free Lie algebra with the Lyndon basis and bracket rewriting
surface     the one-relator graded quotient: ranks, bases, center certificates
enveloping  the associative quotient: confluent reduction, Hilbert series
nilpotent   group words, truncated group-ring expansions, quotient centers
symplectic  Chevalley generators, exterior-cube action, Johnson image, commutant
torelli     boolean polynomials and the abelianization pullbacks
cli         batch verification runner with JSON/text reports
"""

__version__ = "0.1.0"

from . import enveloping, freelie, intlinalg, nilpotent, surface, symplectic, torelli

__all__ = [
    "enveloping",
    "freelie",
    "intlinalg",
    "nilpotent",
    "surface",
    "symplectic",
    "torelli",
    "__version__",
]
