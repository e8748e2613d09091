"""FOL reformulation of CQs under DL-LiteR TBoxes.

* :mod:`perfectref` — the pioneering CQ-to-UCQ technique of Calvanese et
  al. [13] the paper builds on: exhaustive backward application of positive
  inclusions plus atom unification (*reduce*), to a fixpoint, run on the
  input CQ once the atoms other atoms of it imply have been dropped.
* :mod:`uscq` — CQ-to-USCQ reformulation in the spirit of Thomazo [33]:
  the UCQ is factorized into a union of semi-conjunctive queries, with a
  verified-equivalence guarantee.
"""

from repro.reformulation.perfectref import (
    perfectref,
    reformulate_to_ucq,
)
from repro.reformulation.uscq import reformulate_to_uscq, factorize_ucq

__all__ = [
    "factorize_ucq",
    "perfectref",
    "reformulate_to_ucq",
    "reformulate_to_uscq",
]
