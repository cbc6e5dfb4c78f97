"""Arrows of the Hausdorff local model over a normal-crossing stratum.

An arrow between two points of a multiplicity-j stratum carries a
(C*)^j part and a discrete part: a word in named fundamental-group
generators together with its evaluated monodromy image.  Composition
twists the second factor's continuous part by the first factor's
monodromy before multiplying; restriction to a coarser stratum
re-evaluates the stored word in the coarser representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import EndpointMismatch, MalformedPresentation, StratumMismatch
from .signedperm import MonodromyRep, SignedPermutation, semidirect_mul

__all__ = ["TwistedArrow", "twisted_compose", "kappa_restrict"]


@dataclass(frozen=True)
class TwistedArrow:
    """target <- source with continuous part z and discrete word/element."""

    target: tuple
    source: tuple
    z: Tuple[complex, ...]
    word: Tuple[str, ...]
    element: SignedPermutation

    def __post_init__(self):
        if any(abs(complex(w)) == 0 for w in self.z):
            raise MalformedPresentation("continuous part must be nonzero in every slot")
        if self.element.degree != len(self.z):
            raise StratumMismatch("element degree != number of continuous slots")

    @staticmethod
    def unit(point: tuple, j: int) -> "TwistedArrow":
        return TwistedArrow(point, point, (1.0 + 0.0j,) * j, (),
                            SignedPermutation.identity(j))


def twisted_compose(a1: TwistedArrow, a2: TwistedArrow, rep: MonodromyRep) -> TwistedArrow:
    """Compose a1 after a2 (a1: x <- y, a2: y <- z).

    The continuous part of a2 is twisted by the stratum monodromy of
    a1's word, evaluated in ``rep``, before the slotwise product; the
    discrete parts multiply and the words concatenate.
    """
    if len(a1.z) != len(a2.z):
        raise StratumMismatch("arrows live over strata of different multiplicity")
    if a1.source != a2.target:
        raise EndpointMismatch(f"source {a1.source} != target {a2.target}")
    z, _ = semidirect_mul((a1.z, rep.evaluate(a1.word)), (a2.z, a2.element))
    return TwistedArrow(target=a1.target, source=a2.source, z=z,
                        word=a1.word + a2.word, element=a1.element * a2.element)


def kappa_restrict(arrow: TwistedArrow, coarse_rep: MonodromyRep) -> TwistedArrow:
    """Re-evaluate the stored word in a coarser representation.

    The continuous part is unchanged; only the discrete image moves.
    Two-step restriction therefore equals one-step by construction, and
    the tests pin that identity on sampled words.
    """
    return TwistedArrow(target=arrow.target, source=arrow.source, z=arrow.z,
                        word=arrow.word, element=coarse_rep.evaluate(arrow.word))
