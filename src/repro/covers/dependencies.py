"""Concept and role dependencies w.r.t. a TBox (Definition 4).

``dep(N)`` is the set of concept and role *names* into which ``N`` may turn
through some sequence of atom specializations performed by the CQ-to-UCQ
algorithm (backward constraint applications and unifications). It is the
fixpoint of::

    dep0(N) = {N}
    depn(N) = depn-1(N) ∪ {cr(Y) | Y <= X in T and cr(X) in depn-1(N)}

where ``cr`` strips inverses and existentials down to the bare name
(:func:`repro.dllite.vocabulary.predicate_name`).

Two query atoms whose predicates have intersecting dependency sets may be
brought to unify during reformulation — the safety condition (Definition 5)
requires such atoms to live in the same cover fragment.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping

from repro.dllite.tbox import TBox


def dependencies(name: str, tbox: TBox) -> FrozenSet[str]:
    """``dep(name)``: all names *name* depends on w.r.t. *tbox*."""
    return dependency_closure(tbox).get(name, frozenset({name}))


def dependency_closure(tbox: TBox) -> Mapping[str, FrozenSet[str]]:
    """``dep(N)`` for every predicate name of the TBox signature.

    The closure is computed once per TBox (:meth:`TBox.dependency_closure`
    keeps it) by propagating over the positive axioms until fixpoint;
    names outside the TBox signature trivially depend only on themselves.
    """
    return tbox.dependency_closure()


def share_dependency(first: str, second: str, tbox: TBox) -> bool:
    """True iff ``dep(first)`` and ``dep(second)`` intersect."""
    return bool(dependencies(first, tbox) & dependencies(second, tbox))
