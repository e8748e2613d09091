"""Safe covers and the root cover (Definitions 5 and 6).

A cover is *safe* when it is a partition of the query atoms and any two
atoms whose predicates depend on a common concept or role name (w.r.t. the
TBox) are in the same fragment — the sufficient condition under which
fragment-wise reformulation misses no unification (Theorem 1).

The *root cover* is the finest safe cover: atoms sharing a dependency are
merged transitively, everything else stays separate (Lemma 1/Proposition 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.covers.cover import Cover, Fragment
from repro.covers.dependencies import dependency_closure
from repro.dllite.tbox import TBox
from repro.queries.cq import CQ


def _dependency_adjacency(query: CQ, tbox: TBox) -> Dict[int, Set[int]]:
    """Edges between atom indices whose predicates share a dependency."""
    closure = dependency_closure(tbox)
    deps: List[FrozenSet[str]] = [
        closure.get(atom.predicate, frozenset({atom.predicate}))
        for atom in query.atoms
    ]
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(query.atoms))}
    for i in range(len(query.atoms)):
        for j in range(i + 1, len(query.atoms)):
            if deps[i] & deps[j]:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def root_cover(query: CQ, tbox: TBox) -> Cover:
    """The root cover ``Croot`` of Definition 6.

    Built as the connected components of the dependency adjacency between
    atoms — equivalent to the paper's inflationary pairwise-union
    construction, and independent of fragment consideration order.

    This is the definition as the paper gives it, and what the ``croot``
    strategy evaluates: a fragment merged by dependency alone need not be
    join-connected. GDL repairs its own start cover
    (:func:`repro.covers.generalized.connect_fragments`); ``croot`` stays
    the uncorrected baseline.
    """
    adjacency = _dependency_adjacency(query, tbox)
    seen: Set[int] = set()
    fragments: List[Fragment] = []
    for start in range(len(query.atoms)):
        if start in seen:
            continue
        component: Set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        seen |= component
        fragments.append(frozenset(component))
    return Cover(query, tuple(fragments))


def is_safe_cover(cover: Cover, tbox: TBox) -> bool:
    """Definition 5: partition + dependency-sharing atoms co-located."""
    if not cover.is_partition():
        return False
    fragment_of: Dict[int, int] = {}
    for position, fragment in enumerate(cover.fragments):
        for index in fragment:
            fragment_of[index] = position
    adjacency = _dependency_adjacency(cover.query, tbox)
    for i, neighbors in adjacency.items():
        for j in neighbors:
            if fragment_of[i] != fragment_of[j]:
                return False
    return True


def single_fragment_cover(query: CQ) -> Cover:
    """The trivial one-fragment cover — always safe (lattice lower bound)."""
    return Cover(query, (frozenset(range(len(query.atoms))),))
