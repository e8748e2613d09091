"""Covers and generalized covers of a conjunctive query (Definition 1, §5.2).

Fragments are represented as frozensets of *atom indices* into the query's
body: index-based fragments stay well-defined even for bodies with repeated
atoms, deduplicate structurally, and give deterministic orderings (fragments
are normalized sorted by their smallest atom index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.queries.atoms import Atom
from repro.queries.cq import CQ

Fragment = FrozenSet[int]


def _normalize_fragments(fragments: Iterable[Iterable[int]]) -> Tuple[Fragment, ...]:
    unique: Set[Fragment] = {frozenset(f) for f in fragments}
    return tuple(sorted(unique, key=lambda f: (min(f), sorted(f))))


def _check_cover_conditions(query: CQ, fragments: Sequence[Fragment]) -> None:
    if not fragments:
        raise ValueError("a cover must have at least one fragment")
    all_indices = set(range(len(query.atoms)))
    covered: Set[int] = set()
    for fragment in fragments:
        if not fragment:
            raise ValueError("cover fragments must be non-empty")
        if not fragment <= all_indices:
            raise ValueError(f"fragment {sorted(fragment)} has out-of-range atoms")
        covered |= fragment
    if covered != all_indices:
        missing = sorted(all_indices - covered)
        raise ValueError(f"cover misses atoms at positions {missing}")
    for i, first in enumerate(fragments):
        for j, second in enumerate(fragments):
            if i != j and first <= second:
                raise ValueError(
                    f"fragment {sorted(first)} is included in {sorted(second)}"
                )


@dataclass(frozen=True)
class Cover:
    """A cover of ``query``: fragments jointly covering all body atoms.

    Conditions (i)-(ii) of Definition 1 (coverage, no inclusion) are
    enforced; condition (iii) (join-connectivity of each fragment) is
    exposed as :meth:`is_connected` because the *root cover* construction of
    Definition 6 can produce dependency-merged fragments that are not
    join-connected, which the framework still handles correctly — at a
    measured price: such a fragment is a cartesian product in every arm
    of its union (Q10 at 100k facts on SQLite runs 861 ms under its root
    cover against 109 ms with one reducer atom bridging the fragment,
    Q8 8.2 s against 0.2 s), so GDL repairs it before searching
    (:func:`repro.covers.generalized.connect_fragments`).
    """

    query: CQ
    fragments: Tuple[Fragment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fragments", _normalize_fragments(self.fragments)
        )
        _check_cover_conditions(self.query, self.fragments)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fragments)

    def atoms_of(self, fragment: Fragment) -> Tuple[Atom, ...]:
        """The atoms of a fragment, in query-body order."""
        return tuple(self.query.atoms[i] for i in sorted(fragment))

    def is_partition(self) -> bool:
        """True when fragments are pairwise disjoint (Definition 5 requires it)."""
        seen: Set[int] = set()
        for fragment in self.fragments:
            if fragment & seen:
                return False
            seen |= fragment
        return True

    def is_connected(self) -> bool:
        """True when every fragment is join-connected within the query."""
        return all(
            _indices_connected(self.query, fragment) for fragment in self.fragments
        )

    def union_fragments(self, first: Fragment, second: Fragment) -> "Cover":
        """The cover obtained by replacing two fragments with their union."""
        if first not in self.fragments or second not in self.fragments:
            raise ValueError("both fragments must belong to this cover")
        if first == second:
            raise ValueError("cannot union a fragment with itself")
        remaining = [f for f in self.fragments if f not in (first, second)]
        return Cover(self.query, tuple(remaining) + (first | second,))

    def key(self) -> Tuple[Tuple[int, ...], ...]:
        """A hashable normal form (used to deduplicate search states)."""
        return tuple(tuple(sorted(f)) for f in self.fragments)

    def __str__(self) -> str:
        rendered = []
        for fragment in self.fragments:
            atoms = ", ".join(str(a) for a in self.atoms_of(fragment))
            rendered.append("{" + atoms + "}")
        return "{" + "; ".join(rendered) + "}"


@dataclass(frozen=True)
class GeneralizedFragment:
    """A pair ``f || g`` of atom-index sets with ``g <= f`` (Section 5.2).

    ``g`` determines the exported variables (like a plain fragment); the
    extra atoms ``f - g`` act as semijoin reducers, filtering the fragment's
    answers without extending its head.
    """

    f: Fragment
    g: Fragment

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", frozenset(self.f))
        object.__setattr__(self, "g", frozenset(self.g))
        if not self.g:
            raise ValueError("the g-part of a generalized fragment is non-empty")
        if not self.g <= self.f:
            raise ValueError("g must be a subset of f in a generalized fragment")

    @property
    def reducers(self) -> Fragment:
        """The semijoin-reducer atoms ``f - g``."""
        return self.f - self.g

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (tuple(sorted(self.f)), tuple(sorted(self.g)))

    def __str__(self) -> str:
        return f"{sorted(self.f)}||{sorted(self.g)}"


@dataclass(frozen=True)
class GeneralizedCover:
    """A set of generalized fragments whose ``f`` parts cover the query.

    Membership in the space Gq additionally requires the ``g`` parts to
    form a *safe* cover and each ``f`` part to be join-connected — checked
    by :func:`repro.covers.generalized.in_generalized_space` since it needs
    the TBox.
    """

    query: CQ
    fragments: Tuple[GeneralizedFragment, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(set(self.fragments), key=lambda gf: gf.key())
        )
        object.__setattr__(self, "fragments", ordered)
        if not self.fragments:
            raise ValueError("a generalized cover must have fragments")
        all_indices = set(range(len(self.query.atoms)))
        covered: Set[int] = set()
        for gf in self.fragments:
            if not gf.f <= all_indices:
                raise ValueError("generalized fragment has out-of-range atoms")
            covered |= gf.f
        if covered != all_indices:
            raise ValueError("generalized cover must cover all atoms")
        for i, first in enumerate(self.fragments):
            for j, second in enumerate(self.fragments):
                if i != j and first.f <= second.f:
                    raise ValueError(
                        f"fragment {first} is included in {second}"
                    )

    def __len__(self) -> int:
        return len(self.fragments)

    def g_cover(self) -> Cover:
        """The plain cover formed by the ``g`` parts."""
        return Cover(self.query, tuple(gf.g for gf in self.fragments))

    def is_plain(self) -> bool:
        """True when no fragment carries reducer atoms (f == g everywhere)."""
        return all(not gf.reducers for gf in self.fragments)

    def key(self) -> Tuple:
        return tuple(gf.key() for gf in self.fragments)

    def enlarge(self, fragment: GeneralizedFragment, atom_index: int) -> "GeneralizedCover":
        """Add one reducer atom to a fragment (a GDL *enlarge* move)."""
        if fragment not in self.fragments:
            raise ValueError("fragment does not belong to this cover")
        if atom_index in fragment.f:
            raise ValueError("atom already belongs to the fragment")
        replaced = GeneralizedFragment(fragment.f | {atom_index}, fragment.g)
        remaining = [gf for gf in self.fragments if gf != fragment]
        return GeneralizedCover(self.query, tuple(remaining) + (replaced,))

    @classmethod
    def from_cover(cls, cover: Cover) -> "GeneralizedCover":
        """Lift a plain cover (every fragment becomes ``f || f``)."""
        fragments = tuple(
            GeneralizedFragment(f, f) for f in cover.fragments
        )
        return cls(cover.query, fragments)

    def __str__(self) -> str:
        return "{" + "; ".join(str(gf) for gf in self.fragments) + "}"


def join_components(
    adjacency: Dict[int, Set[int]], indices: Iterable[int]
) -> List[List[int]]:
    """The join-connected components of the atoms at *indices*, each
    sorted, ordered by smallest atom index."""
    remaining = set(indices)
    components: List[List[int]] = []
    while remaining:
        stack = [min(remaining)]
        component = set(stack)
        while stack:
            for neighbor in (adjacency[stack.pop()] & remaining) - component:
                component.add(neighbor)
                stack.append(neighbor)
        remaining -= component
        components.append(sorted(component))
    return components


def _indices_connected(query: CQ, indices: Fragment) -> bool:
    """Whether the atoms at *indices* form one join-connected component."""
    return len(join_components(query.atom_adjacency(), indices)) <= 1
