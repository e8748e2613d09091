"""The generalized-cover space Gq (Section 5.2).

A generalized cover ``{f1||g1, ..., fm||gm}`` belongs to Gq iff the g-parts
form a safe cover and every f-part is join-connected. The space blows up
quickly (upper bound ``Bn * n * 2^(n-1)``), which is exactly why the paper's
exhaustive EDL is impractical and GDL explores greedily; the enumerator
below therefore takes a hard ``limit``, mirroring the paper's own cut-off
at 20,003 covers for query A6 (Table 6).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.covers.cover import (
    Cover,
    Fragment,
    GeneralizedCover,
    GeneralizedFragment,
    _indices_connected,
    join_components,
)
from repro.covers.lattice import enumerate_safe_covers
from repro.covers.safety import is_safe_cover
from repro.dllite.tbox import TBox
from repro.queries.cq import CQ


def _connected_extensions(
    query: CQ, base: Fragment, limit_atoms: Sequence[int]
) -> Iterator[Fragment]:
    """All supersets of *base* (within the query) that are join-connected.

    Enumerated by growing with join-adjacent atoms only, so every yielded
    set is connected whenever *base* is.
    """
    adjacency = query.atom_adjacency()
    seen: Set[Fragment] = set()

    def grow(current: Fragment) -> Iterator[Fragment]:
        if current in seen:
            return
        seen.add(current)
        yield current
        frontier = set()
        for index in current:
            frontier |= adjacency[index]
        for candidate in sorted(frontier - current):
            yield from grow(current | {candidate})

    yield from grow(frozenset(base))


def in_generalized_space(cover: GeneralizedCover, tbox: TBox) -> bool:
    """Membership test for Gq: safe g-cover + connected f-parts."""
    if not is_safe_cover(cover.g_cover(), tbox):
        return False
    return all(
        _indices_connected(cover.query, gf.f) for gf in cover.fragments
    )


def _shortest_join_path(
    adjacency: Dict[int, Set[int]], sources: Sequence[int], targets: Set[int]
) -> List[int]:
    """Interior atoms of a shortest join path from *sources* to *targets*
    (breadth-first, neighbours in index order, so ties fall to the lowest
    atom index); empty when there is no path."""
    parent: Dict[int, Optional[int]] = {source: None for source in sources}
    queue = list(sources)
    for node in queue:
        for neighbor in sorted(adjacency[node]):
            if neighbor in targets:
                path = []
                while parent[node] is not None:
                    path.append(node)
                    node = parent[node]
                return path
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    return []


def connect_fragments(
    cover: GeneralizedCover, adjacency: Dict[int, Set[int]]
) -> GeneralizedCover:
    """Move *cover* into Gq by enlarging every disconnected f-part.

    The components of an f-part are bridged with the atoms of a shortest
    join path, as semijoin reducers: g-parts are untouched, so the g-cover
    (and with it Theorem 3) is unchanged. A fragment whose f ends up
    inside an enlarged f is unioned into it, as a GDL *union* move would.
    Components with no join path between them (a disconnected query) stay
    apart.
    """
    enlarged: List[GeneralizedFragment] = []
    for gf in cover.fragments:
        f = set(gf.f)
        components = join_components(adjacency, f)
        while len(components) > 1:
            bridge = _shortest_join_path(
                adjacency, components[0], f.difference(components[0])
            )
            if not bridge:
                break
            f.update(bridge)
            components = join_components(adjacency, f)
        enlarged.append(GeneralizedFragment(frozenset(f), gf.g))
    kept: List[GeneralizedFragment] = []
    for gf in sorted(enlarged, key=lambda gf: (-len(gf.f), gf.key())):
        for position, larger in enumerate(kept):
            if gf.f <= larger.f:
                kept[position] = GeneralizedFragment(larger.f, larger.g | gf.g)
                break
        else:
            kept.append(gf)
    return GeneralizedCover(cover.query, tuple(kept))


def enumerate_generalized_covers(
    query: CQ,
    tbox: TBox,
    limit: Optional[int] = None,
    require_connected_safe_covers: bool = False,
) -> Iterator[GeneralizedCover]:
    """Yield the covers of Gq, up to *limit* (Table 6 caps A6 at 20,003).

    Enumeration order: for each safe cover (coarsest first is not required;
    the lattice enumerator's order is used), each fragment may be extended
    by any connected superset, subject to the no-inclusion condition of
    Definition 1.
    """
    produced = 0
    seen: Set[Tuple] = set()
    for safe in enumerate_safe_covers(
        query, tbox, require_connected=require_connected_safe_covers
    ):
        extension_choices: List[List[Fragment]] = []
        for g in safe.fragments:
            extension_choices.append(list(_connected_extensions(query, g, [])))

        def combine(position: int, chosen: List[Fragment]) -> Iterator[GeneralizedCover]:
            if position == len(safe.fragments):
                try:
                    candidate = GeneralizedCover(
                        query,
                        tuple(
                            GeneralizedFragment(f, g)
                            for f, g in zip(chosen, safe.fragments)
                        ),
                    )
                except ValueError:
                    return
                key = candidate.key()
                if key not in seen:
                    seen.add(key)
                    yield candidate
                return
            for extension in extension_choices[position]:
                yield from combine(position + 1, chosen + [extension])

        for cover in combine(0, []):
            yield cover
            produced += 1
            if limit is not None and produced >= limit:
                return


def generalized_space_upper_bound(atom_count: int) -> int:
    """The paper's bound ``Bn * n * 2^(n-1)`` on ``|Gq|``."""
    from repro.covers.lattice import bell_number

    return bell_number(atom_count) * atom_count * 2 ** max(atom_count - 1, 0)
