"""Cover-based reformulation (Definition 3): fragments to JUCQ / JUSCQ.

Given a (generalized) cover, each fragment query is reformulated with the
CQ-to-UCQ technique (PerfectRef) — or CQ-to-USCQ — and the reformulated
fragments are joined on their shared head variables. For covers in the safe
space Lq or the generalized space Gq the result is an equivalent FOL
reformulation of the input query (Theorems 1 and 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, List, Optional, Union

from repro.covers.cover import Cover, GeneralizedCover
from repro.covers.fragments import fragment_query, generalized_fragment_query
from repro.dllite.tbox import TBox
from repro.queries.cq import CQ
from repro.queries.jucq import JUCQ, JUSCQ
from repro.queries.scq import USCQ
from repro.queries.ucq import UCQ
from repro.reformulation.perfectref import emptiness_stamp, reformulate_to_ucq
from repro.reformulation.uscq import factorize_ucq

if TYPE_CHECKING:
    from repro.cost.cache import ReformulationCache

AnyCover = Union[Cover, GeneralizedCover]


def fragment_queries_of(cover: AnyCover) -> List[CQ]:
    """The (generalized) fragment queries of a cover, in fragment order."""
    queries: List[CQ] = []
    if isinstance(cover, GeneralizedCover):
        for position, gf in enumerate(cover.fragments):
            queries.append(
                generalized_fragment_query(
                    cover.query, gf, cover, name=f"{cover.query.name}_f{position}"
                )
            )
    else:
        for position, fragment in enumerate(cover.fragments):
            queries.append(
                fragment_query(
                    cover.query, fragment, cover, name=f"{cover.query.name}_f{position}"
                )
            )
    return queries


def cover_based_reformulation(
    cover: AnyCover,
    tbox: TBox,
    minimize: bool = True,
    cache: Optional["ReformulationCache"] = None,
    empty: AbstractSet[str] = frozenset(),
) -> JUCQ:
    """The JUCQ reformulation of the cover's query (Definition 3).

    Every fragment query is reformulated to a (optionally minimized) UCQ;
    the JUCQ joins them on shared head variable names and projects the
    original head. For a one-fragment cover this degenerates to the plain
    UCQ reformulation wrapped as a single-component JUCQ.

    ``cache`` (structural fragment-query key -> UCQ) lets a search
    algorithm exploring many covers reformulate each distinct fragment
    once — cover search revisits the same fragments constantly. An entry
    is reused while the predicates it assumed empty are in *empty*.
    """
    query = cover.query
    components: List[UCQ] = []
    for fq in fragment_queries_of(cover):
        key = (fq.head, fq.atoms, minimize)
        component = cache.get(key, empty=empty) if cache is not None else None
        if component is None:
            component = reformulate_to_ucq(
                fq, tbox, minimize=minimize, empty=empty
            )
            if cache is not None:
                cache.put(key, component, emptiness_stamp(fq, tbox, empty))
        components.append(component)
    return JUCQ(
        head=query.head,
        components=tuple(components),
        name=f"{query.name}_jucq",
    )


def cover_based_uscq_reformulation(
    cover: AnyCover,
    tbox: TBox,
    minimize: bool = True,
    cache: Optional["ReformulationCache"] = None,
    empty: AbstractSet[str] = frozenset(),
) -> JUSCQ:
    """The JUSCQ reformulation: fragments reformulated to USCQs instead.

    ``cache`` works as in :func:`cover_based_reformulation`, but keys carry
    a trailing ``"uscq"`` marker so the two dialects never collide when
    sharing one cache (a cached UCQ must never surface where a USCQ is
    expected, and vice versa).
    """
    query = cover.query
    components: List[USCQ] = []
    for fq in fragment_queries_of(cover):
        key = (fq.head, fq.atoms, minimize, "uscq")
        component = cache.get(key, empty=empty) if cache is not None else None
        if component is None:
            ucq = reformulate_to_ucq(fq, tbox, minimize=minimize, empty=empty)
            component = factorize_ucq(ucq, name=f"{fq.name}_uscq")
            if cache is not None:
                cache.put(key, component, emptiness_stamp(fq, tbox, empty))
        components.append(component)
    return JUSCQ(
        head=query.head,
        components=tuple(components),
        name=f"{query.name}_juscq",
    )
