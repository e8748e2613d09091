"""The external ("ext") cost model: textbook formulas over statistics.

Assumptions, following §6.1 of the paper:

* uniform value distributions and independent attributes;
* joins run in linear time in their input sizes (hash joins with enough
  memory);
* data access costs compare the applicable indexes — on the simple layout
  every single- and two-attribute index exists, so an atom with a bound
  argument costs its (estimated) matching rows rather than a full scan;
* the cost of a JUCQ adds the fragments' evaluation and materialization to
  the cost of joining the materialized fragment results.

Every term of a total is non-negative, so a running sum of the terms is a
lower bound of the total: :meth:`ExternalCostModel.estimate` uses that to
stop pricing a query that cannot come in under a given bound.

All constants live in :class:`ExternalCostParameters` and were calibrated
per backend the way the paper calibrates "a few constant coefficients".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cost.statistics import DataStatistics
from repro.queries.atoms import Atom
from repro.queries.cq import CQ
from repro.queries.jucq import JUCQ, JUSCQ, component_head
from repro.queries.scq import SCQ, USCQ
from repro.queries.terms import Term, Variable, is_variable
from repro.queries.ucq import UCQ

AnyQuery = Union[CQ, UCQ, SCQ, USCQ, JUCQ, JUSCQ]


@dataclass(frozen=True)
class ExternalCostParameters:
    """Calibration constants of the external model."""

    scan_per_row: float = 1.0
    index_access: float = 0.05
    #: Per-result-row cost of an index lookup. Calibrated equal to
    #: ``output_per_row`` for now (bucket rows still get emitted), but a
    #: separate knob so backends whose index probes return rows cheaper
    #: than scan output (the vectorized MiniRDBMS does: matching rows
    #: come straight out of a hash bucket) can be priced accordingly.
    index_probe_per_row: float = 0.4
    join_per_row: float = 1.1
    output_per_row: float = 0.4
    dedup_per_row: float = 1.1
    materialize_per_row: float = 0.9


@dataclass
class Estimate:
    """Cost and cardinality of a (sub)query."""

    cost: float
    rows: float
    ndv: Dict[Variable, float]


#: ``id(component) -> (component, its Estimate)`` — see
#: :meth:`ExternalCostModel.estimate`.
ComponentMemo = Dict[int, Tuple[object, Estimate]]


class ExternalCostModel:
    """Estimates evaluation cost of any dialect from data statistics."""

    def __init__(
        self,
        statistics: DataStatistics,
        parameters: ExternalCostParameters = ExternalCostParameters(),
    ) -> None:
        self.statistics = statistics
        self.parameters = parameters

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: AnyQuery,
        components: Optional[ComponentMemo] = None,
        bound: float = math.inf,
    ) -> float:
        """Total estimated evaluation cost of *query*.

        *components*, when given, memoises the estimate of each JUCQ /
        JUSCQ component by object identity; the caller owns it and must
        drop it when the statistics change.

        *bound* turns the estimate into a test against a price to beat:
        a query whose cost is below it gets exactly the float the
        unbounded estimate computes, any other gets ``math.inf``. The
        components of a JUCQ / JUSCQ, and inside each the UCQ's CQs (or
        the USCQ's SCQs), are priced in order, and pricing stops once
        their running sum reaches *bound* — every term of the total is
        non-negative, so that sum never exceeds the total.
        """
        estimate = self._bounded(query, components, bound)
        if estimate is None or estimate.cost >= bound:
            return math.inf
        return estimate.cost

    def estimated_rows(self, query: AnyQuery) -> float:
        """Estimated result cardinality of *query*."""
        return self._dispatch(query).rows

    # ------------------------------------------------------------------
    def _dispatch(self, query: AnyQuery) -> Estimate:
        if isinstance(query, CQ):
            return self._estimate_cq(query)
        if isinstance(query, SCQ):
            return self._estimate_join(
        query.head, [self._estimate_union_blocks(b.disjuncts) for b in query.blocks],
                [b.disjuncts[0].head for b in query.blocks],
            )
        if isinstance(query, USCQ):
            return self._estimate_union([self._dispatch(s) for s in query.scqs])
        if isinstance(query, UCQ):
            return self._estimate_union_blocks(query.disjuncts)
        if isinstance(query, (JUCQ, JUSCQ)):
            return self._join_components(
                query, [self._dispatch(c) for c in query.components]
            )
        raise TypeError(f"unsupported query dialect: {type(query).__name__}")

    def _join_components(
        self, query: Union[JUCQ, JUSCQ], inner: Sequence[Estimate]
    ) -> Estimate:
        """A JUCQ / JUSCQ from its components' estimates, in order."""
        if isinstance(query, JUCQ):
            heads = [component_head(c) for c in query.components]
        else:
            heads = [c.scqs[0].head for c in query.components]
        return self._estimate_join(query.head, inner, heads, materialize=True)

    def _bounded(
        self, query: AnyQuery, memo: Optional[ComponentMemo], bound: float
    ) -> Optional[Estimate]:
        """*query*'s estimate, or ``None`` once a running sum of the
        costs it adds up reaches *bound* (never, when it is infinite).

        The sum is accumulated the way the full estimate accumulates
        them (components in order, each a sequential sum of its parts),
        so in floating point too it never exceeds the full cost. Only
        complete component estimates enter *memo*; an entry holds the
        component itself, so its ``id`` stays its own.
        """
        if isinstance(query, (UCQ, USCQ)):
            return self._bounded_union(query, 0.0, bound)
        if not isinstance(query, (JUCQ, JUSCQ)):
            return self._dispatch(query)
        spent = 0.0
        inner: List[Estimate] = []
        for component in query.components:
            entry = memo.get(id(component)) if memo is not None else None
            if entry is not None:
                estimate = entry[1]
            else:
                estimate = self._bounded_union(component, spent, bound)
                if estimate is None:
                    return None
                if memo is not None:
                    memo[id(component)] = (component, estimate)
            spent += estimate.cost
            if spent >= bound:
                return None
            inner.append(estimate)
        return self._join_components(query, inner)

    def _bounded_union(
        self, query: Union[UCQ, USCQ], spent: float, bound: float
    ) -> Optional[Estimate]:
        """A UCQ's (USCQ's) estimate, or ``None`` once *spent* plus the
        running sum of its CQs' (SCQs') costs reaches *bound*."""
        parts = query.disjuncts if isinstance(query, UCQ) else query.scqs
        estimates: List[Estimate] = []
        partial = 0.0
        for part in parts:
            estimate = self._dispatch(part)
            partial += estimate.cost
            if spent + partial >= bound:
                return None
            estimates.append(estimate)
        return self._estimate_union(estimates)

    # ------------------------------------------------------------------
    def _atom_estimate(self, atom: Atom) -> Estimate:
        params = self.parameters
        cardinality = float(self.statistics.cardinality(atom.predicate))
        bound_positions = [
            i for i, term in enumerate(atom.args) if not is_variable(term)
        ]
        rows = cardinality
        for position in bound_positions:
            rows /= max(1.0, float(self.statistics.distinct(atom.predicate, position)))
        if bound_positions:
            # An applicable index turns the scan into a probe (the
            # engine's planner routes such predicates to IndexScan).
            cost = params.index_access + params.index_probe_per_row * rows
        else:
            cost = params.scan_per_row * cardinality
        ndv: Dict[Variable, float] = {}
        for position, term in enumerate(atom.args):
            if is_variable(term):
                distinct = float(self.statistics.distinct(atom.predicate, position))
                previous = ndv.get(term)
                value = max(1.0, min(distinct, rows if rows else 1.0))
                ndv[term] = min(previous, value) if previous else value
        return Estimate(cost=cost, rows=rows, ndv=ndv)

    def _estimate_cq(self, query: CQ) -> Estimate:
        params = self.parameters
        remaining = [self._atom_estimate(atom) for atom in query.atoms]
        atom_vars = [set(a.variables()) for a in query.atoms]
        # Greedy left-deep join, smallest input first (mirrors a sensible
        # engine plan under the linear-join assumption).
        order = sorted(range(len(remaining)), key=lambda i: remaining[i].rows)
        joined_vars: set = set()
        current: Estimate = None  # type: ignore[assignment]
        pending = list(order)
        while pending:
            if current is None:
                pick = pending.pop(0)
                current = remaining[pick]
                joined_vars = set(atom_vars[pick])
                continue
            # Prefer an atom sharing a variable (hash join), else cross.
            connected = [i for i in pending if atom_vars[i] & joined_vars]
            pick = connected[0] if connected else pending[0]
            pending.remove(pick)
            other = remaining[pick]
            shared = atom_vars[pick] & joined_vars
            selectivity = 1.0
            for variable in shared:
                left_ndv = current.ndv.get(variable, current.rows or 1.0)
                right_ndv = other.ndv.get(variable, other.rows or 1.0)
                selectivity /= max(1.0, max(left_ndv, right_ndv))
            rows = current.rows * other.rows * selectivity
            # Two physical alternatives, as the paper's model compares the
            # applicable indexes (§6.1): a hash join (pay the atom's own
            # access cost plus linear join work) or an index-nested-loop
            # probing the atom's table once per current row (the simple
            # layout declares every one- and two-attribute index).
            hash_cost = other.cost + params.join_per_row * (
                current.rows + other.rows
            )
            if shared:
                index_cost = current.rows * params.index_access
            else:
                index_cost = float("inf")  # no join key: cartesian, no index
            cost = (
                current.cost
                + min(hash_cost, index_cost)
                + params.output_per_row * rows
            )
            ndv: Dict[Variable, float] = {}
            for source in (current.ndv, other.ndv):
                for variable, value in source.items():
                    capped = max(1.0, min(value, rows or 1.0))
                    ndv[variable] = min(ndv.get(variable, capped), capped)
            current = Estimate(cost=cost, rows=rows, ndv=ndv)
            joined_vars |= atom_vars[pick]
        # Projection + DISTINCT on the head.
        head_ndv_product = 1.0
        for term in query.head:
            if is_variable(term):
                head_ndv_product *= current.ndv.get(term, current.rows or 1.0)
        distinct_rows = max(1.0, min(current.rows, head_ndv_product))
        cost = current.cost + params.dedup_per_row * current.rows
        return Estimate(cost=cost, rows=distinct_rows, ndv=current.ndv)

    def _estimate_union_blocks(self, disjuncts: Sequence[CQ]) -> Estimate:
        return self._estimate_union([self._estimate_cq(cq) for cq in disjuncts])

    def _estimate_union(self, estimates: Sequence[Estimate]) -> Estimate:
        params = self.parameters
        rows = sum(e.rows for e in estimates)
        # Added left to right, so :meth:`_bounded_union`'s running sum
        # never passes the total (``sum`` compensates from CPython 3.12).
        cost = 0.0
        for estimate in estimates:
            cost += estimate.cost
        cost += params.dedup_per_row * rows
        ndv: Dict[Variable, float] = {}
        for estimate in estimates:
            for variable, value in estimate.ndv.items():
                ndv[variable] = ndv.get(variable, 0.0) + value
        ndv = {v: max(1.0, min(n, rows or 1.0)) for v, n in ndv.items()}
        return Estimate(cost=cost, rows=rows, ndv=ndv)

    def _estimate_join(
        self,
        head: Tuple[Term, ...],
        components: Sequence[Estimate],
        component_heads: Sequence[Tuple[Term, ...]],
        materialize: bool = False,
    ) -> Estimate:
        params = self.parameters
        current = components[0]
        current_vars = {t for t in component_heads[0] if is_variable(t)}
        cost = current.cost
        if materialize:
            cost += params.materialize_per_row * current.rows
        current = Estimate(cost=cost, rows=current.rows, ndv=dict(current.ndv))
        for estimate, component_head_terms in zip(
            components[1:], component_heads[1:]
        ):
            other_vars = {t for t in component_head_terms if is_variable(t)}
            shared = current_vars & other_vars
            selectivity = 1.0
            for variable in shared:
                left_ndv = current.ndv.get(variable, current.rows or 1.0)
                right_ndv = estimate.ndv.get(variable, estimate.rows or 1.0)
                selectivity /= max(1.0, max(left_ndv, right_ndv))
            rows = current.rows * estimate.rows * selectivity
            cost = (
                current.cost
                + estimate.cost
                + (
                    (params.materialize_per_row * estimate.rows if materialize else 0.0)
                    + params.join_per_row * (current.rows + estimate.rows)
                    + params.output_per_row * rows
                )
            )
            ndv: Dict[Variable, float] = {}
            for source in (current.ndv, estimate.ndv):
                for variable, value in source.items():
                    capped = max(1.0, min(value, rows or 1.0))
                    ndv[variable] = min(ndv.get(variable, capped), capped)
            current = Estimate(cost=cost, rows=rows, ndv=ndv)
            current_vars |= other_vars
        # Final projection + DISTINCT.
        head_ndv = 1.0
        for term in head:
            if is_variable(term):
                head_ndv *= current.ndv.get(term, current.rows or 1.0)
        distinct_rows = max(1.0, min(current.rows, head_ndv))
        return Estimate(
            cost=current.cost + params.dedup_per_row * current.rows,
            rows=distinct_rows,
            ndv=current.ndv,
        )
