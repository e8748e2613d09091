"""The greedy join ordering before semi-joins, kept verbatim as a test oracle.

``src/repro/engine/planner.py::Planner._order_joins`` now joins, under
set semantics, a source that gives nothing but its equality key as a
:class:`~repro.engine.operators.SemiJoin`. The method below is the
ordering that ran before — every source a :class:`HashJoin` (or a
cross product), started from the smallest leaf — moved here unchanged,
so property tests can compare the two planners' answers without a
runtime switch. Run it as
``execute_plan(LegacyPlanner(catalog, params).plan(parse_sql(sql)), stats)``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.engine.operators import (
    CrossJoin,
    Distinct,
    Filter,
    HashJoin,
    Operator,
    Project,
)
from repro.engine.planner import Planner


class LegacyPlanner(Planner):
    """:class:`Planner` with the hash-join-only greedy join ordering."""

    def _order_joins(
        self,
        leaves: Dict[str, Operator],
        alias_order: List[str],
        join_edges: List[Tuple[Tuple[str, str], Tuple[str, str], str]],
        needed_labels: Set[str],
        set_semantics: bool = False,
    ) -> Operator:
        remaining: Set[str] = set(alias_order)
        if len(remaining) == 1:
            return leaves[alias_order[0]]

        pending = list(join_edges)
        params = self.params

        def join_keys(in_composite: Set[str], alias: str):
            """Equality edges connecting *alias* to the current composite."""
            keys = []
            for left_loc, right_loc, op in pending:
                if op != "=":
                    continue
                first, second = left_loc[0], right_loc[0]
                if first == alias and second in in_composite:
                    keys.append((right_loc, left_loc))
                elif second == alias and first in in_composite:
                    keys.append((left_loc, right_loc))
            return keys

        # Start with the smallest leaf.
        start = min(remaining, key=lambda a: leaves[a].est_rows)
        composite = leaves[start]
        in_composite = {start}
        remaining.discard(start)
        positions = {label: i for i, label in enumerate(composite.columns)}

        while remaining:
            best_alias = None
            best_keys = None
            best_cost = None
            for alias in sorted(remaining):
                keys = join_keys(in_composite, alias)
                leaf = leaves[alias]
                if keys:
                    cost = self._hash_join_estimate(composite, leaf, keys)
                else:
                    cost = (
                        composite.cost
                        + leaf.cost
                        + params.cross_join_penalty
                        * (composite.est_rows * leaf.est_rows)
                    )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_keys = keys
                    best_alias = alias
            assert best_alias is not None
            leaf = leaves[best_alias]
            if best_keys:
                key_pairs = [
                    (
                        positions[f"{o[0]}.{o[1]}"],
                        leaf.columns.index(f"{i[0]}.{i[1]}"),
                    )
                    for o, i in best_keys
                ]
                composite = HashJoin(composite, leaf, key_pairs, params)
            else:
                composite = CrossJoin(composite, leaf, params)
            positions = {label: i for i, label in enumerate(composite.columns)}
            in_composite.add(best_alias)
            remaining.discard(best_alias)
            # Apply residual (non-key) predicates that just became closed.
            closed = []
            open_edges = []
            for left_loc, right_loc, op in pending:
                if left_loc[0] in in_composite and right_loc[0] in in_composite:
                    closed.append((left_loc, right_loc, op))
                else:
                    open_edges.append((left_loc, right_loc, op))
            pending = open_edges
            residual_pairs = []
            used_as_keys = set()
            if isinstance(composite, HashJoin):
                for l, r in composite.key_pairs:
                    used_as_keys.add(
                        (composite.left.columns[l], composite.right.columns[r])
                    )
            for left_loc, right_loc, op in closed:
                left_label = f"{left_loc[0]}.{left_loc[1]}"
                right_label = f"{right_loc[0]}.{right_loc[1]}"
                # Only an equality edge is satisfied by serving as the
                # hash-join key; a <> on the same column pair must still
                # be applied as a residual filter.
                if op == "=" and (
                    (left_label, right_label) in used_as_keys
                    or (right_label, left_label) in used_as_keys
                ):
                    continue
                residual_pairs.append(
                    (positions[left_label], positions[right_label], op)
                )
            if residual_pairs:
                composite = Filter(composite, residual_pairs)
            # Prune columns no later operator needs: narrower batches mean
            # narrower gathers in every join above this one. (A Project
            # only re-references columns, so pruning costs nothing at
            # execution.)
            if remaining:
                keep = set(needed_labels)
                for left_loc, right_loc, _op in pending:
                    keep.add(f"{left_loc[0]}.{left_loc[1]}")
                    keep.add(f"{right_loc[0]}.{right_loc[1]}")
                kept = [label for label in composite.columns if label in keep]
                if kept and len(kept) < len(composite.columns):
                    composite = Project(
                        composite,
                        [(positions[label], None, label) for label in kept],
                        params,
                    )
                    if set_semantics:
                        composite = Distinct(composite, params)
                    positions = {
                        label: i for i, label in enumerate(composite.columns)
                    }
        return composite
