"""The cost-based planner: AST to physical operator trees.

Planning one SELECT block proceeds as in a textbook System-R-lite:

1. resolve FROM sources (base tables, CTEs, derived subqueries) and push
   column-to-constant predicates down to scans — equality predicates are
   routed through a matching hash index (:class:`IndexScan`) when the
   table has one;
2. classify remaining predicates into join edges (columns from two
   different sources) and residual filters;
3. order joins greedily: start from the source with the smallest estimated
   cardinality, repeatedly join the source whose hash join yields the
   smallest estimated cost (cartesian products are a last resort) —
   candidate costs are computed arithmetically, without constructing
   throwaway operators. Under set semantics (DISTINCT, or an arm of a
   deduplicating UNION) a source referenced only by ``=`` keys to the
   composite (a projected key column is read from the composite) joins
   as a :class:`SemiJoin` — a membership probe that keeps each row once
   instead of multiplying it by the source's fan-out. Such a source that
   may repeat its key never starts the order;
4. apply residual filters as soon as both sides are available, then
   project, then deduplicate for SELECT DISTINCT.

UNION plans detect **shared scans** first: identical base-table
scan+filter subtrees (and identical derived subqueries) appearing in two
or more arms are planned once, materialized behind a planner-generated
CTE (``_shared_N``), and every arm reads the materialized batches
through a :class:`CTEScan` — exactly the shape PerfectRef reformulations
produce, where the same atom tables recur across dozens of UCQ arms.
WITH plans and registers CTEs in order so later CTEs and the body can
scan them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.errors import PlanningError, UnknownColumnError
from repro.engine.operators import (
    ConstFilter,
    CostParameters,
    CrossJoin,
    CTEScan,
    DEFAULT_COSTS,
    Distinct,
    Filter,
    HashJoin,
    IndexScan,
    Materialize,
    Operator,
    Project,
    SemiJoin,
    SeqScan,
    Union,
    _index_join_side,
)
from repro.engine.relation import Table
from repro.engine.sqlparser import (
    ColumnRef,
    Literal,
    SelectCore,
    SelectUnion,
    Statement,
    SubquerySource,
    TableSource,
)


@dataclass
class Plan:
    """A fully planned statement.

    ``cte_plans`` holds the user's CTEs *and* planner-generated shared
    scans, in materialization (dependency) order.
    """

    cte_plans: List[Tuple[str, Materialize]] = field(default_factory=list)
    body: Operator = None  # type: ignore[assignment]

    @property
    def total_cost(self) -> float:
        """Planner's cost estimate: CTE materializations plus the body."""
        return sum(m.cost for _, m in self.cte_plans) + self.body.cost

    @property
    def est_rows(self) -> float:
        return self.body.est_rows

    @property
    def columns(self) -> List[str]:
        return list(self.body.columns)


@dataclass
class _CTEInfo:
    materialize: Materialize
    out_columns: List[str]


@dataclass
class _SharedScan:
    """A planner-generated shared scan usable by several UNION arms."""

    name: str
    materialize: Materialize
    out_columns: List[str]


class _PlanState:
    """Per-``plan()`` mutable state: the plan under construction and the
    namespace for generated shared-scan CTEs."""

    def __init__(self, plan: Plan, reserved: Set[str]) -> None:
        self.plan = plan
        self.reserved = reserved
        self.counter = 0

    def next_shared_name(self) -> str:
        while True:
            name = f"_shared_{self.counter}"
            self.counter += 1
            if name not in self.reserved:
                self.reserved.add(name)
                return name


class Planner:
    """Plans parsed statements against a catalog."""

    def __init__(
        self, catalog: Catalog, params: CostParameters = DEFAULT_COSTS
    ) -> None:
        self.catalog = catalog
        self.params = params

    # ------------------------------------------------------------------
    def plan(self, statement: Statement) -> Plan:
        """Plan a full statement (CTEs in declaration order, then body)."""
        ctes: Dict[str, _CTEInfo] = {}
        plan = Plan()
        state = _PlanState(
            plan, {name.lower() for name, _ in statement.ctes}
        )
        for name, union in statement.ctes:
            root = self._plan_union(union, ctes, state)
            materialized = Materialize(name, root, self.params)
            out_columns = [label.split(".")[-1] for label in root.columns]
            ctes[name.lower()] = _CTEInfo(materialized, out_columns)
            plan.cte_plans.append((name, materialized))
        plan.body = self._plan_union(statement.body, ctes, state)
        return plan

    # ------------------------------------------------------------------
    def _plan_union(
        self,
        union: SelectUnion,
        ctes: Dict[str, _CTEInfo],
        state: _PlanState,
    ) -> Operator:
        if len(union.selects) > 1:
            shared_by_core = self._detect_shared_scans(union, ctes, state)
        else:
            shared_by_core = [{}]
        # A deduplicating UNION makes every arm set-semantic: the planner
        # may insert early duplicate elimination anywhere below it.
        union_dedups = len(union.selects) > 1 and not union.all
        branches = [
            self._plan_select(
                core, ctes, state, shared_by_core[i], union_dedups
            )
            for i, core in enumerate(union.selects)
        ]
        arities = {len(b.columns) for b in branches}
        if len(arities) != 1:
            raise PlanningError(f"UNION branches disagree on arity: {arities}")
        if len(branches) == 1:
            return branches[0]
        return Union(branches, union.all, self.params)

    # ------------------------------------------------------------------
    # Shared-scan detection
    # ------------------------------------------------------------------
    def _detect_shared_scans(
        self,
        union: SelectUnion,
        ctes: Dict[str, _CTEInfo],
        state: _PlanState,
    ) -> List[Dict[str, _SharedScan]]:
        """Fingerprint every arm's FROM sources; materialize repeats once.

        Returns one ``alias -> shared scan`` mapping per UNION arm. A
        source's fingerprint is its base (table name, or the derived
        subquery's AST) plus every constant filter and same-source
        column equality attributed to it — i.e. exactly the leaf subtree
        ``_plan_select`` would build. Arms whose conditions cannot be
        attributed statically (unqualified column references) opt out.
        """
        per_core = [
            self._fingerprint_core(core, ctes) for core in union.selects
        ]
        counts: Dict[Tuple, int] = {}
        for entry in per_core:
            if entry:
                for _alias, key in entry:
                    counts[key] = counts.get(key, 0) + 1
        shared: Dict[Tuple, _SharedScan] = {}
        for key, count in counts.items():
            if count < 2:
                continue
            is_table = key[0] == "t"
            has_filters = bool(key[2] or key[3] or key[4])
            # Sharing an unfiltered base scan saves nothing (the table's
            # columnar batches are already cached) and would hide the
            # scan's hash indexes from the join planner.
            if is_table and not has_filters:
                continue
            shared[key] = self._build_shared_scan(key, ctes, state)
        result: List[Dict[str, _SharedScan]] = []
        for entry in per_core:
            if not entry:
                result.append({})
                continue
            result.append(
                {alias: shared[key] for alias, key in entry if key in shared}
            )
        return result

    def _fingerprint_core(
        self, core: SelectCore, ctes: Dict[str, _CTEInfo]
    ) -> Optional[List[Tuple[str, Tuple]]]:
        """(alias, fingerprint) pairs for one arm; None when ineligible."""
        bases: Dict[str, Optional[Tuple]] = {}
        order: List[str] = []
        for source in core.sources:
            alias = source.alias
            if alias in bases:
                return None  # duplicate alias: the planner will raise
            if isinstance(source, TableSource):
                if source.name.lower() in ctes:
                    base = None  # CTE reference: materialized already
                else:
                    base = ("t", source.name.lower())
            else:
                base = ("q", source.statement)
            bases[alias] = base
            order.append(alias)
        eq: Dict[str, List[Tuple]] = {a: [] for a in order}
        neq: Dict[str, List[Tuple]] = {a: [] for a in order}
        pairs: Dict[str, List[Tuple]] = {a: [] for a in order}
        for condition in core.conditions:
            left, right, op = condition.left, condition.right, condition.op
            left_is_col = isinstance(left, ColumnRef)
            right_is_col = isinstance(right, ColumnRef)
            if (left_is_col and left.table is None) or (
                right_is_col and right.table is None
            ):
                return None  # bare column: attribution needs resolution
            if left_is_col and right_is_col:
                if left.table not in bases or right.table not in bases:
                    return None
                if left.table == right.table:
                    pairs[left.table].append(
                        (op,) + tuple(sorted((left.column, right.column)))
                    )
                # else: a join edge, applied above the leaves
            elif left_is_col or right_is_col:
                ref = left if left_is_col else right
                literal = right if left_is_col else left
                if ref.table not in bases:
                    return None
                bucket = eq if op == "=" else neq
                bucket[ref.table].append((ref.column, literal.value))
            # constant-constant conditions are validated by _plan_select
        result = []
        for alias in order:
            base = bases[alias]
            if base is None:
                continue
            result.append(
                (
                    alias,
                    (
                        base[0],
                        base[1],
                        frozenset(eq[alias]),
                        frozenset(neq[alias]),
                        frozenset(pairs[alias]),
                    ),
                )
            )
        return result

    #: Deterministic order for (column, literal) filter sets; literals
    #: may mix types (ints and strings), so sort on their repr.
    @staticmethod
    def _filter_order(item: Tuple) -> Tuple[str, str]:
        return (item[0], repr(item[1]))

    def _build_shared_scan(
        self, key: Tuple, ctes: Dict[str, _CTEInfo], state: _PlanState
    ) -> _SharedScan:
        """Plan one shared subtree and register its materialization."""
        kind, base, eq, neq, pair_set = key
        if kind == "t":
            table = self.catalog.table(base)
            stats = self.catalog.statistics(base)
            positions = [
                (table.column_position(c), v)
                for c, v in sorted(eq, key=self._filter_order)
            ]
            leaf: Operator = self._table_leaf(table, base, positions, stats)
            local: Sequence[str] = table.columns
        else:
            leaf = self._plan_union(base, ctes, state)
            local = [label.split(".")[-1] for label in leaf.columns]
            if eq:
                tests = [
                    (local.index(c), v, "=")
                    for c, v in sorted(eq, key=self._filter_order)
                ]
                leaf = ConstFilter(leaf, tests)
        if neq:
            tests = [
                (local.index(c), v, "<>")
                for c, v in sorted(neq, key=self._filter_order)
            ]
            leaf = ConstFilter(leaf, tests)
        if pair_set:
            pair_list = [
                (local.index(a), local.index(b), op)
                for op, a, b in sorted(pair_set)
            ]
            leaf = Filter(leaf, pair_list)
        name = state.next_shared_name()
        materialize = Materialize(name, leaf, self.params, shared=True)
        state.plan.cte_plans.append((name, materialize))
        return _SharedScan(name, materialize, list(local))

    # ------------------------------------------------------------------
    # Access-path selection
    # ------------------------------------------------------------------
    def _table_leaf(
        self,
        table: Table,
        alias: str,
        equality: List[Tuple[int, object]],
        stats,
    ) -> Operator:
        """Scan *table*, routing equality filters through a hash index.

        Preference order: an index exactly covering all equality columns;
        else a single-column index on the most selective filtered column
        (remaining filters become residuals); else a filtered SeqScan.
        """
        if not equality:
            return SeqScan(table, alias, [], stats, self.params)
        names = tuple(table.columns[p] for p, _ in equality)
        if len(names) > 1:
            index = table.index_on(names)
            ordered = equality
            if index is None:
                order = sorted(range(len(names)), key=lambda i: names[i])
                index = table.index_on(tuple(names[i] for i in order))
                ordered = [equality[i] for i in order]
            if index is not None:
                return IndexScan(
                    table, alias, index, ordered, [], stats, self.params
                )
        best: Optional[Tuple[float, int]] = None
        for i, (position, _value) in enumerate(equality):
            if table.index_on((table.columns[position],)) is not None:
                ndv = float(stats.distinct(table.columns[position]))
                if best is None or ndv > best[0]:
                    best = (ndv, i)
        if best is not None:
            i = best[1]
            index = table.index_on((table.columns[equality[i][0]],))
            residual = equality[:i] + equality[i + 1 :]
            return IndexScan(
                table, alias, index, [equality[i]], residual, stats, self.params
            )
        return SeqScan(table, alias, equality, stats, self.params)

    # ------------------------------------------------------------------
    def _plan_select(
        self,
        core: SelectCore,
        ctes: Dict[str, _CTEInfo],
        state: _PlanState,
        shared_scans: Dict[str, _SharedScan],
        union_dedups: bool = False,
    ) -> Operator:
        # ---- classify conditions by source -------------------------------
        alias_order: List[str] = []
        source_specs: Dict[str, Tuple[str, object]] = {}
        for source in core.sources:
            if isinstance(source, TableSource):
                alias = source.alias
                spec = ("table", source)
            else:
                alias = source.alias
                spec = ("subquery", source)
            if alias in source_specs:
                raise PlanningError(f"duplicate alias {alias!r} in FROM")
            source_specs[alias] = spec
            alias_order.append(alias)

        # Pre-plan subqueries so their output columns are known. This must
        # be a local mapping: planning a subquery recurses into this method.
        # Shared subqueries were already planned once by the union.
        subquery_ops: Dict[str, Operator] = {}
        for alias, (kind, source) in source_specs.items():
            if kind == "subquery" and alias not in shared_scans:
                subquery_ops[alias] = self._plan_union(
                    source.statement, ctes, state  # type: ignore[union-attr]
                )

        def columns_of(alias: str) -> List[str]:
            shared = shared_scans.get(alias)
            if shared is not None:
                return list(shared.out_columns)
            kind, source = source_specs[alias]
            if kind == "table":
                name = source.name  # type: ignore[union-attr]
                if name.lower() in ctes:
                    return list(ctes[name.lower()].out_columns)
                return list(self.catalog.table(name).columns)
            planned = subquery_ops[alias]
            return [label.split(".")[-1] for label in planned.columns]

        def resolve(ref: ColumnRef) -> Tuple[str, str]:
            """Resolve a column reference to (alias, column)."""
            if ref.table is not None:
                if ref.table not in source_specs:
                    raise UnknownColumnError(
                        f"unknown table alias {ref.table!r} for column {ref.column!r}"
                    )
                if ref.column not in columns_of(ref.table):
                    raise UnknownColumnError(
                        f"no column {ref.column!r} under alias {ref.table!r}"
                    )
                return (ref.table, ref.column)
            owners = [
                alias for alias in alias_order if ref.column in columns_of(alias)
            ]
            if not owners:
                raise UnknownColumnError(f"unknown column {ref.column!r}")
            if len(owners) > 1:
                raise UnknownColumnError(
                    f"ambiguous column {ref.column!r} (in {owners})"
                )
            return (owners[0], ref.column)

        const_filters: Dict[str, List[Tuple[str, object, str]]] = {
            alias: [] for alias in alias_order
        }
        join_edges: List[Tuple[Tuple[str, str], Tuple[str, str], str]] = []
        same_source: List[Tuple[Tuple[str, str], Tuple[str, str], str]] = []

        for condition in core.conditions:
            left, right, op = condition.left, condition.right, condition.op
            left_is_col = isinstance(left, ColumnRef)
            right_is_col = isinstance(right, ColumnRef)
            if left_is_col and right_is_col:
                left_loc, right_loc = resolve(left), resolve(right)
                if left_loc[0] == right_loc[0]:
                    same_source.append((left_loc, right_loc, op))
                else:
                    join_edges.append((left_loc, right_loc, op))
            elif left_is_col or right_is_col:
                column = left if left_is_col else right
                literal = right if left_is_col else left
                alias, name = resolve(column)  # type: ignore[arg-type]
                const_filters[alias].append((name, literal.value, op))  # type: ignore[union-attr]
            else:
                if (op == "=" and left.value != right.value) or (  # type: ignore[union-attr]
                    op == "<>" and left.value == right.value  # type: ignore[union-attr]
                ):
                    raise PlanningError(
                        "statement contains a constant-false predicate"
                    )

        # ---- build leaf operators with pushed-down filters ----------------
        leaves: Dict[str, Operator] = {}
        for alias in alias_order:
            shared = shared_scans.get(alias)
            if shared is not None:
                # All of this alias's filters are baked into the shared
                # subtree (they are part of its fingerprint).
                leaves[alias] = CTEScan(
                    shared.name,
                    alias,
                    shared.out_columns,
                    shared.materialize,
                    [],
                    self.params,
                )
                continue
            kind, source = source_specs[alias]
            filters = const_filters[alias]
            equality = [(n, v) for n, v, op in filters if op == "="]
            other = [(n, v, op) for n, v, op in filters if op != "="]
            if kind == "table":
                name = source.name  # type: ignore[union-attr]
                if name.lower() in ctes:
                    info = ctes[name.lower()]
                    positions = [
                        (info.out_columns.index(n), v) for n, v in equality
                    ]
                    op_leaf: Operator = CTEScan(
                        name,
                        alias,
                        info.out_columns,
                        info.materialize,
                        positions,
                        self.params,
                    )
                else:
                    table = self.catalog.table(name)
                    stats = self.catalog.statistics(name)
                    positions = [
                        (table.column_position(n), v) for n, v in equality
                    ]
                    op_leaf = self._table_leaf(table, alias, positions, stats)
            else:
                inner = subquery_ops[alias]
                local = [label.split(".")[-1] for label in inner.columns]
                relabeled = Project(
                    inner,
                    [
                        (position, None, f"{alias}.{name}")
                        for position, name in enumerate(local)
                    ],
                    self.params,
                )
                op_leaf = relabeled
                if equality:
                    tests = [(local.index(n), v, "=") for n, v in equality]
                    op_leaf = ConstFilter(op_leaf, tests)
            if other:
                local = columns_of(alias)
                tests = [(local.index(n), v, op) for n, v, op in other]
                op_leaf = ConstFilter(op_leaf, tests)
            # Same-source column equalities apply immediately on the leaf.
            pairs = []
            for left_loc, right_loc, op in same_source:
                if left_loc[0] == alias:
                    local = columns_of(alias)
                    pairs.append(
                        (local.index(left_loc[1]), local.index(right_loc[1]), op)
                    )
            if pairs:
                op_leaf = Filter(op_leaf, pairs)
            leaves[alias] = op_leaf

        # ---- projection resolution (needed for join-time pruning) ---------
        projection_locs: List[Tuple[Optional[Tuple[str, str]], object, Optional[str]]] = []
        needed_labels: Set[str] = set()
        for expr, out_alias in core.projections:
            if isinstance(expr, Literal):
                projection_locs.append((None, expr.value, out_alias))
            else:
                alias, name = resolve(expr)
                projection_locs.append(((alias, name), None, out_alias))
                needed_labels.add(f"{alias}.{name}")

        # ---- greedy join ordering ----------------------------------------
        # Under set semantics (SELECT DISTINCT, or an arm of a
        # deduplicating UNION) intermediate results may be deduplicated
        # as soon as columns are pruned away — base relations are sets,
        # so only column dropping can introduce duplicates, and early
        # dedup keeps skew-driven join blowups from cascading.
        set_semantics = core.distinct or union_dedups
        composite = self._order_joins(
            leaves, alias_order, join_edges, needed_labels, set_semantics
        )

        # ---- projection + distinct ----------------------------------------
        items: List[Tuple[Optional[int], object, str]] = []
        for loc, value, out_alias in projection_locs:
            if loc is None:
                items.append((None, value, out_alias or "literal"))
            else:
                alias, name = loc
                position = composite.columns.index(f"{alias}.{name}")
                items.append((position, None, out_alias or name))
        projected = Project(composite, items, self.params)
        if core.distinct:
            return Distinct(projected, self.params)
        return projected

    # ------------------------------------------------------------------
    def _hash_join_estimate(
        self,
        left: Operator,
        right: Operator,
        keys: List[Tuple[Tuple[str, str], Tuple[str, str]]],
    ) -> float:
        """Cost of ``HashJoin(left, right)`` without constructing it.

        Mirrors :class:`HashJoin`'s own estimate (including the index
        nested-loop discount) so the greedy join ordering can compare
        candidates arithmetically.
        """
        selectivity = 1.0
        for outer_loc, inner_loc in keys:
            left_ndv = left.est_ndv.get(
                f"{outer_loc[0]}.{outer_loc[1]}", left.est_rows or 1.0
            )
            right_ndv = right.est_ndv.get(
                f"{inner_loc[0]}.{inner_loc[1]}", right.est_rows or 1.0
            )
            selectivity /= max(1.0, max(left_ndv, right_ndv))
        est_rows = left.est_rows * right.est_rows * selectivity
        left_index = self._label_index_side(left, [o for o, _ in keys])
        right_index = self._label_index_side(right, [i for _, i in keys])
        if left_index is not None and right_index is not None:
            if left.est_rows >= right.est_rows:
                index_side: Optional[str] = "left"
            else:
                index_side = "right"
        elif left_index is not None:
            index_side = "left"
        elif right_index is not None:
            index_side = "right"
        else:
            index_side = None
        return HashJoin.estimate_cost(
            left, right, est_rows, index_side, self.params
        )

    @staticmethod
    def _label_index_side(operator: Operator, locs) -> Optional[object]:
        """Map (alias, column) locs to positions and ask the executor's
        own eligibility rule, so the join-order estimate can never drift
        from what :class:`HashJoin` actually does."""
        if not isinstance(operator, SeqScan) or operator.filters:
            return None
        columns = operator.table.columns
        try:
            positions = [columns.index(column) for _alias, column in locs]
        except ValueError:
            return None
        return _index_join_side(operator, positions)

    # ------------------------------------------------------------------
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

        def keyed_by(alias: str, joined: Set[str]) -> Optional[Set[str]]:
            """The labels of *alias* in ``=`` edges to *joined*, when every
            reference to it is one (a projected column among them)."""
            keyed = set()
            for left_loc, right_loc, op in pending:
                if alias in (left_loc[0], right_loc[0]):
                    mine, other = (
                        (left_loc, right_loc)
                        if left_loc[0] == alias
                        else (right_loc, left_loc)
                    )
                    if op != "=" or other[0] not in joined:
                        return None
                    keyed.add(f"{alias}.{mine[1]}")
            labels = set(leaves[alias].columns) & needed_labels
            return keyed if labels <= keyed else None

        def label_pairs(keys) -> List[Tuple[str, str]]:
            return [(f"{o[0]}.{o[1]}", f"{i[0]}.{i[1]}") for o, i in keys]

        def dangles(alias: str) -> bool:
            """Whether *alias* is keyed to one other leaf and may repeat a
            key: it drops a column (an unbound position), or it is not a
            base table, whose rows are a set."""
            leaf = leaves[alias]
            base = isinstance(leaf, (SeqScan, IndexScan))
            whole = set(leaf.columns) if base else None
            others = remaining - {alias}
            return any(keyed_by(alias, {b}) not in (None, whole) for b in others)

        # Start with the smallest leaf; under set semantics, not with a
        # dangling one, which a semi-join keeps from multiplying rows.
        starts = [a for a in sorted(remaining) if not set_semantics or not dangles(a)]
        start = min(starts or sorted(remaining), key=lambda a: leaves[a].est_rows)
        composite = leaves[start]
        in_composite = {start}
        remaining.discard(start)
        positions = {label: i for i, label in enumerate(composite.columns)}

        while remaining:
            best_alias = None
            best_keys = None
            best_cost = None
            best_semi = False
            for alias in sorted(remaining):
                keys = join_keys(in_composite, alias)
                leaf = leaves[alias]
                semi = bool(set_semantics and keys) and (
                    keyed_by(alias, in_composite) is not None
                )
                if semi:
                    index = self._label_index_side(leaf, [i for _, i in keys])
                    _rows, cost = SemiJoin.estimate_cost(
                        composite, leaf, label_pairs(keys), index is not None, params
                    )
                elif keys:
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
                    best_semi = semi
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
                join = SemiJoin if best_semi else HashJoin
                composite = join(composite, leaf, key_pairs, params)
                # A projected key column of a semi-joined leaf is read
                # from the composite column it equals.
                aliased = {
                    inner: positions[outer]
                    for outer, inner in label_pairs(best_keys)
                    if best_semi and inner in needed_labels
                }
                if aliased:
                    items = [(i, None, c) for i, c in enumerate(composite.columns)]
                    items += [(i, None, c) for c, i in aliased.items()]
                    composite = Project(composite, items, params)
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
            used_as_keys = set(label_pairs(best_keys or []))
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


# ---------------------------------------------------------------------------
# Shard-route analysis (partition pruning for hash-sharded storage)
# ---------------------------------------------------------------------------
#
# :class:`repro.storage.sharded_backend.ShardedBackend` hash-partitions
# every table by its *shard key* (the home-key column, the first column
# of the predicate layouts). Before executing a statement it asks this
# analysis where the statement's answers can possibly live:
#
# * **pruned** — every arm's sources are joined on their shard keys and
#   that equivalence class is bound to a constant, so only the shards of
#   those constants can contribute;
# * **scatter** — arms are shard-key co-partitioned but unbound: every
#   shard evaluates the whole statement locally and the results merge
#   (set-union at deduplicating roots, concatenation otherwise);
# * **gather** — some join is *not* on the shard key (matching rows may
#   live on different shards), so shard-local evaluation would miss
#   answers: the referenced tables are gathered to a coordinator first.
#
# The soundness argument for scatter: when every source of an arm is
# anchored in one equality class together with its shard key, all rows
# contributing to one answer carry the same shard-key value and hence
# live on the same shard, so the per-shard evaluations partition the
# global answer. A CTE or subquery source counts as anchored only via an
# *aligned* output column — one equal to its own arms' shard keys — so a
# derived row's column value pins the unique shard that can produce it.


@dataclass(frozen=True)
class ShardRoute:
    """Where a statement must run on hash-sharded storage."""

    #: ``"pruned"`` | ``"scatter"`` | ``"gather"``.
    kind: str
    #: Target shard ids (sorted). Empty means "all shards" for gather.
    shards: Tuple[int, ...]
    #: Base tables the statement references (sorted lowercase names).
    tables: Tuple[str, ...]
    #: Whether the statement's root deduplicates (DISTINCT / UNION), and
    #: therefore whether a multi-shard merge needs a global dedup.
    dedup_root: bool


@dataclass(frozen=True)
class _ShardUnionInfo:
    """What a SELECT-union exposes to an enclosing shard analysis."""

    safe: bool
    out_columns: Tuple[Optional[str], ...]
    #: Output positions whose value equals the arms' shard keys.
    aligned: Tuple[int, ...]
    #: One shard-key-binding literal per arm, or ``None`` when some arm
    #: is unbound (the union needs every shard).
    constants: Optional[Tuple[object, ...]]


_UNSAFE = _ShardUnionInfo(False, (), (), None)


class _UnionFind:
    """A tiny union-find over hashable nodes."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, node: object) -> object:
        parents = self.parent
        parents.setdefault(node, node)
        while parents[node] != node:
            # Path halving: point at the grandparent, then step there.
            grandparent = parents.setdefault(parents[node], parents[node])
            parents[node] = grandparent
            node = grandparent
        return node

    def union(self, a: object, b: object) -> None:
        self.parent[self.find(a)] = self.find(b)


def _shard_resolve(expr, alias_columns, aliases):
    """Map an expression to a union-find node, or ``None`` if ambiguous.

    Unqualified columns resolve against the single source, or the single
    source whose output columns contain the name.
    """
    if isinstance(expr, Literal):
        return ("const", expr.value)
    if not isinstance(expr, ColumnRef):  # pragma: no cover - grammar-total
        return None
    if expr.table is not None:
        if expr.table not in alias_columns:
            return None
        return ("col", expr.table, expr.column)
    candidates = [
        alias
        for alias in aliases
        if alias_columns[alias] is not None and expr.column in alias_columns[alias]
    ]
    if len(candidates) == 1:
        return ("col", candidates[0], expr.column)
    if not candidates and len(aliases) == 1:
        return ("col", aliases[0], expr.column)
    return None


def _collect_shard_tables(
    union: SelectUnion, cte_names, tables_seen
) -> None:
    """Collect every base table a SELECT-union references, recursing into
    derived subqueries. Runs unconditionally *before* the safety
    analysis: the gather route materializes exactly these tables on the
    coordinator, so the list must be complete even when the analysis
    bails out early on an unsafe source."""
    for core in union.selects:
        for source in core.sources:
            if isinstance(source, TableSource):
                if source.name not in cte_names:
                    tables_seen.add(source.name.lower())
            else:
                _collect_shard_tables(source.statement, cte_names, tables_seen)


def _analyze_shard_core(core: SelectCore, env, table_keys) -> _ShardUnionInfo:
    """Analyze one SELECT block; see :func:`analyze_shard_route`."""
    aliases: List[str] = []
    alias_columns: Dict[str, Optional[Tuple[str, ...]]] = {}
    key_nodes: Dict[str, Tuple] = {}
    for source in core.sources:
        if isinstance(source, TableSource):
            info = env.get(source.name)
            if info is None:
                entry = table_keys.get(source.name.lower())
                if entry is None:
                    return _UNSAFE
                columns, key_column = entry
                keys = (("col", source.alias, key_column),)
            else:
                if not info.safe:
                    return _UNSAFE
                columns = info.out_columns
                keys = tuple(
                    ("col", source.alias, columns[p])
                    for p in info.aligned
                    if columns[p] is not None
                )
        else:
            assert isinstance(source, SubquerySource)
            info = _analyze_shard_union(source.statement, env, table_keys)
            if not info.safe:
                return _UNSAFE
            columns = info.out_columns
            keys = tuple(
                ("col", source.alias, columns[p])
                for p in info.aligned
                if columns[p] is not None
            )
        if source.alias in alias_columns:
            return _UNSAFE  # duplicate alias: resolution would be ambiguous
        aliases.append(source.alias)
        alias_columns[source.alias] = tuple(c for c in columns) if columns else ()
        key_nodes[source.alias] = keys

    uf = _UnionFind()
    nodes: List[object] = []
    for alias, keys in key_nodes.items():
        for node in keys:
            uf.find(node)
            nodes.append(node)
    for condition in core.conditions:
        if condition.op != "=":
            continue
        left = _shard_resolve(condition.left, alias_columns, aliases)
        right = _shard_resolve(condition.right, alias_columns, aliases)
        if left is None or right is None:
            return _UNSAFE
        uf.union(left, right)
        nodes.extend((left, right))

    # Classes in which *every* source is anchored through a key node.
    candidates: Optional[Set[object]] = None
    for alias in aliases:
        keys = key_nodes[alias]
        if not keys:
            return _UNSAFE
        roots = {uf.find(node) for node in keys}
        candidates = roots if candidates is None else candidates & roots
        if not candidates:
            return _UNSAFE

    constant: Optional[Tuple[object, ...]] = None
    for node in nodes:
        if node[0] == "const" and uf.find(node) in candidates:
            constant = (node[1],)
            break

    aligned: List[int] = []
    out_columns: List[Optional[str]] = []
    for position, (expr, alias) in enumerate(core.projections):
        if alias is not None:
            out_columns.append(alias)
        elif isinstance(expr, ColumnRef):
            out_columns.append(expr.column)
        else:
            out_columns.append(None)
        node = _shard_resolve(expr, alias_columns, aliases)
        if node is not None and uf.find(node) in candidates:
            aligned.append(position)
    return _ShardUnionInfo(
        True, tuple(out_columns), tuple(aligned), constant
    )


def _analyze_shard_union(
    union: SelectUnion, env, table_keys
) -> _ShardUnionInfo:
    """Combine the arms of one SELECT-union; see :func:`analyze_shard_route`."""
    infos = [
        _analyze_shard_core(core, env, table_keys) for core in union.selects
    ]
    if not all(info.safe for info in infos):
        return _UNSAFE
    if len(infos) > 1 and union.all:
        # UNION ALL keeps duplicates, but an arm's own DISTINCT dedups
        # only within a shard: the arm must expose a shard-aligned
        # column, or the same row could surface from several shards.
        for core, info in zip(union.selects, infos):
            if core.distinct and not info.aligned:
                return _UNSAFE
    aligned = set(infos[0].aligned)
    for info in infos[1:]:
        aligned &= set(info.aligned)
    constants: Optional[Tuple[object, ...]] = ()
    for info in infos:
        if info.constants is None:
            constants = None
            break
        constants = constants + info.constants
    return _ShardUnionInfo(
        True, infos[0].out_columns, tuple(sorted(aligned)), constants
    )


def analyze_shard_route(
    statement: Statement,
    table_keys: Dict[str, Tuple[Tuple[str, ...], str]],
    shard_count: int,
    shard_of,
) -> ShardRoute:
    """Decide how *statement* must execute over hash-sharded tables.

    ``table_keys`` maps lowercase table names to ``(columns, shard key
    column)``; ``shard_of(value)`` maps a shard-key value to its shard
    id. Statements referencing unknown tables, or whose joins cannot be
    proven shard-key co-partitioned, fall back to ``"gather"`` — the
    analysis is conservative: it may gather more than strictly needed
    but never scatters a statement whose answers span shards.
    """
    env: Dict[str, _ShardUnionInfo] = {}
    tables_seen: Set[str] = set()
    cte_names = {name for name, _ in statement.ctes}
    for _name, cte_union in statement.ctes:
        _collect_shard_tables(cte_union, cte_names, tables_seen)
    _collect_shard_tables(statement.body, cte_names, tables_seen)
    safe = True
    for name, cte_union in statement.ctes:
        info = _analyze_shard_union(cte_union, env, table_keys)
        env[name] = info
        safe = safe and info.safe
    body = _analyze_shard_union(statement.body, env, table_keys)
    safe = safe and body.safe

    if len(statement.body.selects) > 1:
        dedup_root = not statement.body.all
    else:
        dedup_root = statement.body.selects[0].distinct
    tables = tuple(sorted(tables_seen))
    if not safe:
        return ShardRoute("gather", (), tables, dedup_root)
    if body.constants is not None:
        shards = tuple(sorted({shard_of(value) for value in body.constants}))
        return ShardRoute("pruned", shards, tables, dedup_root)
    return ShardRoute("scatter", tuple(range(shard_count)), tables, dedup_root)
