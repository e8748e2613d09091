"""Physical operators: vectorized (batch-at-a-time) with cost annotations.

Operators exchange **columnar batches** — sequences of per-column value
sequences, all of equal length (``batch_size`` rows from a scan; joins
and filters emit whatever survives) — instead of single rows. Filters
compute selection vectors with list comprehensions, hash joins
build/probe whole columns at a time, and dedup zips a batch back to row
tuples once instead of pulling rows through a generator chain. Empty
batches are never emitted.

Every operator exposes:

* ``columns`` — qualified output column labels (``alias.column``);
* ``est_rows`` / ``est_ndv`` / ``cost`` — the planner's estimates
  (cumulative cost includes the children);
* ``batches(context)`` — the executed batch iterator; ``context`` maps a
  materialized CTE name to its list of batches;
* ``rows(context)`` — compatibility wrapper flattening the batches.

Cost constants live in :class:`CostParameters` so backends can be
calibrated (Section 6.1 of the paper calibrates "a few constant
coefficients" per system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.relation import Index, Table

Row = Tuple
#: A columnar batch: one sequence of values per column, equal lengths.
Batch = Sequence[Sequence]
#: Execution context: materialized CTE name -> list of batches.
Context = Dict[str, List[Batch]]


@dataclass
class CostParameters:
    """Calibration constants for the engine's cost model."""

    seq_scan_per_row: float = 1.0
    index_probe: float = 0.02
    #: Per-result-row cost of an index lookup (cheaper than scan output:
    #: matching rows come straight out of a hash bucket).
    index_probe_per_row: float = 0.05
    hash_build_per_row: float = 1.2
    hash_probe_per_row: float = 1.0
    output_per_row: float = 0.4
    dedup_per_row: float = 1.1
    materialize_per_row: float = 0.8
    cross_join_penalty: float = 8.0
    #: Rows per columnar batch (execution tuning, not a cost).
    batch_size: int = 1024


DEFAULT_COSTS = CostParameters()


def _gather(batch: Batch, selection: List[int]) -> List[List]:
    """Select *selection* positions out of every column of *batch*."""
    return [[column[i] for i in selection] for column in batch]


def _chunked(rows: List[Row], batch_size: int) -> Iterator[Batch]:
    """Transpose a row list into columnar batches."""
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        if chunk:
            yield tuple(zip(*chunk))


class Operator:
    """Base class for physical operators."""

    columns: List[str]
    est_rows: float
    est_ndv: Dict[str, float]
    cost: float

    def batches(self, context: Context) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self, context: Context) -> Iterator[Row]:
        """Row-at-a-time view of :meth:`batches` (compatibility)."""
        for batch in self.batches(context):
            yield from zip(*batch)

    def children(self) -> Sequence["Operator"]:
        return ()

    def label(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__


class SeqScan(Operator):
    """Full scan of a base table, with optional pushed-down equality filters.

    Unfiltered scans serve the table's cached columnar batches directly;
    filtered scans select matching rows in one pass. When an applicable
    hash index exists the planner emits :class:`IndexScan` instead.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        filters: Sequence[Tuple[int, object]],
        stats,
        params: CostParameters,
    ) -> None:
        self.table = table
        self.alias = alias
        self.filters = list(filters)
        self.columns = [f"{alias}.{c}" for c in table.columns]
        self._batch_size = params.batch_size
        cardinality = float(max(stats.cardinality, 0))
        selectivity = 1.0
        for position, _value in self.filters:
            column = table.columns[position]
            selectivity /= max(1.0, float(stats.distinct(column)))
        self.est_rows = max(cardinality * selectivity, 0.0)
        self.est_ndv = {}
        for column in table.columns:
            ndv = float(stats.distinct(column))
            self.est_ndv[f"{alias}.{column}"] = max(
                1.0, min(ndv, self.est_rows or 1.0)
            )
        self.cost = params.seq_scan_per_row * cardinality

    def batches(self, context: Context) -> Iterator[Batch]:
        if not self.filters:
            yield from self.table.column_batches(self._batch_size)
            return
        rows = self.table.rows
        if len(self.filters) == 1:
            position, value = self.filters[0]
            matched = [r for r in rows if r[position] == value]
        else:
            filters = self.filters
            matched = [r for r in rows if all(r[p] == v for p, v in filters)]
        yield from _chunked(matched, self._batch_size)

    def label(self) -> str:
        rendered = f"SeqScan {self.table.name} AS {self.alias}"
        if self.filters:
            conds = ", ".join(
                f"{self.table.columns[p]}={v!r}" for p, v in self.filters
            )
            rendered += f" [{conds}]"
        return rendered


class IndexScan(Operator):
    """Equality lookup through a table's hash index.

    ``key_filters`` (one per index column, in index order) are answered
    by the bucket probe; ``residual`` equality filters — pushed-down
    predicates on non-index columns — are applied to the bucket rows.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        index: Index,
        key_filters: Sequence[Tuple[int, object]],
        residual: Sequence[Tuple[int, object]],
        stats,
        params: CostParameters,
    ) -> None:
        self.table = table
        self.alias = alias
        self.index = index
        self.key_filters = list(key_filters)
        self.residual = list(residual)
        self.columns = [f"{alias}.{c}" for c in table.columns]
        self._batch_size = params.batch_size
        self._key = tuple(value for _position, value in self.key_filters)
        cardinality = float(max(stats.cardinality, 0))
        selectivity = 1.0
        for position, _value in self.key_filters + self.residual:
            column = table.columns[position]
            selectivity /= max(1.0, float(stats.distinct(column)))
        self.est_rows = max(cardinality * selectivity, 0.0)
        self.est_ndv = {}
        for column in table.columns:
            ndv = float(stats.distinct(column))
            self.est_ndv[f"{alias}.{column}"] = max(
                1.0, min(ndv, self.est_rows or 1.0)
            )
        self.cost = params.index_probe + (
            params.index_probe_per_row * self.est_rows
        )

    def batches(self, context: Context) -> Iterator[Batch]:
        matched = self.index.lookup(self._key)
        if self.residual:
            residual = self.residual
            matched = [
                r for r in matched if all(r[p] == v for p, v in residual)
            ]
        yield from _chunked(matched, self._batch_size)

    def label(self) -> str:
        conds = ", ".join(
            f"{self.table.columns[p]}={v!r}"
            for p, v in self.key_filters + self.residual
        )
        return f"IndexScan {self.table.name} AS {self.alias} [{conds}]"


class CTEScan(Operator):
    """Scan of a materialized WITH-subquery (or a planner-shared scan).

    An unfiltered CTEScan re-serves the materialized batches as-is, so
    every UNION arm behind a shared scan reads the same columnar data
    with zero per-arm transpose or copy work.
    """

    def __init__(
        self,
        name: str,
        alias: str,
        cte_columns: Sequence[str],
        cte_root: Operator,
        filters: Sequence[Tuple[int, object]],
        params: CostParameters,
    ) -> None:
        self.name = name
        self.alias = alias
        self.filters = list(filters)
        self.columns = [f"{alias}.{c}" for c in cte_columns]
        selectivity = 1.0
        for position, _value in self.filters:
            source_label = cte_root.columns[position]
            ndv = cte_root.est_ndv.get(source_label, cte_root.est_rows or 1.0)
            selectivity /= max(1.0, ndv)
        self.est_rows = max(cte_root.est_rows * selectivity, 0.0)
        self.est_ndv = {}
        for out_label, src_label in zip(self.columns, cte_root.columns):
            ndv = cte_root.est_ndv.get(src_label, self.est_rows or 1.0)
            self.est_ndv[out_label] = max(1.0, min(ndv, self.est_rows or 1.0))
        self.cost = params.seq_scan_per_row * max(cte_root.est_rows, 0.0)

    def batches(self, context: Context) -> Iterator[Batch]:
        stored = context[self.name]
        filters = self.filters
        if not filters:
            yield from stored
            return
        for batch in stored:
            position, value = filters[0]
            column = batch[position]
            selection = [i for i, v in enumerate(column) if v == value]
            for position, value in filters[1:]:
                column = batch[position]
                selection = [i for i in selection if column[i] == value]
            if not selection:
                continue
            if len(selection) == len(batch[0]):
                yield batch
            else:
                yield _gather(batch, selection)

    def label(self) -> str:
        return f"CTEScan {self.name} AS {self.alias}"


class Filter(Operator):
    """Row-level filter: column-to-column equality within a single row."""

    def __init__(
        self, child: Operator, pairs: Sequence[Tuple[int, int, str]]
    ) -> None:
        self.child = child
        self.pairs = list(pairs)  # (left position, right position, op)
        self.columns = list(child.columns)
        selectivity = 1.0
        for left, right, op in self.pairs:
            if op == "=":
                ndv = max(
                    child.est_ndv.get(child.columns[left], 1.0),
                    child.est_ndv.get(child.columns[right], 1.0),
                )
                selectivity /= max(1.0, ndv)
        self.est_rows = child.est_rows * selectivity
        self.est_ndv = {
            label: min(ndv, self.est_rows or 1.0)
            for label, ndv in child.est_ndv.items()
        }
        self.cost = child.cost

    def _select(self, batch: Batch) -> Optional[Batch]:
        pairs = self.pairs
        left, right, op = pairs[0]
        left_col, right_col = batch[left], batch[right]
        if op == "=":
            selection = [
                i
                for i, (a, b) in enumerate(zip(left_col, right_col))
                if a == b
            ]
        else:
            selection = [
                i
                for i, (a, b) in enumerate(zip(left_col, right_col))
                if a != b
            ]
        for left, right, op in pairs[1:]:
            left_col, right_col = batch[left], batch[right]
            if op == "=":
                selection = [
                    i for i in selection if left_col[i] == right_col[i]
                ]
            else:
                selection = [
                    i for i in selection if left_col[i] != right_col[i]
                ]
        if not selection:
            return None
        if len(selection) == len(batch[0]):
            return batch
        return _gather(batch, selection)

    def batches(self, context: Context) -> Iterator[Batch]:
        select = self._select
        for batch in self.child.batches(context):
            selected = select(batch)
            if selected is not None:
                yield selected

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        conds = ", ".join(
            f"{self.columns[l]} {op} {self.columns[r]}" for l, r, op in self.pairs
        )
        return f"Filter [{conds}]"


class ConstFilter(Operator):
    """Filter rows by comparing a column against a constant.

    Used when a constant predicate cannot be pushed into a scan (e.g. on a
    derived subquery input).
    """

    def __init__(
        self, child: Operator, tests: Sequence[Tuple[int, object, str]]
    ) -> None:
        self.child = child
        self.tests = list(tests)  # (position, value, op)
        self.columns = list(child.columns)
        selectivity = 1.0
        for position, _value, op in self.tests:
            if op == "=":
                ndv = child.est_ndv.get(child.columns[position], 1.0)
                selectivity /= max(1.0, ndv)
        self.est_rows = child.est_rows * selectivity
        self.est_ndv = {
            label: min(ndv, self.est_rows or 1.0)
            for label, ndv in child.est_ndv.items()
        }
        self.cost = child.cost

    def _select(self, batch: Batch) -> Optional[Batch]:
        tests = self.tests
        position, value, op = tests[0]
        column = batch[position]
        if op == "=":
            selection = [i for i, v in enumerate(column) if v == value]
        else:
            selection = [i for i, v in enumerate(column) if v != value]
        for position, value, op in tests[1:]:
            column = batch[position]
            if op == "=":
                selection = [i for i in selection if column[i] == value]
            else:
                selection = [i for i in selection if column[i] != value]
        if not selection:
            return None
        if len(selection) == len(batch[0]):
            return batch
        return _gather(batch, selection)

    def batches(self, context: Context) -> Iterator[Batch]:
        select = self._select
        for batch in self.child.batches(context):
            selected = select(batch)
            if selected is not None:
                yield selected

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        conds = ", ".join(
            f"{self.columns[p]} {op} {v!r}" for p, v, op in self.tests
        )
        return f"ConstFilter [{conds}]"


def _index_join_side(
    operator: Operator, key_positions: Sequence[int]
) -> Optional[Index]:
    """An index answering a join against *operator*, if one applies.

    The side must be a bare full-table scan (no pushed filters — the
    index holds *all* the table's rows) with a hash index exactly
    matching the join key columns (single column, or either order for
    two-column keys).
    """
    if not isinstance(operator, SeqScan) or operator.filters:
        return None
    table = operator.table
    names = tuple(table.columns[p] for p in key_positions)
    index = table.index_on(names)
    if index is None and len(names) == 2:
        index = table.index_on((names[1], names[0]))
    return index


class HashJoin(Operator):
    """Equi-join, batch-at-a-time.

    Generic path: build a hash table from the (estimated) smaller input,
    stream the other side's batches through it. Index path: when one
    input is a bare table scan whose join key matches an existing hash
    index, the index *is* the build side — the table is never scanned
    and no per-query hash table is built (an index nested-loop join).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        key_pairs: Sequence[Tuple[int, int]],
        params: CostParameters,
    ) -> None:
        self.left = left
        self.right = right
        self.key_pairs = list(key_pairs)  # positions: (left, right)
        self.columns = list(left.columns) + list(right.columns)
        selectivity = 1.0
        for left_pos, right_pos in self.key_pairs:
            left_ndv = left.est_ndv.get(left.columns[left_pos], left.est_rows or 1.0)
            right_ndv = right.est_ndv.get(
                right.columns[right_pos], right.est_rows or 1.0
            )
            selectivity /= max(1.0, max(left_ndv, right_ndv))
        self.est_rows = left.est_rows * right.est_rows * selectivity
        self.est_ndv = {}
        for label, ndv in list(left.est_ndv.items()) + list(right.est_ndv.items()):
            self.est_ndv[label] = max(1.0, min(ndv, self.est_rows or 1.0))
        self._index_side, self._index = self._pick_index_side(
            left, right, self.key_pairs
        )
        self.cost = self.estimate_cost(
            left, right, self.est_rows, self._index_side, params
        )

    @staticmethod
    def _pick_index_side(
        left: Operator, right: Operator, key_pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[Optional[str], Optional[Index]]:
        """Which input (if any) can be replaced by an index probe.

        When both qualify, index the larger side: the smaller side
        streams as the probe and the big table is never materialized.
        """
        left_index = _index_join_side(left, [l for l, _ in key_pairs])
        right_index = _index_join_side(right, [r for _, r in key_pairs])
        if left_index is not None and right_index is not None:
            if left.est_rows >= right.est_rows:
                right_index = None
            else:
                left_index = None
        if left_index is not None:
            return "left", left_index
        if right_index is not None:
            return "right", right_index
        return None, None

    @staticmethod
    def estimate_cost(
        left: Operator,
        right: Operator,
        est_rows: float,
        index_side: Optional[str],
        params: CostParameters,
    ) -> float:
        """Cumulative cost of joining *left* and *right*.

        With an index side ("left"/"right"), the indexed table is
        neither scanned nor hashed: pay only the probe side plus
        per-probe index lookups.
        """
        if index_side is not None:
            probe = right if index_side == "left" else left
            return probe.cost + (
                params.hash_probe_per_row * probe.est_rows
                + params.output_per_row * est_rows
            )
        build_rows = min(left.est_rows, right.est_rows)
        probe_rows = max(left.est_rows, right.est_rows)
        return (
            left.cost
            + right.cost
            + (
                params.hash_build_per_row * build_rows
                + params.hash_probe_per_row * probe_rows
                + params.output_per_row * est_rows
            )
        )

    def _build_spec(self) -> Tuple[bool, Operator, List[int], Operator, List[int]]:
        """Which side is built, which probes, and their key positions.

        Build on the side the planner estimates smaller; the other side
        streams batch-at-a-time through the hash table.
        """
        build_is_left = self.left.est_rows <= self.right.est_rows
        build_op = self.left if build_is_left else self.right
        probe_op = self.right if build_is_left else self.left
        if build_is_left:
            build_positions = [l for l, _ in self.key_pairs]
            probe_positions = [r for _, r in self.key_pairs]
        else:
            build_positions = [r for _, r in self.key_pairs]
            probe_positions = [l for l, _ in self.key_pairs]
        return build_is_left, build_op, build_positions, probe_op, probe_positions

    @staticmethod
    def _build_into(
        buckets: Dict[object, List[Row]],
        batches: Iterable[Batch],
        build_positions: List[int],
    ) -> None:
        """Fold *batches* into a hash table keyed on *build_positions*."""
        if len(build_positions) == 1:
            position = build_positions[0]
            for batch in batches:
                for row in zip(*batch):
                    buckets.setdefault(row[position], []).append(row)
        else:
            for batch in batches:
                for row in zip(*batch):
                    key = tuple(row[p] for p in build_positions)
                    buckets.setdefault(key, []).append(row)

    def batches(self, context: Context) -> Iterator[Batch]:
        if self._index is not None:
            probe_op, probe_positions, lookup, probe_is_left = (
                self._index_probe_spec()
            )
            yield from self._probe(
                probe_op.batches(context), probe_positions, lookup, probe_is_left
            )
            return
        _is_left, build_op, build_positions, probe_op, probe_positions = (
            self._build_spec()
        )
        buckets: Dict[object, List[Row]] = {}
        self._build_into(buckets, build_op.batches(context), build_positions)
        if not buckets:
            return
        yield from self._probe(
            probe_op.batches(context),
            probe_positions,
            buckets.get,
            probe_op is self.left,
        )

    def _index_probe_spec(self) -> Tuple[Operator, List[int], object, bool]:
        """Probe side, key positions (in index order) and bucket lookup
        for the index-nested-loop path."""
        build_is_left = self._index_side == "left"
        probe_op = self.right if build_is_left else self.left
        if build_is_left:
            probe_positions = [r for _, r in self.key_pairs]
        else:
            probe_positions = [l for l, _ in self.key_pairs]
        index = self._index
        index_positions = (
            [l for l, _ in self.key_pairs]
            if build_is_left
            else [r for _, r in self.key_pairs]
        )
        build_op = self.left if build_is_left else self.right
        # Bucket keys follow the index's column order, which may be the
        # reverse of the join key order for two-column indexes.
        column_order = tuple(
            build_op.columns[p].split(".", 1)[1] for p in index_positions
        )
        if not index.single and column_order != index.columns:
            ordering = [column_order.index(c) for c in index.columns]
            probe_positions = [probe_positions[i] for i in ordering]
        # Single-column indexes bucket by bare value, so the probe is a
        # plain dict get either way.
        return probe_op, probe_positions, index.buckets.get, not build_is_left

    def _probe(
        self,
        probe_batches: Iterable[Batch],
        probe_positions: List[int],
        lookup,
        probe_is_left: bool,
    ) -> Iterator[Batch]:
        """Stream probe batches through *lookup*, emitting joined batches."""
        single = len(probe_positions) == 1
        for batch in probe_batches:
            matched_rows: List[Row] = []
            selection: List[int] = []
            if single:
                column = batch[probe_positions[0]]
                for i, value in enumerate(column):
                    bucket = lookup(value)
                    if bucket:
                        matched_rows.extend(bucket)
                        selection.extend([i] * len(bucket))
            else:
                key_columns = [batch[p] for p in probe_positions]
                for i, key in enumerate(zip(*key_columns)):
                    bucket = lookup(key)
                    if bucket:
                        matched_rows.extend(bucket)
                        selection.extend([i] * len(bucket))
            if not matched_rows:
                continue
            matched_cols = list(zip(*matched_rows))
            probe_cols = _gather(batch, selection)
            if probe_is_left:
                yield probe_cols + matched_cols
            else:
                yield matched_cols + probe_cols

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def label(self) -> str:
        conds = ", ".join(
            f"{self.left.columns[l]} = {self.right.columns[r]}"
            for l, r in self.key_pairs
        )
        rendered = f"HashJoin [{conds}]"
        if self._index is not None:
            side = self.left if self._index_side == "left" else self.right
            rendered += f" (index probe into {side.table.name})"  # type: ignore[union-attr]
        return rendered


class SemiJoin(Operator):
    """Left rows whose key occurs in the right input, each at most once.

    For an input that gives nothing above the join but its key (set
    semantics only). Membership is a lookup in the right table's hash
    index when it is a bare scan with one — nothing scanned or built —
    and otherwise in one ``set`` of keys built from the right batches.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        key_pairs: Sequence[Tuple[int, int]],
        params: CostParameters,
    ) -> None:
        self.left = left
        self.right = right
        self.key_pairs = list(key_pairs)  # positions: (left, right)
        self.columns = list(left.columns)
        self._index = _index_join_side(right, [r for _, r in self.key_pairs])
        pairs = [(left.columns[l], right.columns[r]) for l, r in self.key_pairs]
        self.est_rows, self.cost = self.estimate_cost(
            left, right, pairs, self._index is not None, params
        )
        self.est_ndv = {
            label: max(1.0, min(ndv, self.est_rows or 1.0))
            for label, ndv in left.est_ndv.items()
        }

    @staticmethod
    def estimate_cost(
        left: Operator,
        right: Operator,
        label_pairs: Sequence[Tuple[str, str]],
        indexed: bool,
        params: CostParameters,
    ) -> Tuple[float, float]:
        """``(est_rows, cumulative cost)``: each key keeps the fraction
        ``min(1, ndv(right) / ndv(left))`` of the left rows; the right
        rows are never output, and on the index path never built."""
        fraction = 1.0
        for left_label, right_label in label_pairs:
            left_ndv = left.est_ndv.get(left_label, left.est_rows or 1.0)
            right_ndv = right.est_ndv.get(right_label, right.est_rows or 1.0)
            fraction *= min(1.0, right_ndv / max(1.0, left_ndv))
        est_rows = left.est_rows * fraction
        cost = left.cost + params.hash_probe_per_row * left.est_rows
        cost += params.output_per_row * est_rows
        if not indexed:
            cost += right.cost + params.hash_build_per_row * right.est_rows
        return est_rows, cost

    def batches(self, context: Context) -> Iterator[Batch]:
        positions = [l for l, _ in self.key_pairs]
        right_positions = [r for _, r in self.key_pairs]
        if self._index is not None:
            members = self._index.buckets
            # Two-column bucket keys follow the index's column order, as
            # in HashJoin._index_probe_spec.
            order = [self.right.columns[p].split(".", 1)[1] for p in right_positions]
            if not self._index.single:
                positions = [positions[order.index(c)] for c in self._index.columns]
        else:
            members = set()
            for batch in self.right.batches(context):
                columns = [batch[p] for p in right_positions]
                members.update(columns[0] if len(columns) == 1 else zip(*columns))
        if not members:
            return
        for batch in self.left.batches(context):
            if len(positions) == 1:
                keys: Iterable = batch[positions[0]]
            else:
                keys = zip(*[batch[p] for p in positions])
            selection = [i for i, key in enumerate(keys) if key in members]
            if len(selection) == len(batch[0]):
                yield batch
            elif selection:
                yield _gather(batch, selection)

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def label(self) -> str:
        conds = ", ".join(
            f"{self.left.columns[l]} = {self.right.columns[r]}"
            for l, r in self.key_pairs
        )
        if self._index is None:
            return f"SemiJoin [{conds}] (key set)"
        return f"SemiJoin [{conds}] (index probe into {self._index.table.name})"


class CrossJoin(Operator):
    """Cartesian product (heavily penalized by the planner)."""

    def __init__(
        self, left: Operator, right: Operator, params: CostParameters
    ) -> None:
        self.left = left
        self.right = right
        self.columns = list(left.columns) + list(right.columns)
        self.est_rows = left.est_rows * right.est_rows
        self.est_ndv = {}
        for label, ndv in list(left.est_ndv.items()) + list(right.est_ndv.items()):
            self.est_ndv[label] = max(1.0, min(ndv, self.est_rows or 1.0))
        self.cost = (
            left.cost
            + right.cost
            + params.cross_join_penalty * self.est_rows
        )

    def batches(self, context: Context) -> Iterator[Batch]:
        width = len(self.right.columns)
        right_cols: List[List] = [[] for _ in range(width)]
        for batch in self.right.batches(context):
            for position in range(width):
                right_cols[position].extend(batch[position])
        if not right_cols or not right_cols[0]:
            return
        count = len(right_cols[0])
        for batch in self.left.batches(context):
            left_out = [
                [value for value in column for _ in range(count)]
                for column in batch
            ]
            size = len(batch[0])
            right_out = [column * size for column in right_cols]
            yield left_out + right_out

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class Project(Operator):
    """Projection onto expressions (column positions or literal values).

    Vectorized projection is column bookkeeping: existing columns are
    re-referenced (no copy), literal columns are materialized once per
    batch.
    """

    def __init__(
        self,
        child: Operator,
        items: Sequence[Tuple[Optional[int], object, str]],
        params: CostParameters,
    ) -> None:
        # items: (source position | None, literal value, output label)
        self.child = child
        self.items = list(items)
        self.columns = [label for _, _, label in items]
        self.est_rows = child.est_rows
        self.est_ndv = {}
        for position, _value, label in items:
            if position is None:
                self.est_ndv[label] = 1.0
            else:
                self.est_ndv[label] = child.est_ndv.get(
                    child.columns[position], self.est_rows or 1.0
                )
        self.cost = child.cost + params.output_per_row * child.est_rows

    def batches(self, context: Context) -> Iterator[Batch]:
        items = self.items
        for batch in self.child.batches(context):
            size = len(batch[0])
            yield [
                batch[position] if position is not None else [value] * size
                for position, value, _label in items
            ]

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        return f"Project [{', '.join(self.columns)}]"


def _dedup_batches(
    source: Iterator[Batch], seen: set
) -> Iterator[Batch]:
    """Drop rows already in *seen* (mutated), batch-at-a-time."""
    for batch in source:
        fresh: List[Row] = []
        append = fresh.append
        add = seen.add
        for row in zip(*batch):
            if row not in seen:
                add(row)
                append(row)
        if not fresh:
            continue
        if len(fresh) == len(batch[0]):
            yield batch
        else:
            yield tuple(zip(*fresh))


class Distinct(Operator):
    """Hash-based duplicate elimination."""

    def __init__(self, child: Operator, params: CostParameters) -> None:
        self.child = child
        self.columns = list(child.columns)
        ndv_product = 1.0
        for label in child.columns:
            ndv_product *= child.est_ndv.get(label, child.est_rows or 1.0)
        self.est_rows = max(1.0, min(child.est_rows, ndv_product))
        self.est_ndv = dict(child.est_ndv)
        self.cost = child.cost + params.dedup_per_row * child.est_rows

    def batches(self, context: Context) -> Iterator[Batch]:
        yield from _dedup_batches(self.child.batches(context), set())

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Union(Operator):
    """UNION (deduplicating) or UNION ALL of equal-arity children.

    Deduplication shares one seen-set across all arms, so duplicate
    answers produced by overlapping UCQ disjuncts are dropped the first
    time a batch crosses the operator.
    """

    def __init__(
        self, inputs: Sequence[Operator], all_rows: bool, params: CostParameters
    ) -> None:
        self.inputs = list(inputs)
        self.all_rows = all_rows
        self.columns = list(inputs[0].columns)
        self.est_rows = sum(op.est_rows for op in inputs)
        self.est_ndv = {}
        for position, label in enumerate(self.columns):
            total = sum(
                op.est_ndv.get(op.columns[position], op.est_rows or 1.0)
                for op in inputs
            )
            self.est_ndv[label] = max(1.0, min(total, self.est_rows or 1.0))
        self.cost = sum(op.cost for op in inputs)
        if not all_rows:
            self.cost += params.dedup_per_row * self.est_rows

    def batches(self, context: Context) -> Iterator[Batch]:
        if self.all_rows:
            for op in self.inputs:
                yield from op.batches(context)
            return
        seen: set = set()
        for op in self.inputs:
            yield from _dedup_batches(op.batches(context), seen)

    def children(self) -> Sequence[Operator]:
        return tuple(self.inputs)

    def label(self) -> str:
        return "Union" if not self.all_rows else "UnionAll"


class Materialize(Operator):
    """Materialization of a CTE result (the WITH evaluation strategy).

    ``shared`` marks planner-introduced shared scans: identical
    scan+filter subtrees detected across UNION arms, evaluated once.
    """

    def __init__(
        self,
        name: str,
        child: Operator,
        params: CostParameters,
        shared: bool = False,
    ) -> None:
        self.name = name
        self.child = child
        self.shared = shared
        self.columns = list(child.columns)
        self.est_rows = child.est_rows
        self.est_ndv = dict(child.est_ndv)
        self.cost = child.cost + params.materialize_per_row * child.est_rows

    def batches(self, context: Context) -> Iterator[Batch]:
        return self.child.batches(context)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        if self.shared:
            return f"Materialize {self.name} (shared scan)"
        return f"Materialize {self.name}"
