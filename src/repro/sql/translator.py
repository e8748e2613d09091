"""Translate FOL queries (CQ/UCQ/SCQ/USCQ/JUCQ/JUSCQ) to SQL.

The translation follows Section 3 of the paper:

* a CQ becomes a ``SELECT [DISTINCT]`` block — one FROM source per atom
  (a table on the simple layout; an inline union of column probes on the
  RDF layout), join predicates from repeated variables, and constant
  predicates from dictionary-encoded constants;
* a UCQ becomes a ``UNION`` of CQ blocks with positionally aligned output
  aliases;
* a JUCQ becomes::

      WITH f0 AS (<UCQ of fragment 0>), ..., fn AS (...)
      SELECT DISTINCT <head> FROM f0, ..., fn WHERE <joins on shared vars>

  materializing each reformulated fragment once (footnote 2: fragment
  subqueries deduplicate with DISTINCT to shrink intermediate results);
* SCQs join inline union blocks; USCQs union them; JUSCQs put USCQ
  components in CTEs.

Query constants missing from the dictionary translate to an impossible
code, making the predicate unsatisfiable (correct: the constant appears in
no fact).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.queries.atoms import Atom
from repro.queries.cq import CQ
from repro.queries.jucq import JUCQ, JUSCQ, component_head
from repro.queries.scq import SCQ, USCQ
from repro.queries.terms import Constant, Term, Variable, is_variable
from repro.queries.ucq import UCQ
from repro.storage.layouts import IMPOSSIBLE_CODE, AtomBranch

AnyQuery = Union[CQ, UCQ, SCQ, USCQ, JUCQ, JUSCQ]


def _var_column(variable: Variable) -> str:
    """The SQL output column name carrying a variable's bindings."""
    return f"v_{variable.name}"


class SQLTranslator:
    """Renders queries to SQL against a given layout (and its dictionary)."""

    def __init__(self, layout) -> None:
        self.layout = layout

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def translate(self, query: AnyQuery) -> str:
        """Dispatch on the query dialect."""
        if isinstance(query, CQ):
            return self.cq_to_sql(query)
        if isinstance(query, SCQ):
            return self.scq_to_sql(query)
        if isinstance(query, USCQ):
            return self.uscq_to_sql(query)
        if isinstance(query, UCQ):
            return self.ucq_to_sql(query)
        if isinstance(query, JUCQ):
            return self.jucq_to_sql(query)
        if isinstance(query, JUSCQ):
            return self.juscq_to_sql(query)
        raise TypeError(f"unsupported query dialect: {type(query).__name__}")

    def cq_to_sql(
        self,
        query: CQ,
        out_names: Optional[Sequence[str]] = None,
        distinct: bool = True,
    ) -> str:
        """One SELECT block for a CQ."""
        names = list(out_names) if out_names else self._default_names(query.head)
        return self._cq_select(query, names, distinct)

    def ucq_to_sql(
        self, query: UCQ, out_names: Optional[Sequence[str]] = None
    ) -> str:
        """UNION of the disjuncts' SELECT blocks."""
        names = (
            list(out_names)
            if out_names
            else self._default_names(query.disjuncts[0].head)
        )
        blocks = [
            # Single disjunct: DISTINCT does the set semantics; multiple
            # disjuncts: UNION deduplicates across (and within) blocks.
            self._cq_select(cq, names, distinct=len(query.disjuncts) == 1)
            for cq in query.disjuncts
        ]
        return " UNION ".join(blocks)

    def jucq_to_sql(self, query: JUCQ) -> str:
        """The WITH-based fragment-join SQL of Section 3."""
        ctes: List[str] = []
        fragment_names: List[str] = []
        heads: List[Tuple[Term, ...]] = []
        for position, component in enumerate(query.components):
            name = f"f{position}"
            head = component_head(component)
            out = [self._head_name(term, i) for i, term in enumerate(head)]
            ctes.append(f"{name} AS ({self.ucq_to_sql(component, out)})")
            fragment_names.append(name)
            heads.append(head)
        return self._join_of_components(
            query.head, fragment_names, heads, with_clauses=ctes
        )

    def scq_to_sql(
        self, query: SCQ, out_names: Optional[Sequence[str]] = None
    ) -> str:
        """Join of inline union blocks."""
        sources: List[str] = []
        names: List[str] = []
        heads: List[Tuple[Term, ...]] = []
        for position, block in enumerate(query.blocks):
            name = f"b{position}"
            out = [self._head_name(t, i) for i, t in enumerate(block.disjuncts[0].head)]
            sources.append(f"({self.ucq_to_sql(block, out)}) {name}")
            names.append(name)
            heads.append(block.disjuncts[0].head)
        return self._join_of_components(
            query.head,
            names,
            heads,
            inline_sources=sources,
            out_names=out_names,
        )

    def uscq_to_sql(self, query: USCQ) -> str:
        """UNION of SCQ blocks with positionally aligned output aliases."""
        names = [f"ans{i}" for i in range(query.arity)] or ["ans0"]
        return " UNION ".join(
            self.scq_to_sql(scq, out_names=names) for scq in query.scqs
        )

    def juscq_to_sql(self, query: JUSCQ) -> str:
        """WITH-based join of USCQ components."""
        ctes: List[str] = []
        fragment_names: List[str] = []
        heads: List[Tuple[Term, ...]] = []
        for position, component in enumerate(query.components):
            name = f"f{position}"
            head = component.scqs[0].head
            out = [self._head_name(t, i) for i, t in enumerate(head)]
            body = " UNION ".join(
                self.scq_to_sql(scq, out_names=out) for scq in component.scqs
            )
            ctes.append(f"{name} AS ({body})")
            fragment_names.append(name)
            heads.append(head)
        return self._join_of_components(
            query.head, fragment_names, heads, with_clauses=ctes
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _default_names(self, head: Tuple[Term, ...]) -> List[str]:
        if not head:
            return ["ans0"]
        return [f"ans{i}" for i in range(len(head))]

    def _head_name(self, term: Term, position: int) -> str:
        if is_variable(term):
            return _var_column(term)
        return f"c{position}"

    def _encode(self, constant: Constant) -> int:
        code = self.layout.dictionary.try_encode(str(constant.value))
        return IMPOSSIBLE_CODE if code is None else code

    def _atom_source(
        self, atom: Atom, alias: str
    ) -> Tuple[str, Tuple[str, ...], List[str]]:
        """FROM text, argument column names, and fixed-filter conditions."""
        branches = self.layout.atom_branches(atom)
        if len(branches) == 1:
            branch = branches[0]
            conditions = [
                f"{alias}.{column} = {value}" for column, value in branch.fixed
            ]
            return (f"{branch.table} {alias}", branch.arg_columns, conditions)
        inner: List[str] = []
        out_columns = tuple(f"c{i}" for i in range(atom.arity))
        for branch in branches:
            selects = ", ".join(
                f"{source} AS {target}"
                for source, target in zip(branch.arg_columns, out_columns)
            )
            where = " AND ".join(
                f"{column} = {value}" for column, value in branch.fixed
            )
            block = f"SELECT {selects} FROM {branch.table}"
            if where:
                block += f" WHERE {where}"
            inner.append(block)
        return (f"({' UNION ALL '.join(inner)}) {alias}", out_columns, [])

    def _cq_select(
        self, query: CQ, out_names: Sequence[str], distinct: bool
    ) -> str:
        sources: List[str] = []
        conditions: List[str] = []
        variable_expr: Dict[Variable, str] = {}
        for position, atom in enumerate(query.atoms):
            alias = f"a{position}"
            source, columns, fixed = self._atom_source(atom, alias)
            sources.append(source)
            conditions.extend(fixed)
            for arg_position, term in enumerate(atom.args):
                expr = f"{alias}.{columns[arg_position]}"
                if is_variable(term):
                    bound = variable_expr.get(term)
                    if bound is None:
                        variable_expr[term] = expr
                    else:
                        conditions.append(f"{bound} = {expr}")
                else:
                    conditions.append(f"{expr} = {self._encode(term)}")

        select_items: List[str] = []
        for name, term in zip(out_names, query.head):
            if is_variable(term):
                select_items.append(f"{variable_expr[term]} AS {name}")
            else:
                select_items.append(f"{self._encode(term)} AS {name}")
        if not query.head:
            select_items = [f"1 AS {out_names[0]}"]

        sql = "SELECT "
        if distinct:
            sql += "DISTINCT "
        sql += ", ".join(select_items)
        sql += " FROM " + ", ".join(sources)
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql

    def _join_of_components(
        self,
        head: Tuple[Term, ...],
        names: List[str],
        heads: List[Tuple[Term, ...]],
        with_clauses: Optional[List[str]] = None,
        inline_sources: Optional[List[str]] = None,
        out_names: Optional[Sequence[str]] = None,
    ) -> str:
        """SELECT DISTINCT over joined components (CTEs or inline blocks)."""
        exported: Dict[Variable, str] = {}
        conditions: List[str] = []
        for name, component_head_terms in zip(names, heads):
            for term in component_head_terms:
                if not is_variable(term):
                    continue
                expr = f"{name}.{_var_column(term)}"
                bound = exported.get(term)
                if bound is None:
                    exported[term] = expr
                else:
                    conditions.append(f"{bound} = {expr}")

        out = list(out_names) if out_names else self._default_names(head)
        select_items: List[str] = []
        for label, term in zip(out, head):
            if is_variable(term):
                select_items.append(f"{exported[term]} AS {label}")
            else:
                select_items.append(f"{self._encode(term)} AS {label}")
        if not head:
            select_items = [f"1 AS {out[0]}"]

        if inline_sources is not None:
            from_clause = ", ".join(inline_sources)
        else:
            from_clause = ", ".join(f"{name} {name}" for name in names)

        sql = ""
        if with_clauses:
            sql += "WITH " + ", ".join(with_clauses) + " "
        sql += "SELECT DISTINCT " + ", ".join(select_items)
        sql += " FROM " + from_clause
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql
