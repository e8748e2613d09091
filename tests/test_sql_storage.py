"""SQL translation + storage tests.

The central property is *differential*: for every dialect and every layout,
evaluating the translated SQL on both backends returns exactly the answers
the trusted naive evaluator computes.
"""

import pytest

from repro.dllite.parser import parse_query
from repro.queries.cq import CQ
from repro.queries.evaluate import evaluate
from repro.queries.jucq import JUCQ
from repro.queries.terms import Variable
from repro.queries.ucq import UCQ
from repro.reformulation.perfectref import reformulate_to_ucq
from repro.reformulation.uscq import factorize_ucq
from repro.sql.translator import SQLTranslator
from repro.storage.dictionary import Dictionary
from repro.storage.layouts import RDFLayout, SimpleLayout, TYPE_PREDICATE
from repro.storage.memory_backend import MemoryBackend
from repro.storage.sqlite_backend import SQLiteBackend

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture
def abox(example1_abox):
    example1_abox.add_concept("PhDStudent", "Damian")
    example1_abox.add_concept("Researcher", "Ioana")
    return example1_abox


def _decoded(rows, dictionary):
    return {dictionary.decode_row(row) for row in rows}


def _load(layout, abox, backend):
    data = layout.build(abox)
    backend.load(data)
    return backend


class TestDictionary:
    def test_roundtrip(self):
        d = Dictionary()
        code = d.encode("Damian")
        assert d.decode(code) == "Damian"
        assert d.encode("Damian") == code
        assert len(d) == 1

    def test_try_encode_unknown(self):
        d = Dictionary()
        assert d.try_encode("nope") is None

    def test_contains(self):
        d = Dictionary()
        d.encode("a")
        assert "a" in d and "b" not in d

    def test_decode_rows_equals_decoding_row_by_row(self):
        d = Dictionary()
        values = ["a", "_:null0", "b", "_:null1", "c"]
        codes = d.encode_many(values)
        for arity in (1, 2, 3):
            rows = [tuple(codes[(i + k) % 5] for k in range(arity)) for i in range(5)]
            rows.append(rows[0])  # a duplicate: the result is a set
            decoded = {d.decode_row(row) for row in rows}
            assert d.decode_rows(rows) == decoded
            certain = {
                row for row in decoded if not any(v.startswith("_:null") for v in row)
            }
            assert d.decode_rows(rows, drop_nulls=True) == certain
        assert d.decode_rows([]) == set()
        assert d.decode_rows([(codes[1],)], drop_nulls=True) == set()


class TestSimpleLayout:
    def test_tables_and_indexes(self, abox):
        layout = SimpleLayout()
        data = layout.build(abox)
        names = {spec.name for spec in data.tables}
        assert names == {
            "c_phdstudent",
            "c_researcher",
            "r_workswith",
            "r_supervisedby",
        }
        role_spec = [s for s in data.tables if s.name == "r_workswith"][0]
        assert role_spec.indexes == (("s",), ("o",), ("s", "o"))

    def test_encoding_is_consistent_across_tables(self, abox):
        layout = SimpleLayout()
        data = layout.build(abox)
        damian = layout.dictionary.try_encode("Damian")
        student_rows = [s for s in data.tables if s.name == "c_phdstudent"][0].rows
        supervised = [s for s in data.tables if s.name == "r_supervisedby"][0].rows
        assert (damian,) in student_rows
        assert any(row[0] == damian for row in supervised)

    def test_atom_branches_single(self, abox):
        layout = SimpleLayout()
        branches = layout.atom_branches(parse_query("q(x) <- PhDStudent(x)").atoms[0])
        assert len(branches) == 1
        assert branches[0].table == "c_phdstudent"


class TestRDFLayout:
    def test_single_wide_table(self, abox):
        layout = RDFLayout(width=4)
        data = layout.build(abox)
        assert len(data.tables) == 1
        spec = data.tables[0]
        assert spec.name == "dph"
        assert len(spec.columns) == 1 + 2 * 4

    def test_every_fact_is_stored(self, abox):
        layout = RDFLayout(width=4)
        data = layout.build(abox)
        spec = data.tables[0]
        # Count non-null (pred, value) pairs == number of assertions.
        pairs = 0
        for row in spec.rows:
            for i in range(4):
                if row[1 + 2 * i] is not None:
                    pairs += 1
        assert pairs == len(abox)

    def test_spill_rows_on_narrow_width(self, abox):
        layout = RDFLayout(width=1)
        data = layout.build(abox)
        spec = data.tables[0]
        damian = layout.dictionary.try_encode("Damian")
        damian_rows = [r for r in spec.rows if r[0] == damian]
        # Damian has 3 assertions but width 1 -> three spill rows.
        assert len(damian_rows) == 3

    def test_atom_branches_cover_all_columns(self, abox):
        layout = RDFLayout(width=4)
        layout.build(abox)
        atom = parse_query("q(x, y) <- worksWith(x, y)").atoms[0]
        branches = layout.atom_branches(atom)
        assert len(branches) == 4
        tables = {b.table for b in branches}
        assert tables == {"dph"}

    def test_concept_atoms_use_type_predicate(self, abox):
        layout = RDFLayout(width=2)
        layout.build(abox)
        atom = parse_query("q(x) <- PhDStudent(x)").atoms[0]
        branches = layout.atom_branches(atom)
        type_code = layout.dictionary.try_encode(TYPE_PREDICATE)
        for branch in branches:
            fixed = dict(branch.fixed)
            assert type_code in fixed.values()


from backend_conformance import (  # noqa: E402
    check_dialect_translations,
)


def _backends():
    return [SQLiteBackend(), MemoryBackend()]


class TestDifferentialCQ:
    """SQL on both backends == naive evaluation, on both layouts.

    Delegates to the reusable conformance suite, which runs the same
    checks over ShardedBackend too (test_backend_conformance.py).
    """

    @pytest.mark.parametrize("backend_factory", [SQLiteBackend, MemoryBackend])
    @pytest.mark.parametrize(
        "layout_factory", [SimpleLayout, lambda: RDFLayout(width=4)]
    )
    def test_cq_translation(
        self, abox, example1_tbox, backend_factory, layout_factory
    ):
        check_dialect_translations(
            backend_factory, layout_factory, abox, example1_tbox
        )


class TestDifferentialReformulations:
    """UCQ / JUCQ / JUSCQ reformulations agree across engines and layouts."""

    @pytest.fixture
    def query(self):
        return parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")

    def test_ucq_reformulation_all_backends(
        self, abox, query, example1_tbox
    ):
        ucq = reformulate_to_ucq(query, example1_tbox)
        expected = evaluate(ucq, abox.fact_store())
        assert ("Damian",) in expected
        for layout in (SimpleLayout(), RDFLayout(width=4)):
            data = layout.build(abox)
            sql = SQLTranslator(layout).translate(ucq)
            for backend in _backends():
                backend.load(data)
                rows = backend.execute(sql)
                assert _decoded(rows, layout.dictionary) == expected, (
                    backend.name,
                    layout.name,
                )

    def test_jucq_reformulation_all_backends(self, abox, query, example1_tbox):
        from repro.covers.reformulate import cover_based_reformulation
        from repro.covers.safety import root_cover

        cover = root_cover(query, example1_tbox)
        jucq = cover_based_reformulation(cover, example1_tbox)
        expected = evaluate(jucq, abox.fact_store())
        for layout in (SimpleLayout(), RDFLayout(width=4)):
            data = layout.build(abox)
            sql = SQLTranslator(layout).translate(jucq)
            for backend in _backends():
                backend.load(data)
                rows = backend.execute(sql)
                assert _decoded(rows, layout.dictionary) == expected, (
                    backend.name,
                    layout.name,
                )

    def test_juscq_reformulation_all_backends(self, abox, query, example1_tbox):
        from repro.covers.reformulate import cover_based_uscq_reformulation
        from repro.covers.safety import root_cover

        cover = root_cover(query, example1_tbox)
        juscq = cover_based_uscq_reformulation(cover, example1_tbox)
        expected = evaluate(juscq, abox.fact_store())
        layout = SimpleLayout()
        data = layout.build(abox)
        sql = SQLTranslator(layout).translate(juscq)
        for backend in _backends():
            backend.load(data)
            rows = backend.execute(sql)
            assert _decoded(rows, layout.dictionary) == expected, backend.name

    def test_uscq_translation(self, abox, query, example1_tbox):
        ucq = reformulate_to_ucq(query, example1_tbox, minimize=True)
        uscq = factorize_ucq(ucq)
        expected = evaluate(ucq, abox.fact_store())
        layout = SimpleLayout()
        data = layout.build(abox)
        sql = SQLTranslator(layout).translate(uscq)
        for backend in _backends():
            backend.load(data)
            rows = backend.execute(sql)
            assert _decoded(rows, layout.dictionary) == expected, backend.name


class TestCostEstimates:
    def test_both_backends_expose_costs(self, abox):
        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        layout = SimpleLayout()
        data = layout.build(abox)
        sql = SQLTranslator(layout).translate(query)
        for backend in _backends():
            backend.load(data)
            assert backend.estimated_cost(sql) > 0

    def test_sqlite_shadow_tracks_scale(self, abox):
        # A bigger table must raise the estimated scan cost.
        layout = SimpleLayout()
        for i in range(200):
            abox.add_role("worksWith", f"p{i}", f"q{i}")
        data = layout.build(abox)
        backend = SQLiteBackend()
        backend.load(data)
        small = backend.estimated_cost("SELECT DISTINCT s FROM c_phdstudent")
        big = backend.estimated_cost("SELECT DISTINCT s FROM r_workswith")
        assert big > small

    def test_memory_backend_statement_limit(self, abox):
        layout = SimpleLayout()
        data = layout.build(abox)
        backend = MemoryBackend(max_statement_length=50)
        backend.load(data)
        from repro.engine.errors import StatementTooLongError

        with pytest.raises(StatementTooLongError):
            backend.execute(
                "SELECT DISTINCT s FROM c_phdstudent WHERE s = 1 AND s = 1 AND s = 1"
            )

    def test_explain_text_available(self, abox):
        layout = SimpleLayout()
        data = layout.build(abox)
        sql = "SELECT DISTINCT s FROM c_phdstudent"
        memory = MemoryBackend()
        memory.load(data)
        assert "Distinct" in memory.explain_text(sql)
        lite = SQLiteBackend()
        lite.load(data)
        assert lite.explain_text(sql)
