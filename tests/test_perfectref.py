"""PerfectRef reformulation tests, pinned to the paper's Examples 4 and 7."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from legacy_canonical_key import legacy_canonical_key
from legacy_perfectref import legacy_perfectref, legacy_reformulate_to_ucq

from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.parser import parse_query
from repro.queries.atoms import concept_atom, role_atom
from repro.queries.cq import CQ
from repro.queries.evaluate import evaluate_ucq
from repro.queries.terms import Variable
from repro.reformulation.perfectref import (
    perfectref,
    perfectref_candidates,
    perfectref_eliminated,
    perfectref_invocations,
    perfectref_results,
    reformulate_to_ucq,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def keys(cqs):
    return {cq.canonical_key() for cq in cqs}


class TestExample4:
    """q(x) <- PhDStudent(x), worksWith(y, x) against the Example 1 TBox."""

    @pytest.fixture
    def query(self) -> CQ:
        return parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")

    def test_ten_distinct_disjuncts(self, query, example1_tbox):
        result = perfectref(query, example1_tbox)
        assert len(result) == 10

    def test_table5_disjuncts_present(self, query, example1_tbox):
        result_keys = keys(perfectref(query, example1_tbox))
        expected = [
            "q(x) <- PhDStudent(x), worksWith(y, x)",    # q1
            "q(x) <- PhDStudent(x), worksWith(x, y)",    # q2
            "q(x) <- PhDStudent(x), supervisedBy(y, x)", # q3
            "q(x) <- PhDStudent(x), supervisedBy(x, y)", # q4
            "q(x) <- supervisedBy(x, z), worksWith(y, x)",    # q5
            "q(x) <- supervisedBy(x, z), worksWith(x, y)",    # q6
            "q(x) <- supervisedBy(x, z), supervisedBy(y, x)", # q7
            "q(x) <- supervisedBy(x, z), supervisedBy(x, y)", # q8
            "q(x) <- supervisedBy(x, x)",                # q9
            "q(x) <- supervisedBy(x, y)",                # q10
        ]
        for text in expected:
            assert parse_query(text).canonical_key() in result_keys, text

    def test_minimized_reformulation(self, query, example1_tbox):
        # Paper 2.3: the minimal UCQ is q1, q2, q3 and q10 (q4-q9 are
        # contained in q10).
        minimized = reformulate_to_ucq(query, example1_tbox, minimize=True)
        assert len(minimized) == 4
        assert parse_query("q(x) <- supervisedBy(x, y)").canonical_key() in keys(
            minimized.disjuncts
        )

    def test_example3_answer(self, query, example1_tbox, example1_abox):
        # ans(q, K) = {Damian}; plain evaluation of q yields nothing.
        from repro.queries.evaluate import evaluate_cq

        facts = example1_abox.fact_store()
        assert evaluate_cq(query, facts) == set()
        ucq = reformulate_to_ucq(query, example1_tbox)
        assert evaluate_ucq(ucq, facts) == {("Damian",)}


class TestExample7:
    """Running example of Section 4: 4-disjunct UCQ."""

    @pytest.fixture
    def query(self) -> CQ:
        return parse_query(
            "q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)"
        )

    def test_four_disjuncts(self, query, example7_tbox):
        result = perfectref(query, example7_tbox)
        assert len(result) == 4

    def test_expected_disjuncts(self, query, example7_tbox):
        result_keys = keys(perfectref(query, example7_tbox))
        expected = [
            "q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)",     # q1
            "q(x) <- PhDStudent(x), supervisedBy(x, y), supervisedBy(z, y)",  # q2
            "q(x) <- PhDStudent(x), supervisedBy(x, y)",                      # q3
            "q(x) <- PhDStudent(x), Graduate(x)",                             # q4
        ]
        for text in expected:
            assert parse_query(text).canonical_key() in result_keys, text

    def test_answer_is_damian(self, query, example7_tbox, example7_abox):
        ucq = reformulate_to_ucq(query, example7_tbox)
        assert evaluate_ucq(ucq, example7_abox.fact_store()) == {("Damian",)}

    def test_q4_requires_the_unification_chain(self, query, example7_tbox):
        # q4 = PhDStudent(x) AND Graduate(x) only arises after the mgu step
        # (q3) enables the backward application of Graduate <= exists
        # supervisedBy. Its presence certifies the reduce step works.
        result_keys = keys(perfectref(query, example7_tbox))
        q4 = parse_query("q(x) <- PhDStudent(x), Graduate(x)")
        assert q4.canonical_key() in result_keys


class TestReformulationGeneralities:
    def test_input_query_always_first(self, example1_tbox):
        query = parse_query("q(x) <- Researcher(x)")
        result = perfectref(query, example1_tbox)
        assert result[0].canonical_key() == query.canonical_key()

    def test_empty_tbox_is_identity(self):
        from repro.dllite.tbox import TBox

        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        result = perfectref(query, TBox())
        assert len(result) == 1

    def test_researcher_query_expansion(self, example1_tbox):
        # Researcher(x) expands through T1, T2, T3, then T5/T4 variants and
        # the T6 specialization of PhDStudent.
        query = parse_query("q(x) <- Researcher(x)")
        result = perfectref(query, example1_tbox)
        result_keys = keys(result)
        for text in [
            "q(x) <- Researcher(x)",
            "q(x) <- PhDStudent(x)",
            "q(x) <- worksWith(x, y)",
            "q(x) <- worksWith(y, x)",
            "q(x) <- supervisedBy(x, y)",
            "q(x) <- supervisedBy(y, x)",
        ]:
            assert parse_query(text).canonical_key() in result_keys, text

    def test_constants_survive_reformulation(self, example1_tbox):
        query = parse_query("q() <- PhDStudent(Damian)")
        result = perfectref(query, example1_tbox)
        specialized = [cq for cq in result if cq.atoms[0].predicate == "supervisedBy"]
        assert specialized, "expected backward application of T6 to a constant"

    def test_max_queries_bounds_fixpoint(self, example1_tbox):
        query = parse_query("q(x) <- Researcher(x)")
        bounded = perfectref(query, example1_tbox, max_queries=2)
        assert len(bounded) <= 2

    def test_soundness_over_abox(self, example1_tbox, example1_abox):
        # Every disjunct's answers are answers of the certain-answer set
        # computed by the chase oracle.
        from repro.dllite.kb import KnowledgeBase
        from repro.dllite.saturation import certain_answers
        from repro.queries.evaluate import evaluate_cq

        query = parse_query("q(x) <- Researcher(x)")
        kb = KnowledgeBase(example1_tbox, example1_abox)
        truth = certain_answers(query, kb)
        facts = example1_abox.fact_store()
        for disjunct in perfectref(query, example1_tbox):
            assert evaluate_cq(disjunct, facts) <= truth

    def test_completeness_matches_chase(self, example1_tbox, example1_abox):
        from repro.dllite.kb import KnowledgeBase
        from repro.dllite.saturation import certain_answers

        query = parse_query("q(x) <- Researcher(x)")
        kb = KnowledgeBase(example1_tbox, example1_abox)
        truth = certain_answers(query, kb)
        ucq = reformulate_to_ucq(query, example1_tbox)
        assert evaluate_ucq(ucq, example1_abox.fact_store()) == truth
        assert truth == {("Ioana",), ("Francois",), ("Damian",)}


class TestImpliedAtomElimination:
    """The input loses the atoms other atoms of it imply under the TBox."""

    @pytest.fixture
    def tbox(self):
        from repro.dllite.axioms import ConceptInclusion, RoleInclusion
        from repro.dllite.tbox import TBox
        from repro.dllite.vocabulary import AtomicConcept, Exists, Role

        return TBox(
            [
                ConceptInclusion(AtomicConcept("A"), AtomicConcept("B")),
                ConceptInclusion(AtomicConcept("B"), AtomicConcept("A")),
                ConceptInclusion(Exists(Role("r")), AtomicConcept("D")),
                ConceptInclusion(Exists(Role("r", inverse=True)), AtomicConcept("E")),
                ConceptInclusion(AtomicConcept("F"), Exists(Role("r"))),
                RoleInclusion(Role("s"), Role("r")),
                RoleInclusion(Role("t", inverse=True), Role("r")),
            ]
        )

    def first(self, text, tbox):
        before = perfectref_eliminated()
        start = perfectref(parse_query(text), tbox)[0]
        return str(start), perfectref_eliminated() - before

    @pytest.mark.parametrize(
        "text, expected",
        [
            # A concept asserted by a concept atom, and by either role end.
            ("q(x) <- B(x), A(x)", "q(x) <- A(x)"),
            ("q(x) <- D(x), r(x, y)", "q(x) <- r(x, y)"),
            ("q(x) <- r(y, x), E(x)", "q(x) <- r(y, x)"),
            # A role atom whose other end is unbound, in both directions.
            ("q(x) <- F(x), r(x, y)", "q(x) <- F(x)"),
            ("q(x) <- r(x, y), r(x, z)", "q(x) <- r(x, z)"),
            ("q(x) <- r(y, x), r(z, x)", "q(x) <- r(z, x)"),
            # A role atom under a sub-role, and under an inverted one.
            ("q(x, y) <- r(x, y), s(x, y)", "q(x, y) <- s(x, y)"),
            ("q(x, y) <- r(x, y), t(y, x)", "q(x, y) <- t(y, x)"),
        ],
    )
    def test_each_rule_drops_the_implied_atom(self, tbox, text, expected):
        assert self.first(text, tbox) == (expected, 1)

    @pytest.mark.parametrize(
        "text",
        [
            # The role's other end is a head variable, or joins elsewhere.
            "q(x, y) <- F(x), r(x, y)",
            "q(x) <- F(x), r(x, y), C(y)",
            # An inclusion only in the other direction, or another term.
            "q(x) <- D(x), C(x)",
            "q(x) <- r(x, y), E(x)",
            "q(x, y) <- r(x, y), s(y, x)",
        ],
    )
    def test_nothing_else_goes(self, tbox, text):
        assert self.first(text, tbox) == (str(parse_query(text)), 0)

    def test_one_atom_at_a_time_in_body_order(self, tbox):
        # A and B imply each other: the first one goes, and the second
        # then has no implier left.
        assert self.first("q(x) <- B(x), A(x), A(x)", tbox) == ("q(x) <- A(x)", 1)
        assert self.first("q(x) <- A(x), B(x)", tbox) == ("q(x) <- B(x)", 1)
        # Once D(x) is gone, y is re-read as unbound and r(x, y) goes too.
        assert self.first("q(x) <- D(x), r(x, y), r(x, z)", tbox) == (
            "q(x) <- r(x, z)",
            2,
        )

    def test_the_lubm_queries(self):
        tbox = lubm_exists_tbox()
        assert self.first(PINS["S1"]["query"], tbox) == ("q(x) <- takesCourse(x, y)", 1)
        assert self.first(PINS["Q6"]["query"], tbox)[1] == 2
        assert len(perfectref(parse_query(PINS["Q6"]["query"]), tbox)) == 2

    def test_answers_match_the_classical_fixpoint(self, example1_tbox, example1_abox):
        # exists supervisedBy <= exists worksWith <= Researcher (T5, T2).
        query = parse_query("q(x) <- Researcher(x), supervisedBy(x, y)")
        assert self.first(str(query), example1_tbox) == ("q(x) <- supervisedBy(x, y)", 1)
        facts = example1_abox.fact_store()
        assert (
            evaluate_ucq(reformulate_to_ucq(query, example1_tbox), facts)
            == evaluate_ucq(legacy_reformulate_to_ucq(query, example1_tbox), facts)
            == {("Damian",)}
        )


#: S1–S3 + Q1–Q13 on the LUBM-exists TBox, measured once on the commit
#: that made PerfectRef drop implied atoms (the key unchanged since it was
#: string-coded): whole-query, unminimised result count, CQs keyed (the
#: input included), and a digest of the *ordered* legacy keys of the
#: results. The seven queries with no implied atom kept the digest the
#: classical fixpoint had.
PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "perfectref_lubm_pins.json").read_text()
)


def legacy_keys_digest(results) -> str:
    rendered = "\n".join(repr(legacy_canonical_key(cq)) for cq in results)
    return hashlib.sha256(rendered.encode()).hexdigest()


class TestPinnedWorkload:
    """What a faster dedup key must not change."""

    def test_pinned_totals(self):
        assert list(PINS) == ["S1", "S2", "S3"] + [f"Q{i}" for i in range(1, 14)]
        assert sum(pin["results"] for pin in PINS.values()) == 943
        assert sum(pin["candidates"] for pin in PINS.values()) == 2939

    @pytest.mark.parametrize("name", list(PINS))
    def test_sizes_order_and_counters(self, name):
        pin = PINS[name]
        before = perfectref_candidates(), perfectref_results()
        results = perfectref(parse_query(pin["query"]), lubm_exists_tbox())
        assert len(results) == pin["results"]
        assert perfectref_candidates() - before[0] == pin["candidates"]
        assert perfectref_results() - before[1] == pin["results"]
        assert legacy_keys_digest(results) == pin["legacy_keys_sha256"]

    def test_both_keys_partition_every_candidate_alike(self, monkeypatch):
        """Over the classical fixpoint's candidates, the larger and more
        varied set."""
        candidates = []
        keyed = CQ.canonical_key

        def recording_key(query):
            candidates.append(query)
            return keyed(query)

        monkeypatch.setattr(CQ, "canonical_key", recording_key)
        for pin in PINS.values():
            legacy_perfectref(parse_query(pin["query"]), lubm_exists_tbox())
        monkeypatch.undo()
        assert len(candidates) == 9020
        new_classes, legacy_classes = {}, {}
        for query in candidates:
            new = new_classes.setdefault(query.canonical_key(), len(new_classes))
            legacy = legacy_classes.setdefault(
                legacy_canonical_key(query), len(legacy_classes)
            )
            assert new == legacy, str(query)

    def test_independent_of_the_hash_seed(self):
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]);"
            "import test_perfectref as t;"
            "print(json.dumps({n: t.legacy_keys_digest(t.perfectref("
            "t.parse_query(p['query']), t.lubm_exists_tbox()))"
            " for n, p in t.PINS.items() if n in ('S1', 'Q5', 'Q13')}))"
        )
        for seed in ("0", "5"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join(filter(None, sys.path)),
            )
            done = subprocess.run(
                [sys.executable, "-c", script, str(Path(__file__).parent)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            assert json.loads(done.stdout) == {
                name: PINS[name]["legacy_keys_sha256"] for name in ("S1", "Q5", "Q13")
            }


class TestCounters:
    def test_no_update_is_lost_across_threads(self, example1_tbox):
        """Concurrent callers' threads run fixpoints side by side: every
        run must land in all four process-wide totals."""
        query = parse_query("q(x) <- Researcher(x), PhDStudent(x), worksWith(y, x)")
        before = perfectref_candidates(), perfectref_results(), perfectref_eliminated()
        perfectref(query, example1_tbox)
        per_run = (
            perfectref_candidates() - before[0],
            perfectref_results() - before[1],
            perfectref_eliminated() - before[2],
        )
        # Researcher(x) goes (PhDStudent <= Researcher), then Example 4.
        assert per_run[0] >= per_run[1] == 10
        assert per_run[2] == 1
        threads, runs = 8, 40
        start = (
            perfectref_invocations(),
            perfectref_candidates(),
            perfectref_results(),
            perfectref_eliminated(),
        )
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait(timeout=30)
            for _ in range(runs):
                perfectref(query, example1_tbox)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        total = threads * runs
        assert perfectref_invocations() - start[0] == total
        assert perfectref_candidates() - start[1] == total * per_run[0]
        assert perfectref_results() - start[2] == total * per_run[1]
        assert perfectref_eliminated() - start[3] == total * per_run[2]
