"""The maintained statistics equal the rescan's after every write.

``DataStatistics`` folds each write's own delta into its records (and,
under materialization, reads distinct counts off the saturator's position
multiset). The oracle is the rescan it replaced, kept in
``legacy_statistics_rescan.py``: after every step of a random
insert/delete sequence every predicate's record and ``total_facts`` must
equal it, and the plans priced from those statistics — the SQL of S1–S3
— must equal a freshly built system's over the same data.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from legacy_statistics_rescan import rescan

from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.abox import ABox
from repro.obda.system import OBDASystem

#: The ledger's S1–S3 (``benchmarks/e2e/workloads.py``): no constants,
#: so their SQL depends on the TBox and the statistics alone.
PLAN_PROBES = (
    "q(x) <- Student(x), takesCourse(x, y)",
    "q(x) <- Professor(x), worksFor(x, y)",
    "q(x, y) <- Article(x), publicationAuthor(x, y)",
)

#: ``Gadget`` / ``linkedTo`` are outside the loaded schema (and the TBox).
CONCEPTS = ("GraduateStudent", "Student", "Professor", "Person", "Gadget")
ROLES = ("takesCourse", "advisor", "worksFor", "memberOf", "linkedTo")
#: A small pool, so batches collide, repeat and empty predicates out.
NEW_INDIVIDUALS = tuple(f"fresh{i}" for i in range(4))


def _base_abox() -> ABox:
    return generate_abox("tiny")


#: The loaded facts as plain tuples, in the ABox's deterministic order.
_BASE = [tuple(vars(a).values()) for a in _base_abox().assertions()]
_BASE_INDIVIDUALS = tuple(sorted(_base_abox().individuals())[::40])

individuals = st.sampled_from(NEW_INDIVIDUALS + _BASE_INDIVIDUALS)
new_facts = st.one_of(
    st.tuples(st.sampled_from(CONCEPTS), individuals),
    st.tuples(st.sampled_from(ROLES), individuals, individuals),
)
base_facts = st.sampled_from(_BASE)
steps = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete")),
        # Lists, not sets: a batch may name the same fact twice.
        st.lists(st.one_of(new_facts, base_facts), min_size=1, max_size=4),
    ),
    min_size=2,
    max_size=8,
)


def assert_statistics_equal_the_rescan(system) -> None:
    expected = rescan(system)
    statistics = system.statistics
    for name in expected.names() | set(statistics._predicates):
        assert statistics.for_predicate(name) == expected.for_predicate(name), name
    assert statistics.total_facts == expected.total_facts


def assert_plans_equal_a_fresh_system(system) -> None:
    fresh = OBDASystem(
        lubm_exists_tbox(),
        ABox(system.kb.abox.assertions()),
        materialize=system.materialized,
    )
    with fresh:
        strategies = ("gdl", "auto") if system.materialized else ("gdl",)
        for text in PLAN_PROBES:
            for strategy in strategies:
                assert (
                    system.reformulate(text, strategy=strategy).sql
                    == fresh.reformulate(text, strategy=strategy).sql
                ), (text, strategy)


def run(script, materialize: bool) -> None:
    with OBDASystem(
        lubm_exists_tbox(), _base_abox(), materialize=materialize
    ) as system:
        assert_statistics_equal_the_rescan(system)
        for kind, batch in script:
            write = system.insert_facts if kind == "insert" else system.delete_facts
            write(batch)
            assert_statistics_equal_the_rescan(system)
        assert_plans_equal_a_fresh_system(system)


@pytest.mark.parametrize("materialize", [False, True])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(script=steps)
def test_statistics_equal_the_rescan_after_every_write(materialize, script):
    run(script, materialize)


#: The situations the property must not miss, spelled out.
SCRIPTED = {
    "duplicates in a batch": [
        ("insert", [("takesCourse", "s", "c"), ("takesCourse", "s", "c"), ("Student", "s")]),
        ("delete", [("Student", "s"), ("Student", "s")]),
    ],
    "delete to empty, then re-insert": [
        ("insert", [("linkedTo", "a", "b"), ("linkedTo", "a", "c"), ("Gadget", "a")]),
        ("delete", [("linkedTo", "a", "b"), ("linkedTo", "a", "c"), ("Gadget", "a")]),
        ("insert", [("linkedTo", "b", "a"), ("Gadget", "b")]),
    ],
    "a predicate outside the loaded schema": [
        ("insert", [("Gadget", "g1"), ("linkedTo", "g1", "g2")]),
        ("insert", [("linkedTo", "g3", "g2")]),
        ("delete", [("linkedTo", "g1", "g2")]),
    ],
    "a delete whose re-derivation keeps the fact": [
        # Student(s) follows from both facts; deleting one over-deletes
        # it and DRed puts it back, so Student's record must not move.
        ("insert", [("GraduateStudent", "s"), ("takesCourse", "s", "c")]),
        ("delete", [("takesCourse", "s", "c")]),
        ("delete", [("GraduateStudent", "s")]),
    ],
    "a real witness retires a null": [
        # GraduateStudent(s) invents an advisor; the real one replaces it.
        ("insert", [("GraduateStudent", "s")]),
        ("insert", [("advisor", "s", "p")]),
        ("delete", [("advisor", "s", "p")]),
    ],
    "a base fact of the loaded data leaves and returns": [
        ("delete", [_BASE[0], _BASE[-1]]),
        ("insert", [_BASE[-1]]),
    ],
}


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("name", sorted(SCRIPTED))
def test_statistics_equal_the_rescan_in_the_named_situations(name, materialize):
    run(SCRIPTED[name], materialize)
