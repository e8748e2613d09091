"""Cover framework tests, pinned to paper Examples 5-11 and Theorems 1-3."""

import pytest

from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import query as lubm_query
from repro.covers.cover import Cover, GeneralizedCover, GeneralizedFragment
from repro.covers.dependencies import (
    dependencies,
    dependency_closure,
    share_dependency,
)
from repro.covers.fragments import fragment_query, generalized_fragment_query
from repro.covers.lattice import (
    bell_number,
    enumerate_safe_covers,
    safe_cover_count,
)
from repro.covers.generalized import (
    connect_fragments,
    enumerate_generalized_covers,
    generalized_space_upper_bound,
    in_generalized_space,
)
from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
    fragment_queries_of,
)
from repro.covers.safety import is_safe_cover, root_cover, single_fragment_cover
from repro.dllite.parser import parse_query, parse_tbox
from repro.queries.evaluate import (
    evaluate_jucq,
    evaluate_juscq,
    evaluate_ucq,
)
from repro.queries.terms import Variable
from repro.reformulation.perfectref import reformulate_to_ucq

X, Y, Z, W, V = (Variable(n) for n in "xyzwv")


@pytest.fixture
def example7_query():
    return parse_query(
        "q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)"
    )


class TestDependencies:
    """Paper Example 8."""

    def test_example8(self, example7_tbox):
        assert dependencies("PhDStudent", example7_tbox) == {"PhDStudent"}
        assert dependencies("Graduate", example7_tbox) == {"Graduate"}
        assert dependencies("worksWith", example7_tbox) == {
            "worksWith",
            "supervisedBy",
            "Graduate",
        }
        assert dependencies("supervisedBy", example7_tbox) == {
            "supervisedBy",
            "Graduate",
        }

    def test_share_dependency(self, example7_tbox):
        assert share_dependency("worksWith", "supervisedBy", example7_tbox)
        assert not share_dependency("PhDStudent", "worksWith", example7_tbox)

    def test_unknown_predicate_depends_on_itself(self, example7_tbox):
        assert dependencies("Alien", example7_tbox) == {"Alien"}

    def test_example1_tbox_dependencies(self, example1_tbox):
        # worksWith <- supervisedBy (T5); PhDStudent <- supervisedBy via T6.
        assert "supervisedBy" in dependencies("worksWith", example1_tbox)
        assert "supervisedBy" in dependencies("PhDStudent", example1_tbox)


    def test_closure_is_computed_once_per_tbox(self, example7_tbox):
        closure = dependency_closure(example7_tbox)
        assert dependency_closure(example7_tbox) is closure
        assert example7_tbox.dependency_closure() is closure
        assert closure["worksWith"] == {"worksWith", "supervisedBy", "Graduate"}
        # A fresh TBox — same axioms or more — gets its own.
        twin = example7_tbox.extended_with([])
        assert dependency_closure(twin) is not closure
        assert dependency_closure(twin) == closure
        extended = example7_tbox.extended_with(parse_tbox("Alien <= PhDStudent").axioms)
        assert dependency_closure(extended)["PhDStudent"] == {"PhDStudent", "Alien"}
        assert "Alien" not in dependency_closure(example7_tbox)


class TestCoverStructure:
    """Definition 1 conditions, Example 5 shape."""

    def test_example5_cover(self):
        query = parse_query(
            "q(x, y) <- teachesTo(v, x), teachesTo(v, y), "
            "supervisedBy(x, w), supervisedBy(y, w)"
        )
        cover = Cover(query, (frozenset({0, 2}), frozenset({1, 3})))
        assert len(cover) == 2
        assert not cover.is_partition() or cover.is_partition()  # well-formed
        assert cover.is_connected()

    def test_must_cover_all_atoms(self, example7_query):
        with pytest.raises(ValueError):
            Cover(example7_query, (frozenset({0}),))

    def test_no_fragment_inclusion(self, example7_query):
        with pytest.raises(ValueError):
            Cover(example7_query, (frozenset({0, 1, 2}), frozenset({1, 2})))

    def test_empty_fragment_rejected(self, example7_query):
        with pytest.raises(ValueError):
            Cover(example7_query, (frozenset(), frozenset({0, 1, 2})))

    def test_overlapping_cover_is_not_partition(self, example7_query):
        cover = Cover(example7_query, (frozenset({0, 1}), frozenset({1, 2})))
        assert not cover.is_partition()

    def test_union_fragments(self, example7_query):
        cover = Cover(
            example7_query, (frozenset({0}), frozenset({1}), frozenset({2}))
        )
        merged = cover.union_fragments(frozenset({0}), frozenset({1}))
        assert len(merged) == 2
        assert frozenset({0, 1}) in merged.fragments

    def test_key_is_order_insensitive(self, example7_query):
        c1 = Cover(example7_query, (frozenset({0, 1}), frozenset({2})))
        c2 = Cover(example7_query, (frozenset({2}), frozenset({0, 1})))
        assert c1.key() == c2.key()


class TestFragmentQueries:
    """Definition 2, Example 6."""

    def test_example6(self):
        query = parse_query(
            "q(x, y) <- teachesTo(v, x), teachesTo(v, y), "
            "supervisedBy(x, w), supervisedBy(y, w)"
        )
        cover = Cover(query, (frozenset({0, 2}), frozenset({1, 3})))
        f1 = fragment_query(query, cover.fragments[0], cover)
        f2 = fragment_query(query, cover.fragments[1], cover)
        # q|f1(x, v, w) and q|f2(y, v, w): head vars + shared existentials.
        assert set(f1.head) == {X, V, W}
        assert set(f2.head) == {Y, V, W}

    def test_unshared_existential_not_exported(self, example7_query, example7_tbox):
        # Cover C2 of Example 9: {PhDStudent(x)}, {worksWith(x,y), supervisedBy(z,y)}.
        cover = Cover(example7_query, (frozenset({0}), frozenset({1, 2})))
        f2 = fragment_query(example7_query, cover.fragments[1], cover)
        # y and z are internal to the fragment: only x is exported.
        assert f2.head == (X,)

    def test_boolean_query_fragments_join_on_existentials(self):
        query = parse_query("q() <- A(x), r(x, y)")
        cover = Cover(query, (frozenset({0}), frozenset({1})))
        f1 = fragment_query(query, cover.fragments[0], cover)
        f2 = fragment_query(query, cover.fragments[1], cover)
        assert f1.head == (X,)
        assert X in f2.head


class TestSafety:
    """Definition 5, Example 7's unsafe C1, Example 10's root cover."""

    def test_c1_is_unsafe(self, example7_query, example7_tbox):
        # C1 separates worksWith and supervisedBy which share a dependency.
        c1 = Cover(example7_query, (frozenset({0, 1}), frozenset({2})))
        assert not is_safe_cover(c1, example7_tbox)

    def test_c2_is_safe(self, example7_query, example7_tbox):
        c2 = Cover(example7_query, (frozenset({0}), frozenset({1, 2})))
        assert is_safe_cover(c2, example7_tbox)

    def test_root_cover_is_example10_c2(self, example7_query, example7_tbox):
        croot = root_cover(example7_query, example7_tbox)
        assert croot.key() == ((0,), (1, 2))

    def test_root_cover_is_safe(self, example7_query, example7_tbox):
        assert is_safe_cover(root_cover(example7_query, example7_tbox), example7_tbox)

    def test_single_fragment_cover_always_safe(self, example7_query, example7_tbox):
        assert is_safe_cover(single_fragment_cover(example7_query), example7_tbox)

    def test_non_partition_is_unsafe(self, example7_query, example7_tbox):
        overlapping = Cover(example7_query, (frozenset({0, 1}), frozenset({1, 2})))
        assert not is_safe_cover(overlapping, example7_tbox)

    def test_root_cover_without_dependencies_is_all_singletons(self):
        from repro.dllite.tbox import TBox

        query = parse_query("q(x) <- A(x), r(x, y), B(y)")
        croot = root_cover(query, TBox())
        assert croot.key() == ((0,), (1,), (2,))


class TestLattice:
    """Theorem 2 and the Bell-number bound."""

    def test_lattice_of_example7(self, example7_query, example7_tbox):
        # Root cover has 2 fragments -> B2 = 2 safe covers.
        covers = list(enumerate_safe_covers(example7_query, example7_tbox))
        assert len(covers) == 2
        keys = {c.key() for c in covers}
        assert ((0,), (1, 2)) in keys       # the root cover
        assert ((0, 1, 2),) in keys         # the single-fragment cover

    def test_every_enumerated_cover_is_safe(self, example7_query, example7_tbox):
        for cover in enumerate_safe_covers(example7_query, example7_tbox):
            assert is_safe_cover(cover, example7_tbox)

    def test_bell_bound_no_dependencies(self):
        from repro.dllite.tbox import TBox

        query = parse_query("q(x) <- A(x), B(x), C(x), D(x)")
        assert safe_cover_count(query, TBox()) == bell_number(4) == 15

    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_fragments_are_unions_of_root_fragments(
        self, example7_query, example7_tbox
    ):
        root = root_cover(example7_query, example7_tbox)
        root_sets = set(root.fragments)
        for cover in enumerate_safe_covers(example7_query, example7_tbox):
            for fragment in cover.fragments:
                # fragment must be expressible as a union of root fragments.
                parts = [r for r in root_sets if r <= fragment]
                assert frozenset().union(*parts) == fragment


class TestGeneralizedCovers:
    """Section 5.2, Example 11, Theorem 3."""

    def test_example11_cover_is_in_gq(self, example7_query, example7_tbox):
        # C3 = {f1||f1, f2||f0} with f0={PhDStudent(x)}, f1={worksWith,
        # supervisedBy}, f2={PhDStudent(x), worksWith(x, y)}.
        c3 = GeneralizedCover(
            example7_query,
            (
                GeneralizedFragment(frozenset({1, 2}), frozenset({1, 2})),
                GeneralizedFragment(frozenset({0, 1}), frozenset({0})),
            ),
        )
        assert in_generalized_space(c3, example7_tbox)

    def test_example11_fragment_queries(self, example7_query, example7_tbox):
        c3 = GeneralizedCover(
            example7_query,
            (
                GeneralizedFragment(frozenset({1, 2}), frozenset({1, 2})),
                GeneralizedFragment(frozenset({0, 1}), frozenset({0})),
            ),
        )
        queries = fragment_queries_of(c3)
        by_body_size = sorted(queries, key=lambda q: len(q.atoms))
        # q|f1||f1 (x): y not exported (it is not a variable of f0).
        f1_query = [q for q in queries if len(q.atoms) == 2 and q.atoms[0].predicate != "PhDStudent"]
        for q in queries:
            assert q.head == (X,)

    def test_g_must_be_subset_of_f(self):
        with pytest.raises(ValueError):
            GeneralizedFragment(frozenset({0}), frozenset({0, 1}))

    def test_g_nonempty(self):
        with pytest.raises(ValueError):
            GeneralizedFragment(frozenset({0}), frozenset())

    def test_from_cover_is_plain(self, example7_query, example7_tbox):
        lifted = GeneralizedCover.from_cover(
            root_cover(example7_query, example7_tbox)
        )
        assert lifted.is_plain()

    def test_enlarge_move(self, example7_query, example7_tbox):
        lifted = GeneralizedCover.from_cover(
            root_cover(example7_query, example7_tbox)
        )
        target = [gf for gf in lifted.fragments if gf.g == frozenset({0})][0]
        enlarged = lifted.enlarge(target, 1)
        assert not enlarged.is_plain()
        assert in_generalized_space(enlarged, example7_tbox)

    def test_enumeration_contains_plain_and_generalized(
        self, example7_query, example7_tbox
    ):
        covers = list(
            enumerate_generalized_covers(example7_query, example7_tbox, limit=500)
        )
        assert any(c.is_plain() for c in covers)
        assert any(not c.is_plain() for c in covers)
        # All enumerated covers are members of Gq.
        for cover in covers:
            assert in_generalized_space(cover, example7_tbox)

    def test_limit_respected(self, example7_query, example7_tbox):
        covers = list(
            enumerate_generalized_covers(example7_query, example7_tbox, limit=3)
        )
        assert len(covers) == 3

    def test_upper_bound_formula(self):
        assert generalized_space_upper_bound(3) == 5 * 3 * 4


class TestConnectFragments:
    """The repair that moves a lifted root cover into Gq."""

    @staticmethod
    def repaired(query, tbox):
        lifted = GeneralizedCover.from_cover(root_cover(query, tbox))
        return lifted, connect_fragments(lifted, query.atom_adjacency())

    def test_bridges_with_a_shortest_path_and_leaves_g_alone(self):
        # Q10's root f0 holds University(u) with nothing that mentions u:
        # subOrganizationOf(d, u) (atom 7) is the one-atom bridge.
        tbox = lubm_exists_tbox()
        lifted, repaired = self.repaired(lubm_query("Q10"), tbox)
        assert not in_generalized_space(lifted, tbox)
        assert in_generalized_space(repaired, tbox)
        assert repaired.g_cover() == lifted.g_cover()
        assert str(repaired) == (
            "{[0, 1, 2, 3, 4, 5, 7, 8, 9]||[0, 1, 2, 3, 4, 5, 8, 9]; "
            "[6, 7]||[6, 7]}"
        )

    def test_swallowed_fragment_is_unioned_not_an_error(self):
        # Q7's bridge is orgPublication(x, p), the whole other fragment:
        # the enlarged f includes it, which Definition 1 forbids side by
        # side — the two become one fragment, as a union move would.
        tbox = lubm_exists_tbox()
        _lifted, repaired = self.repaired(lubm_query("Q7"), tbox)
        assert repaired.key() == (((0, 1, 2, 3, 4, 5),) * 2,)
        assert in_generalized_space(repaired, tbox)

    def test_connected_cover_is_returned_as_is(self, example7_query, example7_tbox):
        lifted, repaired = self.repaired(example7_query, example7_tbox)
        assert repaired == lifted

    def test_components_without_a_join_path_stay_apart(self):
        query = parse_query("q(x, y) <- A(x), r(x, z), B(y)")
        cover = GeneralizedCover(
            query,
            (GeneralizedFragment(frozenset({0, 2}), frozenset({0, 2})),
             GeneralizedFragment(frozenset({1}), frozenset({1}))),
        )
        assert connect_fragments(cover, query.atom_adjacency()) == cover


class TestCoverBasedReformulation:
    """Definition 3; Examples 7, 9, 11 end-to-end; Theorems 1 and 3."""

    def test_unsafe_c1_misses_answers(
        self, example7_query, example7_tbox, example7_abox
    ):
        # The paper's negative example: C1's JUCQ is NOT a reformulation.
        c1 = Cover(example7_query, (frozenset({0, 1}), frozenset({2})))
        jucq = cover_based_reformulation(c1, example7_tbox)
        facts = example7_abox.fact_store()
        assert evaluate_jucq(jucq, facts) == set()  # misses {Damian}

    def test_example9_safe_c2_reformulation(
        self, example7_query, example7_tbox, example7_abox
    ):
        c2 = Cover(example7_query, (frozenset({0}), frozenset({1, 2})))
        jucq = cover_based_reformulation(c2, example7_tbox)
        facts = example7_abox.fact_store()
        assert evaluate_jucq(jucq, facts) == {("Damian",)}

    def test_example11_generalized_reformulation(
        self, example7_query, example7_tbox, example7_abox
    ):
        c3 = GeneralizedCover(
            example7_query,
            (
                GeneralizedFragment(frozenset({1, 2}), frozenset({1, 2})),
                GeneralizedFragment(frozenset({0, 1}), frozenset({0})),
            ),
        )
        jucq = cover_based_reformulation(c3, example7_tbox)
        facts = example7_abox.fact_store()
        assert evaluate_jucq(jucq, facts) == {("Damian",)}

    def test_theorem1_all_safe_covers_equivalent(
        self, example7_query, example7_tbox, example7_abox
    ):
        facts = example7_abox.fact_store()
        reference = evaluate_ucq(
            reformulate_to_ucq(example7_query, example7_tbox), facts
        )
        for cover in enumerate_safe_covers(example7_query, example7_tbox):
            jucq = cover_based_reformulation(cover, example7_tbox)
            assert evaluate_jucq(jucq, facts) == reference

    def test_theorem3_generalized_covers_equivalent(
        self, example7_query, example7_tbox, example7_abox
    ):
        facts = example7_abox.fact_store()
        reference = evaluate_ucq(
            reformulate_to_ucq(example7_query, example7_tbox), facts
        )
        for cover in enumerate_generalized_covers(
            example7_query, example7_tbox, limit=50
        ):
            jucq = cover_based_reformulation(cover, example7_tbox)
            assert evaluate_jucq(jucq, facts) == reference

    def test_juscq_reformulation_equivalent(
        self, example7_query, example7_tbox, example7_abox
    ):
        facts = example7_abox.fact_store()
        reference = evaluate_ucq(
            reformulate_to_ucq(example7_query, example7_tbox), facts
        )
        c2 = Cover(example7_query, (frozenset({0}), frozenset({1, 2})))
        juscq = cover_based_uscq_reformulation(c2, example7_tbox)
        assert evaluate_juscq(juscq, facts) == reference

    def test_single_fragment_cover_equals_ucq(
        self, example7_query, example7_tbox, example7_abox
    ):
        facts = example7_abox.fact_store()
        cover = single_fragment_cover(example7_query)
        jucq = cover_based_reformulation(cover, example7_tbox)
        assert len(jucq.components) == 1
        reference = evaluate_ucq(
            reformulate_to_ucq(example7_query, example7_tbox), facts
        )
        assert evaluate_jucq(jucq, facts) == reference
