"""Unit tests for mgu computation and CQ containment."""

import json
from pathlib import Path

from legacy_perfectref import legacy_perfectref

import repro.queries.minimize as minimize_module
from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.parser import parse_query
from repro.queries.atoms import concept_atom, role_atom
from repro.queries.cq import CQ
from repro.queries.homomorphism import (
    are_equivalent,
    find_homomorphism,
    is_contained_in,
)
from repro.queries.minimize import minimize_cq, minimize_ucq
from repro.queries.terms import Constant, Variable
from repro.queries.unification import most_general_unifier

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestMGU:
    def test_different_predicates_fail(self):
        assert most_general_unifier(concept_atom("A", X), concept_atom("B", X)) is None

    def test_different_arities_fail(self):
        assert (
            most_general_unifier(concept_atom("r", X), role_atom("r", X, Y)) is None
        )

    def test_identical_atoms_unify_with_identity(self):
        unifier = most_general_unifier(role_atom("r", X, Y), role_atom("r", X, Y))
        assert unifier is not None
        assert len(unifier) == 0

    def test_variable_to_constant(self):
        unifier = most_general_unifier(
            role_atom("r", X, Y), role_atom("r", Constant("a"), Y)
        )
        assert unifier is not None
        assert unifier.apply_term(X) == Constant("a")

    def test_conflicting_constants_fail(self):
        assert (
            most_general_unifier(
                role_atom("r", Constant("a"), Y), role_atom("r", Constant("b"), Y)
            )
            is None
        )

    def test_transitive_binding(self):
        # r(x, x) vs r(y, a): x ~ y then x ~ a forces y -> a.
        unifier = most_general_unifier(
            role_atom("r", X, X), role_atom("r", Y, Constant("a"))
        )
        assert unifier is not None
        assert unifier.apply_term(X) == Constant("a")
        assert unifier.apply_term(Y) == Constant("a")

    def test_protected_variable_kept_as_representative(self):
        # Paper Example 7 footnote: unify supervisedBy(x, y), supervisedBy(z, y)
        # keeping head variable x.
        unifier = most_general_unifier(
            role_atom("supervisedBy", X, Y),
            role_atom("supervisedBy", Z, Y),
            protected=frozenset({X}),
        )
        assert unifier is not None
        assert unifier.apply_term(Z) == X
        assert unifier.apply_term(X) == X

    def test_example4_q9_unification(self):
        # supervisedBy(x, z) and supervisedBy(y, x) -> supervisedBy(x, x).
        unifier = most_general_unifier(
            role_atom("supervisedBy", X, Z),
            role_atom("supervisedBy", Y, X),
            protected=frozenset({X}),
        )
        assert unifier is not None
        atom = unifier.apply_atom(role_atom("supervisedBy", X, Z))
        assert atom == role_atom("supervisedBy", X, X)


class TestContainment:
    def test_reflexive(self):
        q = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        assert is_contained_in(q, q)

    def test_more_atoms_is_more_specific(self):
        general = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        specific = CQ(
            head=(X,), atoms=(role_atom("r", X, Y), concept_atom("A", X))
        )
        assert is_contained_in(specific, general)
        assert not is_contained_in(general, specific)

    def test_example4_containment_in_q10(self):
        # Paper 2.3: q1..q3 of Table 5 are all contained in q10.
        q10 = CQ(head=(X,), atoms=(role_atom("supervisedBy", X, Y),))
        q7 = CQ(
            head=(X,),
            atoms=(
                role_atom("supervisedBy", X, Z),
                role_atom("supervisedBy", Y, X),
            ),
        )
        assert is_contained_in(q7, q10)
        assert not is_contained_in(q10, q7)

    def test_head_arity_mismatch(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(X, Y), atoms=(role_atom("r", X, Y),))
        assert not is_contained_in(q1, q2)

    def test_constant_must_match(self):
        qa = CQ(head=(), atoms=(concept_atom("A", Constant("a")),))
        qx = CQ(head=(), atoms=(concept_atom("A", X),))
        assert is_contained_in(qa, qx)  # A(a) is a special case of A(x)
        assert not is_contained_in(qx, qa)

    def test_equivalence_modulo_renaming(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(Z,), atoms=(role_atom("r", Z, W),))
        assert are_equivalent(q1, q2)

    def test_homomorphism_returns_mapping(self):
        general = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        specific = CQ(head=(Z,), atoms=(role_atom("r", Z, Constant("a")),))
        mapping = find_homomorphism(general, specific)
        assert mapping is not None
        assert mapping[X] == Z
        assert mapping[Y] == Constant("a")


def naive_homomorphism_exists(source: CQ, target: CQ) -> bool:
    """Reference containment search: source atoms in body order, every
    target atom tried for each, a fresh mapping per attempt."""

    def extend(mapping, source_terms, target_terms):
        mapping = dict(mapping)
        for source_term, target_term in zip(source_terms, target_terms):
            if isinstance(source_term, Variable):
                if mapping.setdefault(source_term, target_term) != target_term:
                    return None
            elif source_term != target_term:
                return None
        return mapping

    def search(index, mapping):
        if index == len(source.atoms):
            return True
        atom = source.atoms[index]
        for candidate in target.atoms:
            if (candidate.predicate, candidate.arity) != (atom.predicate, atom.arity):
                continue
            extended = extend(mapping, atom.args, candidate.args)
            if extended is not None and search(index + 1, extended):
                return True
        return False

    if len(source.head) != len(target.head):
        return False
    start = extend({}, source.head, target.head)
    return start is not None and search(0, start)


def assert_is_homomorphism(mapping, source: CQ, target: CQ) -> None:
    def image(term):
        return mapping[term] if isinstance(term, Variable) else term

    assert tuple(image(t) for t in source.head) == target.head
    target_atoms = set(target.atoms)
    for atom in source.atoms:
        mapped = type(atom)(atom.predicate, tuple(image(t) for t in atom.args))
        assert mapped in target_atoms, (str(atom), str(mapped))


class TestSearchAgainstReference:
    def test_every_pair_minimization_asks_about(self, monkeypatch):
        """Over the classical fixpoint's output for the pinned workload
        (S1–S3, Q1–Q13 on the LUBM-exists TBox): same verdict as the
        reference, and every mapping returned is a homomorphism."""
        asked = []
        real = minimize_module.is_contained_in

        def recording(more_specific, more_general):
            asked.append((more_general, more_specific))
            return real(more_specific, more_general)

        monkeypatch.setattr(minimize_module, "is_contained_in", recording)
        pins = json.loads(
            (Path(__file__).parent / "fixtures" / "perfectref_lubm_pins.json").read_text()
        )
        for pin in pins.values():
            minimize_ucq(legacy_perfectref(parse_query(pin["query"]), lubm_exists_tbox()))
        assert len(asked) > 5000
        found = 0
        for general, specific in asked:
            mapping = find_homomorphism(general, specific)
            assert (mapping is not None) == naive_homomorphism_exists(general, specific)
            if mapping is not None:
                found += 1
                assert_is_homomorphism(mapping, general, specific)
        assert 0 < found < len(asked)

    def test_backtracking_undoes_its_bindings(self):
        # Two candidates per predicate, so the body order stands: r(x, y)
        # takes r(a, b), s(b, _) does not exist, and x and y must be free
        # again for r(e, c). On the way, s(y, z) against s(e, f) binds
        # nothing it keeps.
        a, b, c, d, e, f = (Constant(n) for n in "abcdef")
        general = CQ(head=(), atoms=(role_atom("r", X, Y), role_atom("s", Y, Z)))
        specific = CQ(
            head=(),
            atoms=(
                role_atom("r", a, b),
                role_atom("r", e, c),
                role_atom("s", e, f),
                role_atom("s", c, d),
            ),
        )
        assert find_homomorphism(general, specific) == {X: e, Y: c, Z: d}
        assert find_homomorphism(specific, general) is None

    def test_repeated_variable_must_map_consistently(self):
        loop = CQ(head=(), atoms=(role_atom("r", X, X),))
        edge = CQ(head=(), atoms=(role_atom("r", Y, Z),))
        assert find_homomorphism(loop, edge) is None
        assert find_homomorphism(edge, loop) == {Y: X, Z: X}


class TestMinimization:
    def test_duplicate_atom_removed(self):
        q = CQ(head=(X,), atoms=(role_atom("r", X, Y), role_atom("r", X, Y)))
        assert len(minimize_cq(q).atoms) == 1

    def test_redundant_generalization_removed(self):
        # r(x, y) AND r(x, z) with z unbound folds onto r(x, y).
        q = CQ(head=(X,), atoms=(role_atom("r", X, Y), role_atom("r", X, Z)))
        assert len(minimize_cq(q).atoms) == 1

    def test_core_preserves_equivalence(self):
        q = CQ(
            head=(X,),
            atoms=(role_atom("r", X, Y), role_atom("r", X, Z), concept_atom("A", X)),
        )
        minimized = minimize_cq(q)
        assert are_equivalent(q, minimized)

    def test_non_redundant_untouched(self):
        q = CQ(head=(X,), atoms=(role_atom("r", X, Y), role_atom("s", X, Y)))
        assert minimize_cq(q) == q

    def test_minimize_ucq_drops_subsumed(self):
        q10 = CQ(head=(X,), atoms=(role_atom("supervisedBy", X, Y),))
        q8 = CQ(
            head=(X,),
            atoms=(
                role_atom("supervisedBy", X, Z),
                role_atom("supervisedBy", X, Y),
            ),
        )
        # q8 and q10 are equivalent (the extra atom folds); the smaller
        # representative is kept regardless of order.
        survivors = minimize_ucq([q8, q10])
        assert survivors == [q10]

    def test_minimize_ucq_keeps_one_of_equivalent_pair(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(Z,), atoms=(role_atom("r", Z, W),))
        survivors = minimize_ucq([q1, q2])
        assert len(survivors) == 1

    def test_minimize_ucq_incomparable_kept(self):
        qa = CQ(head=(X,), atoms=(concept_atom("A", X),))
        qb = CQ(head=(X,), atoms=(concept_atom("B", X),))
        assert len(minimize_ucq([qa, qb])) == 2
