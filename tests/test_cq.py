"""Unit tests for the CQ dialect: structure, graphs, canonicalization."""

import pickle

import pytest
from legacy_canonical_key import legacy_canonical_key

import repro.queries.cq as cq_module
from repro.dllite.parser import parse_query
from repro.queries.atoms import Atom, concept_atom, role_atom
from repro.queries.cq import CQ
from repro.queries.substitution import Substitution
from repro.queries.terms import Constant, Variable

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def q_paper_example3() -> CQ:
    """q(x) <- PhDStudent(x) AND worksWith(y, x)."""
    return CQ(
        head=(X,),
        atoms=(concept_atom("PhDStudent", X), role_atom("worksWith", Y, X)),
    )


class TestConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            CQ(head=(X,), atoms=())

    def test_unsafe_head_rejected(self):
        with pytest.raises(ValueError):
            CQ(head=(Z,), atoms=(concept_atom("A", X),))

    def test_constant_in_head_allowed(self):
        query = CQ(head=(Constant("a"),), atoms=(concept_atom("A", X),))
        assert query.head == (Constant("a"),)

    def test_boolean_query_allowed(self):
        query = CQ(head=(), atoms=(concept_atom("A", X),))
        assert query.head == ()


class TestVariableStructure:
    def test_variables(self):
        query = q_paper_example3()
        assert query.variables() == {X, Y}

    def test_head_and_existential_variables(self):
        query = q_paper_example3()
        assert query.head_variables() == {X}
        assert query.existential_variables() == {Y}

    def test_unbound_variables(self):
        # y occurs once and is existential -> unbound; x is distinguished.
        query = q_paper_example3()
        assert query.unbound_variables() == {Y}

    def test_repeated_existential_is_bound(self):
        query = CQ(
            head=(X,),
            atoms=(role_atom("r", X, Y), role_atom("s", Y, Z)),
        )
        assert query.unbound_variables() == {Z}

    def test_occurrence_counts(self):
        query = CQ(
            head=(X,),
            atoms=(role_atom("r", X, Y), role_atom("s", Y, X)),
        )
        assert query.occurrence_counts() == {X: 2, Y: 2}


class TestGraphStructure:
    def test_connected_query(self):
        assert q_paper_example3().is_connected()

    def test_disconnected_query(self):
        query = CQ(
            head=(X, Z),
            atoms=(concept_atom("A", X), concept_atom("B", Z)),
        )
        assert not query.is_connected()
        assert len(query.connected_components()) == 2

    def test_components_via_shared_variable(self):
        query = CQ(
            head=(X,),
            atoms=(role_atom("r", X, Y), role_atom("s", Y, Z), concept_atom("A", W), role_atom("t", W, W)),
        )
        components = query.connected_components()
        assert sorted(len(c) for c in components) == [2, 2]


class TestTransformation:
    def test_apply_substitution(self):
        query = q_paper_example3()
        result = query.apply(Substitution({Y: X}))
        assert result.atoms[1] == role_atom("worksWith", X, X)

    def test_dedup_atoms(self):
        query = CQ(
            head=(X,),
            atoms=(concept_atom("A", X), concept_atom("A", X)),
        )
        assert len(query.dedup_atoms().atoms) == 1

    def test_rename_apart_preserves_head(self):
        query = q_paper_example3()
        renamed = query.rename_apart({Y})
        assert renamed.head == (X,)
        assert renamed.atoms[1].args[1] == X
        assert renamed.atoms[1].args[0] != Y


class TestCanonicalKey:
    def test_isomorphic_queries_share_key(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(Z,), atoms=(role_atom("r", Z, W),))
        assert q1.canonical_key() == q2.canonical_key()

    def test_head_position_matters(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(Y,), atoms=(role_atom("r", X, Y),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_different_predicates_differ(self):
        q1 = CQ(head=(X,), atoms=(role_atom("r", X, Y),))
        q2 = CQ(head=(X,), atoms=(role_atom("s", X, Y),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_atom_order_irrelevant(self):
        a1, a2 = concept_atom("A", X), role_atom("r", X, Y)
        q1 = CQ(head=(X,), atoms=(a1, a2))
        q2 = CQ(head=(X,), atoms=(a2, a1))
        assert q1.canonical_key() == q2.canonical_key()

    def test_constants_pin_key(self):
        q1 = CQ(head=(), atoms=(role_atom("r", Constant("a"), X),))
        q2 = CQ(head=(), atoms=(role_atom("r", Constant("b"), X),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_int_and_str_constants_stay_distinct(self):
        q1 = CQ(head=(), atoms=(role_atom("r", Constant(1), X),))
        q2 = CQ(head=(), atoms=(role_atom("r", Constant("1"), X),))
        assert q1.canonical_key() != q2.canonical_key()
        assert legacy_canonical_key(q1) != legacy_canonical_key(q2)
        h1 = CQ(head=(Constant(1),), atoms=(concept_atom("A", X),))
        h2 = CQ(head=(Constant("1"),), atoms=(concept_atom("A", X),))
        assert h1.canonical_key() != h2.canonical_key()

    def test_underscore_constant_is_not_a_canonical_variable(self):
        # The constant "_b0" must not read as the first body variable.
        with_constant = CQ(head=(), atoms=(role_atom("r", Constant("_b0"), X),))
        with_variables = CQ(head=(), atoms=(role_atom("r", Y, X),))
        loop = CQ(head=(), atoms=(role_atom("r", X, X),))
        keys = {
            q.canonical_key() for q in (with_constant, with_variables, loop)
        }
        assert len(keys) == 3
        head_constant = CQ(head=(Constant("_h0"), X), atoms=(concept_atom("A", X),))
        head_variable = CQ(head=(X, X), atoms=(concept_atom("A", X),))
        assert head_constant.canonical_key() != head_variable.canonical_key()

    def test_input_variables_named_like_canonical_ones(self):
        # _h0 is existential here and _b0 is not the first body variable.
        tricky = parse_query("q(x) <- R(x, _h0), S(_h0, _b0)")
        plain = parse_query("q(x) <- R(x, y), S(y, z)")
        crossed = parse_query("q(_b0) <- R(_b0, _h0), S(_h0, x)")
        different = parse_query("q(x) <- R(x, y), S(x, z)")
        assert tricky.canonical_key() == plain.canonical_key()
        assert crossed.canonical_key() == plain.canonical_key()
        assert different.canonical_key() != plain.canonical_key()

    def test_key_is_plain_hashable_and_pickles(self):
        query = CQ(
            head=(X, Constant("a")),
            atoms=(role_atom("r", X, Y), concept_atom("A", Constant(7))),
        )
        key = query.canonical_key()

        def leaves(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        assert all(type(leaf) is str for leaf in leaves(key))
        assert not any(isinstance(leaf, (Atom, Variable)) for leaf in leaves(key))
        assert hash(key) == hash(query.canonical_key())
        assert pickle.loads(pickle.dumps(key)) == key

    def test_ranks_each_atom_a_bounded_number_of_times(self, monkeypatch):
        # A 10-atom chain over one predicate: every rank is compared, and
        # every step names a variable two atoms share. The key before
        # re-ranked every remaining atom at every step: n(n+1)/2 = 55.
        variables = [Variable(f"v{i}") for i in range(11)]
        chain = CQ(
            head=(variables[0],),
            atoms=tuple(
                role_atom("r", variables[i], variables[i + 1]) for i in range(10)
            ),
        )
        calls = []
        rank = cq_module._atom_rank

        def counting_rank(*args):
            calls.append(args)
            return rank(*args)

        monkeypatch.setattr(cq_module, "_atom_rank", counting_rank)
        key = chain.canonical_key()
        assert 10 <= len(calls) <= 3 * 10
        monkeypatch.undo()
        assert key == chain.canonical_key()
        reversed_chain = chain.with_atoms(tuple(reversed(chain.atoms)))
        assert reversed_chain.canonical_key() == key
