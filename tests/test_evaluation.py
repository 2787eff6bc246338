"""Unit tests for homomorphism search and query evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import Database
from repro.core.evaluation import (
    FactIndex,
    PrefixEvaluator,
    answer_facts,
    answers,
    evaluate_boolean,
    find_homomorphisms,
    holds,
)
from repro.core.facts import fact
from repro.core.parser import parse_query, parse_ucq
from repro.core.query import Atom, ConjunctiveQuery, UnionQuery, Variable


class TestHolds:
    def test_positive_join(self):
        q = parse_query("q() :- R(x), S(x, y)")
        assert holds(q, [fact("R", 1), fact("S", 1, 2)])
        assert not holds(q, [fact("R", 1), fact("S", 2, 2)])

    def test_negation_blocks(self):
        q = parse_query("q() :- R(x), not T(x)")
        assert holds(q, [fact("R", 1)])
        assert not holds(q, [fact("R", 1), fact("T", 1)])
        assert holds(q, [fact("R", 1), fact("R", 2), fact("T", 2)])

    def test_constants(self):
        q = parse_query("q() :- Reg(x, OS)")
        assert holds(q, [fact("Reg", "ann", "OS")])
        assert not holds(q, [fact("Reg", "ann", "AI")])

    def test_repeated_variable(self):
        q = parse_query("q() :- R(x, x)")
        assert holds(q, [fact("R", 1, 1)])
        assert not holds(q, [fact("R", 1, 2)])

    def test_self_join_with_negation(self):
        # Example 5.3's query: R(x, y), ¬R(y, x).
        q = parse_query("q() :- R(x, y), not R(y, x)")
        assert not holds(q, [fact("R", 1, 2), fact("R", 2, 1)])
        assert holds(q, [fact("R", 1, 2)])

    def test_database_input_uses_all_facts(self):
        q = parse_query("q() :- R(x), S(x)")
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1)])
        assert holds(q, db)

    def test_evaluate_boolean(self):
        q = parse_query("q() :- R(x)")
        assert evaluate_boolean(q, [fact("R", 1)]) == 1
        assert evaluate_boolean(q, []) == 0

    def test_ucq_any_disjunct(self):
        u = parse_ucq("R(x) | S(x)")
        assert holds(u, [fact("S", 7)])
        assert not holds(u, [fact("T", 7)])

    def test_empty_relation_fails_positive_atom(self):
        q = parse_query("q() :- R(x), Missing(x)")
        assert not holds(q, [fact("R", 1)])

    def test_fact_of_another_arity_never_matches(self):
        # Scan and column lookup agree: R(1) has no second position to
        # bind y to, so it witnesses neither atom.
        assert not holds(parse_query("q() :- R(x, y)"), [fact("R", 1)])
        q = parse_query("q() :- S(x), R(x, y)")
        assert not holds(q, [fact("S", 1), fact("R", 1)])


class TestHomomorphisms:
    def test_all_assignments(self):
        q = parse_query("q() :- R(x), S(x, y)")
        facts = [fact("R", 1), fact("R", 2), fact("S", 1, 3), fact("S", 1, 4)]
        found = list(find_homomorphisms(q, facts))
        assert len(found) == 2
        xs = {assignment[Variable("x")] for assignment in found}
        ys = {assignment[Variable("y")] for assignment in found}
        assert xs == {1} and ys == {3, 4}

    def test_negation_filters_assignments(self):
        q = parse_query("q() :- R(x), not T(x)")
        facts = [fact("R", 1), fact("R", 2), fact("T", 1)]
        found = list(find_homomorphisms(q, facts))
        assert [assignment[Variable("x")] for assignment in found] == [2]

    def test_every_variable_bound(self):
        q = parse_query("q() :- R(x, y), not S(y)")
        found = list(find_homomorphisms(q, [fact("R", 1, 2)]))
        assert found and set(found[0]) == {Variable("x"), Variable("y")}


class TestAnswers:
    def test_projection(self):
        q = parse_query("ans(x) :- R(x, y)")
        rows = answers(q, [fact("R", 1, 2), fact("R", 1, 3), fact("R", 4, 5)])
        assert rows == {(1,), (4,)}

    def test_answers_rejects_boolean(self):
        q = parse_query("q() :- R(x)")
        with pytest.raises(ValueError):
            answers(q, [fact("R", 1)])

    def test_answer_facts(self):
        q = parse_query("ans(y, x) :- R(x, y)")
        produced = answer_facts(q, [fact("R", 1, 2)], "Swapped")
        assert produced == {fact("Swapped", 2, 1)}


class TestFactIndex:
    def test_contains_and_relation(self):
        index = FactIndex([fact("R", 1), fact("S", 2)])
        assert fact("R", 1) in index
        assert fact("R", 2) not in index
        assert index.relation("S") == {fact("S", 2)}
        assert index.relation("missing") == set()

    def test_index_reuse_is_consistent(self):
        q = parse_query("q() :- R(x)")
        index = FactIndex([fact("R", 1)])
        assert holds(q, index)
        assert holds(q, index)

    def test_missing_relation_has_an_empty_column(self):
        index = FactIndex([fact("R", 1)])
        assert index.column("Missing", 0) == {}
        assert not holds(parse_query("q() :- R(x), Missing(x)"), index)

    def test_column_keys_compare_across_types(self):
        # 1 == True, so both facts sit under one key, in relation order.
        facts = [fact("S", True, "a"), fact("S", 1, "b"), fact("S", 2, "c")]
        index = FactIndex(facts)
        column = index.column("S", 0)
        expected = [item for item in index.relation("S") if item.args[0] == 1]
        assert len(expected) == 2
        assert column[1] == column[True] == expected
        assert column[2] == [fact("S", 2, "c")]
        rows = answers(parse_query("ans(y) :- R(x), S(x, y)"), [fact("R", 1), *facts])
        assert rows == {("a",), ("b",)}

    def test_column_is_built_lazily_once(self):
        index = FactIndex([fact("S", 1, 2), fact("S", 1, 3), fact("S", 2, 3)])
        assert index._columns == {}
        found = list(find_homomorphisms(parse_query("q() :- S(1, y)"), index))
        assert [assignment[Variable("y")] for assignment in found] == [
            item.args[1] for item in index.relation("S") if item.args[0] == 1
        ]
        column = index.column("S", 0)
        assert list(index._columns) == [("S", 0)]
        assert index.column("S", 0) is column


RELATIONS = {"R": 1, "S": 2, "T": 2}
DOMAIN = (0, 1, 2)
VARIABLES = tuple(Variable(name) for name in "xyz")
# ``U`` occurs in no query, so its facts are players in no witness.
UNIVERSE = [
    fact(relation, *args)
    for relation, args in [("R", (a,)) for a in DOMAIN]
    + [(name, (a, b)) for name in ("S", "T") for a in DOMAIN for b in DOMAIN]
    + [("U", (a,)) for a in DOMAIN]
]


@st.composite
def cq_negs(draw, relations=RELATIONS, domain=DOMAIN):
    """A Boolean CQ¬ over ``relations`` (by default R/1, S/2, T/2) with
    constants from ``domain``, repeated variables, self-joins and ground
    negated atoms; sometimes only ground negations."""
    variable_term = st.sampled_from(VARIABLES)
    constant_term = st.sampled_from(domain)
    positives = []
    if draw(st.integers(0, 5)):
        for _ in range(draw(st.integers(1, 3))):
            relation = draw(st.sampled_from(sorted(relations)))
            terms = draw(
                st.lists(
                    st.one_of(variable_term, variable_term, constant_term),
                    min_size=relations[relation],
                    max_size=relations[relation],
                )
            )
            positives.append(Atom(relation, tuple(terms)))
    bound = sorted(
        {var for atom in positives for var in atom.variables}, key=repr
    )
    safe_term = (
        st.one_of(st.sampled_from(bound), constant_term) if bound else constant_term
    )
    negatives = []
    for _ in range(draw(st.integers(0 if positives else 1, 2))):
        relation = draw(st.sampled_from(sorted(relations)))
        terms = draw(
            st.lists(
                safe_term, min_size=relations[relation], max_size=relations[relation]
            )
        )
        negatives.append(Atom(relation, tuple(terms), negated=True))
    return ConjunctiveQuery(tuple(positives + negatives))


boolean_queries = st.one_of(
    cq_negs(),
    st.lists(cq_negs(), min_size=1, max_size=3).map(
        lambda disjuncts: UnionQuery(tuple(disjuncts))
    ),
)


@st.composite
def databases_with_orders(draw):
    """A database over UNIVERSE and a random order of its endogenous facts."""
    flags = draw(
        st.dictionaries(st.sampled_from(UNIVERSE), st.booleans(), max_size=14)
    )
    database = Database(
        endogenous=[item for item, endogenous in flags.items() if endogenous],
        exogenous=[item for item, endogenous in flags.items() if not endogenous],
    )
    order = draw(st.permutations(sorted(database.endogenous, key=repr)))
    return database, order


def assert_matches_holds(query, database, order):
    evaluator = PrefixEvaluator(query, database)
    exogenous = list(database.exogenous)
    outcomes = [evaluator.empty] + evaluator.sweep(order)
    expected = [
        int(holds(query, exogenous + order[:size])) for size in range(len(order) + 1)
    ]
    assert outcomes == expected


class TestPrefixEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(boolean_queries, databases_with_orders())
    def test_every_prefix_matches_holds(self, query, database_and_order):
        database, order = database_and_order
        assert_matches_holds(query, database, order)
        # Sweeps are independent: a second one starts from the empty
        # coalition again, here along the reversed order.
        assert_matches_holds(query, database, order[::-1])

    def test_overlapping_images_never_witness(self):
        # h(x) = h(y) = 1 maps S(x, y) and ¬S(y, x) onto the same fact.
        q = parse_query("q() :- S(x, y), not S(y, x)")
        db = Database(endogenous=[fact("S", 1, 1), fact("S", 1, 2), fact("S", 2, 1)])
        order = [fact("S", 1, 1), fact("S", 1, 2), fact("S", 2, 1)]
        assert PrefixEvaluator(q, db).sweep(order) == [0, 1, 0]
        assert_matches_holds(q, db, order)

    def test_exogenous_fact_blocks_negated_atom(self):
        q = parse_query("q() :- R(x), not T(x, x)")
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2)], exogenous=[fact("T", 1, 1)]
        )
        assert PrefixEvaluator(q, db).sweep([fact("R", 1), fact("R", 2)]) == [0, 1]

    def test_ground_negations_only(self):
        q = ConjunctiveQuery((Atom("R", (0,), negated=True),))
        db = Database(endogenous=[fact("U", 0), fact("R", 0)])
        evaluator = PrefixEvaluator(q, db)
        assert evaluator.empty == 1
        assert evaluator.sweep([fact("U", 0), fact("R", 0)]) == [1, 0]

    def test_union_of_disjuncts(self):
        u = parse_ucq("R(x), not T(x, x) | S(x, y)")
        db = Database(
            endogenous=[fact("R", 1), fact("T", 1, 1), fact("S", 1, 2)]
        )
        order = [fact("R", 1), fact("T", 1, 1), fact("S", 1, 2)]
        assert PrefixEvaluator(u, db).sweep(order) == [1, 0, 1]


# ``Missing`` has no facts; ``True`` equals the constant ``1``.
JOIN_RELATIONS = {**RELATIONS, "Missing": 2}
JOIN_DOMAIN = (0, 1, 2, True)
JOIN_UNIVERSE = [
    fact(relation, *args)
    for relation, args in [("R", (a,)) for a in JOIN_DOMAIN]
    + [(name, (a, b)) for name in ("S", "T") for a in JOIN_DOMAIN for b in JOIN_DOMAIN]
]


def _scan_join(query, index):
    """Reference join: the same greedy order, each step scans its relation.

    Negated atoms are checked once every variable is bound; checking
    them earlier, as the engine does, prunes the same branches.
    """
    remaining = list(query.positive_atoms)
    ordered, bound = [], set()
    while remaining:
        best = min(
            remaining,
            key=lambda atom: (
                len(atom.variables - bound),
                len(index.relation(atom.relation)),
            ),
        )
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables

    def search(position, assignment):
        if position == len(ordered):
            if not any(
                atom.substitute(assignment).to_fact() in index
                for atom in query.negative_atoms
            ):
                yield assignment
            return
        atom = ordered[position]
        for candidate in index.relation(atom.relation):
            extended = dict(assignment)
            for term, value in zip(atom.terms, candidate.args):
                if isinstance(term, Variable):
                    if extended.setdefault(term, value) != value:
                        break
                elif term != value:
                    break
            else:
                yield from search(position + 1, extended)

    return list(search(0, {}))


class TestIndexJoin:
    @settings(max_examples=300, deadline=None)
    @given(
        cq_negs(relations=JOIN_RELATIONS, domain=JOIN_DOMAIN),
        st.lists(st.sampled_from(JOIN_UNIVERSE), max_size=16),
    )
    def test_column_join_equals_a_full_scan_in_order(self, query, facts):
        found = list(find_homomorphisms(query, FactIndex(facts)))
        assert found == _scan_join(query, FactIndex(facts))

    def test_candidate_answers_join_is_linear(self, monkeypatch):
        from repro.core import evaluation
        from repro.shapley.aggregates import candidate_answers
        from repro.workloads.generators import star_join_database

        calls = 0
        extend = evaluation._extend

        def counted(*args):
            nonlocal calls
            calls += 1
            return extend(*args)

        monkeypatch.setattr(evaluation, "_extend", counted)
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        work = {}
        for n in (30, 120):
            calls = 0
            database = star_join_database(n, 8, rng=random.Random(n))
            assert candidate_answers(database, query)
            work[n] = calls
        # Four times the students: about four times the extensions when
        # each Reg step reads the bound student's column, not all of Reg.
        assert work[120] <= 5 * work[30], work
