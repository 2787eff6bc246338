"""Isomorphic answer groundings share one exact task (the symmetry axiom).

``batch_answers`` plans one exact task per isomorphism class of answer
groundings — equal relevance slices and grounded queries up to renaming
constants — and renames the representative's result onto every other
member.  The oracle here is the unshared path: one ``engine.batch`` per
answer on its grounding ``q_t``, which must agree ``Fraction`` for
``Fraction``.  Sampled groundings never share: each keeps its own key,
seed and permutation stream, pinned by goldens of the per-answer
planner.
"""

from __future__ import annotations

import hashlib
import random
import sqlite3
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.database import Database
from repro.core.facts import Fact, fact
from repro.core.parser import parse_query
from repro.core.query import Atom, ConjunctiveQuery, Variable
from repro.engine import BatchAttributionEngine, MethodPolicy
from repro.engine.sqlite_store import SQLiteResultStore
from repro.shapley.aggregates import candidate_answers
from repro.shapley.answers import ground_at_answer, head_assignment
from repro.workloads.generators import star_join_database

STAR_QUERY = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


def _assert_matches_oracle(database, query, batch):
    """Every answer of ``batch`` equals its own per-answer ``batch`` call."""
    oracle = BatchAttributionEngine()
    for answer, served in batch.per_answer.items():
        if head_assignment(query, answer) is None:
            assert served.method == "inconsistent"
            continue
        expected = oracle.batch(
            database, ground_at_answer(query, answer), grounding=answer
        )
        assert served.method == expected.method, answer
        assert served.player_count == expected.player_count, answer
        for measure in ("shapley", "banzhaf"):
            got, want = getattr(served, measure), getattr(expected, measure)
            assert list(got) == list(want), (answer, measure)
            for item, value in want.items():
                assert type(got[item]) is Fraction and type(value) is Fraction
                assert got[item] == value, (answer, measure, item)


# ----------------------------------------------------------------------
# The random oracle: CQ¬s with self-joins, negation, exogenous relations,
# query constants and repeated head variables, over databases made of
# near-copies of one block of facts — so many groundings are isomorphic,
# and many more almost are.
# ----------------------------------------------------------------------
ARITIES = {"R": 2, "S": 2, "U": 1}
#: ``1`` and ``True`` are one constant under ``==``; ``"a"`` also shows
#: up in queries, so answer and data constants can equal query ones.
DOMAIN = (1, True, 2, "a")
VARIABLES = tuple(Variable(name) for name in ("x", "y", "z"))


@st.composite
def queries(draw):
    atoms = []
    relations = sorted(ARITIES)
    for _ in range(draw(st.integers(2, 3))):
        # Self-joins are frequent: the first relation is drawn again.
        relation = draw(st.sampled_from(relations))
        relations.append(atoms[0][0] if atoms else relation)
        # Most atoms mention x, so most groundings cut each answer's own
        # facts out of the copies.
        terms = tuple(
            draw(
                st.one_of(
                    st.just(VARIABLES[0]),
                    st.sampled_from(VARIABLES),
                    st.sampled_from(DOMAIN),
                )
            )
            for _ in range(ARITIES[relation])
        )
        atoms.append([relation, terms, draw(st.booleans())])
    atoms[0][2] = False
    if not any(isinstance(term, Variable) for term in atoms[0][1]):
        atoms[0][1] = (VARIABLES[0],) + atoms[0][1][1:]
    positive = {
        term
        for relation, terms, negated in atoms
        if not negated
        for term in terms
        if isinstance(term, Variable)
    }
    for atom in atoms:
        # Safe negation: a negated atom's variables all occur positively.
        if atom[2] and not all(
            term in positive for term in atom[1] if isinstance(term, Variable)
        ):
            atom[2] = False
        positive |= {term for term in atom[1] if isinstance(term, Variable)}
    variables = sorted(positive, key=repr)
    head = (variables[0],) + tuple(
        draw(st.lists(st.sampled_from(variables), max_size=1))
    )
    return ConjunctiveQuery(
        tuple(Atom(relation, terms, negated) for relation, terms, negated in atoms),
        head=head,
        name="ans",
    )


@st.composite
def instances(draw):
    """A query, and a database of renamed copies of one block of facts.

    Block facts range over head slots, private slots and ``DOMAIN``.
    Each copy maps the head slots to its answer and every private slot
    to a constant of its own or to a ``DOMAIN`` value (so ``1`` in one
    copy may face ``True`` in another, or a query constant), then drops
    some facts.
    """
    query = draw(queries())
    head = sorted(set(query.head), key=repr)
    slots = [("head", var) for var in head] + [("private", j) for j in range(2)]
    terms = st.sampled_from(slots + list(DOMAIN))
    exogenous_relation = draw(st.sampled_from(sorted(ARITIES) + [None]))
    block = [
        (
            relation,
            tuple(draw(terms) for _ in range(ARITIES[relation])),
            relation == exogenous_relation or draw(st.integers(0, 3)) == 0,
        )
        for relation in draw(
            st.lists(st.sampled_from(sorted(ARITIES)), min_size=1, max_size=5)
        )
    ]
    facts: dict[Fact, bool] = {}
    answers = []
    for copy in range(draw(st.integers(2, 4))):
        values = {
            slot: draw(st.sampled_from((f"c{copy}{index}",) * 4 + DOMAIN))
            for index, slot in enumerate(slots)
        }
        answers.append(tuple(values[("head", var)] for var in query.head))
        for relation, args, exogenous in block:
            if draw(st.integers(0, 7)) == 0:
                continue
            renamed = tuple(values.get(arg, arg) for arg in args)
            facts.setdefault(Fact(relation, renamed), exogenous)
    database = Database(
        endogenous=[item for item, exogenous in facts.items() if not exogenous],
        exogenous=[item for item, exogenous in facts.items() if exogenous],
    )
    return database, query, answers if draw(st.booleans()) else None


@settings(max_examples=200, deadline=None)
@given(instances())
def test_aliased_answers_equal_per_answer_batches(instance):
    database, query, answers = instance
    batch = BatchAttributionEngine().batch_answers(database, query, answers)
    _assert_matches_oracle(database, query, batch)


# ----------------------------------------------------------------------
# The cases a renaming must get right.
# ----------------------------------------------------------------------
def test_star_join_runs_one_task_per_class_and_prunes_warm():
    database = star_join_database(60, 8, rng=random.Random(60))
    query = parse_query(STAR_QUERY)
    engine = BatchAttributionEngine()
    cold = engine.batch_answers(database, query)
    planner = engine.planner_stats
    assert (planner.requested, planner.planned, planner.pruned) == (60, 13, 0)
    _assert_matches_oracle(database, query, cold)
    warm = engine.batch_answers(database, query)
    planner = engine.planner_stats
    assert (planner.requested, planner.planned, planner.pruned) == (120, 13, 60)
    for answer, result in cold.per_answer.items():
        assert warm.per_answer[answer].from_cache
        assert dict(warm.per_answer[answer].shapley) == dict(result.shapley)
        assert dict(warm.per_answer[answer].banzhaf) == dict(result.banzhaf)


def test_equal_constants_of_two_types_are_one_constant():
    # Under R(w, x, y), S(w, y, x), answer "a" holds (True == 1), answer
    # "b" does not: renaming 1 and True apart would alias the two.
    database = Database(
        endogenous=[
            fact("R", "a", 1, "c"),
            fact("S", "a", "c", True),
            fact("R", "b", 5, "c"),
            fact("S", "b", "c", 6),
        ]
    )
    query = parse_query("ans(w) :- R(w, x, y), S(w, y, x)")
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [("a",), ("b",)])
    assert engine.planner_stats.planned == 2
    assert batch.per_answer[("a",)].shapley[fact("R", "a", 1, "c")] == Fraction(1, 2)
    assert batch.per_answer[("b",)].shapley[fact("R", "b", 5, "c")] == 0
    _assert_matches_oracle(database, query, batch)


def test_one_and_true_answers_share_a_class():
    # (1,) and (True,) are distinct answers whose groundings are equal.
    database = Database(endogenous=[fact("U", 1), fact("R", 1, 2)])
    query = parse_query("ans(x) :- U(x), R(x, y)")
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [(1,), (True,)])
    assert engine.planner_stats.planned == 1
    assert set(batch.per_answer) == {(1,), (True,)}
    _assert_matches_oracle(database, query, batch)


def test_query_constants_stay_fixed():
    # R(1, "a") and R(2, "b") are isomorphic as data, but only the first
    # is the query's R(w, "a"): answer 1 holds, answer 2 never does.
    database = Database(endogenous=[fact("R", 1, "a"), fact("R", 2, "b")])
    query = parse_query('ans(w) :- R(w, "a"), R(w, y)')
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [(1,), (2,)])
    assert engine.planner_stats.planned == 2
    assert batch.per_answer[(1,)].shapley[fact("R", 1, "a")] == 1
    assert batch.per_answer[(2,)].shapley[fact("R", 2, "b")] == 0
    _assert_matches_oracle(database, query, batch)


def test_answer_constant_equal_to_a_query_constant():
    # The answer "a" is also the query's constant: its grounding R(a, a),
    # not R(a, a) never holds, while "b" and "c" swap into each other.
    database = Database(
        endogenous=[fact("R", "a", "a")]
        + [fact("R", t, "a") for t in "bc"]
        + [fact("R", "a", t) for t in "bc"],
        exogenous=[fact("U", t) for t in "abc"],
    )
    query = parse_query('ans(x) :- U(x), R(x, "a"), not R("a", x)')
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [("a",), ("b",), ("c",)])
    assert engine.planner_stats.planned == 2
    assert batch.per_answer[("a",)].shapley[fact("R", "a", "a")] == 0
    assert batch.per_answer[("c",)].shapley[fact("R", "c", "a")] == Fraction(1, 2)
    _assert_matches_oracle(database, query, batch)


def test_exoshap_groundings_alias_and_repeated_heads_stay_inconsistent():
    database = Database(
        endogenous=[fact("R", i, i) for i in range(3)]
        + [fact("S", i, "p") for i in range(3)],
        exogenous=[fact("T", "p")],
    )
    query = parse_query("ans(x, x) :- R(x, y), S(y, z), not T(z)")
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [(0, 0), (1, 1), (2, 2), (0, 1)])
    # One ExoShap task for the three isomorphic groundings, one constant
    # task for the tuple that conflicts with the repeated head variable.
    assert engine.planner_stats.planned == 2
    assert batch.per_answer[(2, 2)].method == "exoshap"
    assert batch.per_answer[(0, 1)].method == "inconsistent"
    _assert_matches_oracle(database, query, batch)


def test_a_constant_unequal_to_itself_disables_aliasing():
    # R(x, NaN) matches no fact, so groundings 3 and 4 are isomorphic;
    # a NaN has no == class to rename, so each plans its own task.
    x = Variable("x")
    query = ConjunctiveQuery(
        (Atom("U", (x,)), Atom("R", (x, float("nan")), negated=True)),
        head=(x,),
        name="ans",
    )
    database = Database(endogenous=[fact("U", 3), fact("U", 4), fact("R", 3, 1)])
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(database, query, [(3,), (4,)])
    assert engine.planner_stats.planned == 2
    _assert_matches_oracle(database, query, batch)


def test_stored_rows_equal_the_per_answer_rows(tmp_path):
    database = star_join_database(12, 4, rng=random.Random(12))
    query = parse_query(STAR_QUERY)

    def rows(path):
        connection = sqlite3.connect(path)
        try:
            return sorted(
                connection.execute("SELECT digest, payload, bytes, writer FROM results")
            )
        finally:
            connection.close()

    shared = SQLiteResultStore(tmp_path / "aliased.db")
    engine = BatchAttributionEngine(shared=shared)
    engine.batch_answers(database, query)
    assert engine.planner_stats.planned < engine.planner_stats.requested
    single = SQLiteResultStore(tmp_path / "single.db")
    oracle = BatchAttributionEngine(shared=single)
    answers = candidate_answers(database, query)
    for answer in answers:
        oracle.batch(database, ground_at_answer(query, answer), grounding=answer)
    shared.close()
    single.close()
    aliased = rows(tmp_path / "aliased.db")
    assert len(aliased) == len(answers)
    assert aliased == rows(tmp_path / "single.db")


# ----------------------------------------------------------------------
# Sampled groundings keep their own key, seed and stream.
# ----------------------------------------------------------------------
def _digest(result) -> str:
    digest = hashlib.sha256()
    for item in sorted(result.shapley, key=repr):
        value = result.shapley[item]
        digest.update(f"{item!r}={value.numerator}/{value.denominator};".encode())
    return digest.hexdigest()[:16]


#: Per-answer estimate digests of the planner that ran one task per
#: answer, before isomorphic groundings shared tasks.
FORCED_GOLDENS = {
    ("s0",): "8a50f733883d51ff",
    ("s1",): "3b45eaaccdfcde88",
    ("s2",): "e0301666eed91210",
    ("s3",): "5c0224745da37cd1",
    ("s4",): "86e832a6e59b7775",
    ("s5",): "1ac09fb29693f8ce",
}
FALLBACK_GOLDENS = {("a",): "77a1465e7a822734", ("b",): "6e72465b324c4b81"}


def _assert_sampled_goldens(engine, batch, goldens):
    digests = {answer: _digest(result) for answer, result in batch.per_answer.items()}
    assert digests == goldens
    for result in batch.per_answer.values():
        assert result.method == "sampled"
        assert result.estimate.rounds == 82
    assert engine.planner_stats.planned == len(goldens)
    assert engine.sample_stats.requests == len(goldens)


def test_forced_sampled_groundings_keep_their_streams():
    # The exact plan of this database has three classes for six answers.
    database = star_join_database(6, 3, rng=random.Random(6))
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(
        database,
        parse_query(STAR_QUERY),
        policy=MethodPolicy("sampled", epsilon=0.3),
    )
    _assert_sampled_goldens(engine, batch, FORCED_GOLDENS)


def test_auto_fallback_groundings_keep_their_streams():
    # Two isomorphic non-hierarchical groundings over 25 players each:
    # past the brute-force cap, so auto samples both.
    core = 12
    database = Database(
        endogenous=[fact("W", "a"), fact("W", "b")]
        + [fact("R", i) for i in range(core)]
        + [fact("T", i) for i in range(core)],
        exogenous=[fact("S", i, (i * 5 + 1) % core) for i in range(core)]
        + [fact("S", i, (i * 7 + 3) % core) for i in range(core)],
    )
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(
        database,
        parse_query("ans(w) :- W(w), R(x), S(x, y), T(y)"),
        policy=MethodPolicy("auto", epsilon=0.3),
    )
    _assert_sampled_goldens(engine, batch, FALLBACK_GOLDENS)
