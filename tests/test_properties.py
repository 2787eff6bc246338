"""Property-based tests (hypothesis) for the core invariants.

The key game-theoretic axioms (efficiency, null player, symmetry) and the
algorithm-equivalence properties (CntSat == enumeration, lifted ==
possible worlds, permutation == subset form) are checked on randomly
generated instances.
"""

import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from harness.seed_cntsat import count_satisfying_subsets
from repro.core.database import Database
from repro.core.evaluation import holds
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.probabilistic.lifted import query_probability_lifted
from repro.probabilistic.tid import TupleIndependentDatabase
from repro.probabilistic.worlds import query_probability_by_worlds
from repro.shapley.brute_force import (
    satisfying_subset_counts,
    shapley_all_brute_force,
)
from repro.shapley.exact import shapley_hierarchical
from repro.shapley.games import shapley_by_permutations, shapley_by_subsets
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
)

# A fixed hierarchical query with negation exercising all CntSat paths:
# root variable, disjoint component, negated subatom, constants.
Q_HIER = parse_query("q() :- R(x), not A(x), S(x, y), not B(x, y), U(z)")

# Facts over tiny domains, split endo/exo by a boolean.
values = st.integers(min_value=0, max_value=2)


def facts_strategy():
    r = st.tuples(st.just("R"), st.tuples(values))
    a = st.tuples(st.just("A"), st.tuples(values))
    s = st.tuples(st.just("S"), st.tuples(values, values))
    b = st.tuples(st.just("B"), st.tuples(values, values))
    u = st.tuples(st.just("U"), st.tuples(values))
    any_fact = st.one_of(r, a, s, b, u)
    return st.lists(
        st.tuples(any_fact, st.booleans()), min_size=0, max_size=9
    )


def build_database(raw) -> Database:
    db = Database()
    for (relation, args), endogenous in raw:
        db.add(Fact(relation, args), endogenous=endogenous)
    return db


@settings(max_examples=60, deadline=None)
@given(facts_strategy())
def test_cntsat_matches_enumeration(raw):
    db = build_database(raw)
    assert count_satisfying_subsets(db, Q_HIER) == satisfying_subset_counts(
        db, Q_HIER
    )


@settings(max_examples=40, deadline=None)
@given(facts_strategy())
def test_efficiency_axiom(raw):
    db = build_database(raw)
    if len(db.endogenous) > 8:
        return
    values_map = shapley_all_brute_force(db, Q_HIER)
    grand = 1 if holds(Q_HIER, db) else 0
    baseline = 1 if holds(Q_HIER, list(db.exogenous)) else 0
    assert sum(values_map.values(), Fraction(0)) == grand - baseline


@settings(max_examples=40, deadline=None)
@given(facts_strategy())
def test_polynomial_equals_brute_force_shapley(raw):
    db = build_database(raw)
    endo = sorted(db.endogenous, key=repr)
    if not endo or len(endo) > 8:
        return
    brute = shapley_all_brute_force(db, Q_HIER)
    for f in endo[:3]:
        assert shapley_hierarchical(db, Q_HIER, f) == brute[f]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_hierarchical_query_roundtrip(seed):
    # Generator invariant + CntSat agreement on generator outputs.
    rng = random.Random(seed)
    q = random_hierarchical_query(rng=rng)
    db = random_database_for_query(q, domain_size=2, fill_probability=0.5, rng=rng)
    if len(db.endogenous) > 9:
        return
    assert count_satisfying_subsets(db, q) == satisfying_subset_counts(db, q)


@settings(max_examples=40, deadline=None)
@given(facts_strategy())
def test_counts_bounded_by_binomial(raw):
    db = build_database(raw)
    counts = count_satisfying_subsets(db, Q_HIER)
    n = len(db.endogenous)
    for k, count in enumerate(counts):
        assert 0 <= count <= comb(n, k)


@settings(max_examples=40, deadline=None)
@given(
    facts_strategy(),
    st.integers(min_value=0, max_value=3),
)
def test_symmetry_of_interchangeable_facts(raw, pivot):
    # In q() :- R(x), all R-facts are symmetric players: equal values.
    q = parse_query("q() :- R(x)")
    db = Database()
    for (relation, args), endogenous in raw:
        if relation == "R":
            db.add(Fact(relation, args), endogenous=endogenous)
    if len(db.endogenous) > 8:
        return
    values_map = shapley_all_brute_force(db, q)
    endo_values = {values_map[f] for f in db.endogenous}
    assert len(endo_values) <= 1 or db.exogenous


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=31))
def test_permutation_and_subset_forms_agree_on_random_games(size, mask):
    players = list(range(size))

    def value(coalition: frozenset) -> int:
        key = sum(1 << p for p in coalition)
        return (key * 2654435761 + mask) % 3 - 1

    normalized = lambda s: value(s) - value(frozenset())

    def game(coalition: frozenset) -> int:
        return normalized(coalition)

    for target in players[:2]:
        assert shapley_by_permutations(players, game, target) == (
            shapley_by_subsets(players, game, target)
        )


@settings(max_examples=40, deadline=None)
@given(
    facts_strategy(),
    st.lists(st.integers(min_value=0, max_value=4), min_size=9, max_size=9),
)
def test_lifted_matches_worlds(raw, numerators):
    tid = TupleIndependentDatabase()
    for ((relation, args), _), numerator in zip(raw, numerators):
        tid.add(Fact(relation, args), Fraction(numerator, 4))
    if len(tid.uncertain_facts) > 8:
        return
    assert query_probability_lifted(tid, Q_HIER) == (
        query_probability_by_worlds(tid, Q_HIER)
    )


@settings(max_examples=40, deadline=None)
@given(facts_strategy())
def test_complement_of_complement_is_identity(raw):
    db = build_database(raw)
    if "S" not in db.relation_names:
        return
    domain = sorted(db.active_domain(), key=repr)
    once = db.complement_relation("S", domain=domain)
    mirror = Database()
    for item in once:
        mirror.add_exogenous(item)
    twice = mirror.complement_relation("S", arity=2, domain=domain)
    assert twice == frozenset(db.relation("S"))
