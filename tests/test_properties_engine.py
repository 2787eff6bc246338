"""Property-based tests for the engine-backed answer/aggregate path.

Randomized CQ¬ instances (hypothesis-driven seeds through the workload
generators) check the game-theoretic axioms and the equivalence of the
three computation routes:

* **efficiency** — engine Shapley values sum to ``q(D) − q(Dx)``;
* **null player** — facts the query cannot see get exactly zero;
* **symmetry** — a database automorphism permutes values accordingly;
* **route equivalence** — batch engine == seed per-fact loop == brute
  force on the same instance;
* **linearity** — ``shapley_aggregate`` equals the weighted sum of the
  per-answer values computed by the *seed* (non-engine) dispatch.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from harness.seed_cntsat import shapley_all_values_per_fact, shapley_value
from repro.core.database import Database
from repro.core.evaluation import holds
from repro.core.facts import Fact, fact
from repro.engine import BatchAttributionEngine
from repro.shapley.aggregates import (
    aggregate_attribution,
    candidate_answers,
    shapley_aggregate,
)
from repro.shapley.answers import answer_attribution, ground_at_answer
from repro.shapley.banzhaf import banzhaf_brute_force
from repro.shapley.brute_force import shapley_all_brute_force
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
)

seeds = st.integers(min_value=0, max_value=10_000)


def _instance(seed: int, domain_size: int = 2, fill: float = 0.5):
    """A random hierarchical CQ¬ with a random database over its schema."""
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(
        query, domain_size=domain_size, fill_probability=fill, rng=rng
    )
    return query, database


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_engine_efficiency_axiom(seed):
    query, db = _instance(seed)
    result = BatchAttributionEngine().batch(db, query)
    grand = 1 if holds(query, db) else 0
    baseline = 1 if holds(query, list(db.exogenous)) else 0
    assert sum(result.shapley.values(), Fraction(0)) == grand - baseline


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_engine_null_player(seed):
    # A fact of a relation the query never mentions is a null player.
    query, db = _instance(seed)
    bystander = fact("Bystander", 0)
    db.add_endogenous(bystander)
    result = BatchAttributionEngine().batch(db, query)
    assert result.shapley[bystander] == 0
    assert result.banzhaf[bystander] == 0


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_engine_symmetry_under_automorphism(seed):
    # Mirror every fact through a constant swap 0 <-> 1.  The swapped
    # database equals the original, so the swap is an automorphism and
    # values must be invariant under it (the symmetry axiom).
    query, db = _instance(seed)
    swap = {0: 1, 1: 0}

    def mirrored(item: Fact) -> Fact:
        return Fact(item.relation, tuple(swap.get(arg, arg) for arg in item.args))

    endogenous: set[Fact] = set()
    for item in db.endogenous:
        endogenous.add(item)
        endogenous.add(mirrored(item))
    exogenous: set[Fact] = set()
    for item in db.exogenous:
        exogenous.add(item)
        exogenous.add(mirrored(item))
    symmetric = Database(
        endogenous=endogenous, exogenous=exogenous - endogenous
    )
    result = BatchAttributionEngine().batch(symmetric, query)
    for item in symmetric.endogenous:
        assert result.shapley[item] == result.shapley[mirrored(item)]


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_engine_matches_per_fact_loop_and_brute_force(seed):
    query, db = _instance(seed)
    result = BatchAttributionEngine().batch(db, query)
    assert dict(result.shapley) == shapley_all_values_per_fact(db, query)
    if len(db.endogenous) <= 8:
        assert dict(result.shapley) == shapley_all_brute_force(db, query)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_engine_banzhaf_matches_brute_force(seed):
    query, db = _instance(seed)
    if len(db.endogenous) > 7:
        return
    result = BatchAttributionEngine().batch(db, query)
    for item in sorted(db.endogenous, key=repr)[:4]:
        assert result.banzhaf[item] == banzhaf_brute_force(db, query, item)


def _with_head(query):
    """Promote one positively-bound variable of the query to the head."""
    for atom in query.atoms:
        if not atom.negated and atom.variables:
            head = min(atom.variables, key=lambda var: var.name)
            return query.with_head((head,))
    return None


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_aggregate_linearity_against_seed_dispatch(seed):
    # Σ_t val(t) · Shapley(D, q_t, f) computed by the engine-backed
    # aggregate must equal the same sum assembled from the *seed*
    # per-fact dispatch — a fully independent route.
    boolean, db = _instance(seed)
    query = _with_head(boolean)
    if query is None or not db.endogenous or len(db.endogenous) > 12:
        return

    def value_of(row):
        return 1 + (sum(map(int, row)) % 3)  # deterministic nonzero weights

    totals = aggregate_attribution(db, query, value_of)
    for item in sorted(db.endogenous, key=repr)[:3]:
        expected = Fraction(0)
        for row in sorted(candidate_answers(db, query), key=repr):
            grounded = ground_at_answer(query, row)
            expected += Fraction(value_of(row)) * shapley_value(db, grounded, item)
        assert totals[item] == expected
        assert shapley_aggregate(db, query, item, value_of) == expected


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_answer_attribution_matches_seed_dispatch(seed):
    boolean, db = _instance(seed)
    query = _with_head(boolean)
    if query is None or not db.endogenous or len(db.endogenous) > 12:
        return
    rows = sorted(candidate_answers(db, query), key=repr)[:2]
    for row in rows:
        values = answer_attribution(db, query, row)
        grounded = ground_at_answer(query, row)
        for item in sorted(db.endogenous, key=repr)[:3]:
            assert values[item] == shapley_value(db, grounded, item)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_per_answer_efficiency(seed):
    # Efficiency transfers to every grounding: the values for answer t
    # sum to q_t(D) − q_t(Dx).
    boolean, db = _instance(seed)
    query = _with_head(boolean)
    if query is None or not db.endogenous:
        return
    engine = BatchAttributionEngine()
    batch = engine.batch_answers(db, query)
    for answer, result in batch.per_answer.items():
        grounded = ground_at_answer(query, answer)
        grand = 1 if holds(grounded, db) else 0
        baseline = 1 if holds(grounded, list(db.exogenous)) else 0
        assert sum(result.shapley.values(), Fraction(0)) == grand - baseline
