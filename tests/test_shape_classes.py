"""Shape classes in the reverse-mode pass.

Every tape entry carries a process-stable shape digest.  The forward
pass convolves and hashes each AND/OR entry once per ``(kind, child
shapes)`` key and pass, and an OR step pulls one representative per
slice shape back — the other members' UNSAT vectors correlated away
once, with no division — copying numerators to the other members.  The
contracts:

* the engine equals brute force, Shapley and Banzhaf, on random
  hierarchical CQ¬ instances — including instances with one slice cloned
  under fresh constants, which force repeated classes;
* it equals the seed per-fact CntSat (``tests/harness``) on
  ``star_join_database``;
* a shape ignores the names of constants the query does not mention;
* bundles shipped back from spawned workers have the serial shapes;
* a slice satisfied by every subset (all-zero UNSAT vector) is handled;
* the step memo changes no tape entry, and no memo outlives its pass.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from harness.seed_cntsat import count_satisfying_subsets as seed_counter
from harness.seed_cntsat import shapley_hierarchical as seed_shapley
from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    ShardedExecutor,
    batch_count_vectors,
    bundle_for_component,
)
from repro.engine import bundles
from repro.engine.bundles import ATOM, OR, _live_facts
from repro.engine.cache import LRUCache
from repro.engine.plan import PlanRequest, build_plan
from repro.shapley.answers import ground_at_answer
from repro.shapley.banzhaf import banzhaf_all_brute_force, banzhaf_from_counts
from repro.shapley.brute_force import shapley_all_brute_force
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)

Q1 = "q() :- Stud(x), not TA(x), Reg(x, y)"


def _engine_batch(database, query):
    # The engine follows REPRO_JOBS, so a sharded environment groups
    # bundles that were shipped back from worker processes.
    return BatchAttributionEngine().batch(database, query)


def _largest_class(bundle) -> int:
    """The most slices of one shape under any OR step of the tape."""
    largest = 1
    if bundle.kind == OR:
        shapes = Counter(child.shape for child in bundle.parts)
        largest = max(shapes.values(), default=1)
    if bundle.kind != ATOM:
        for child in bundle.parts:
            largest = max(largest, _largest_class(child))
    return largest


def _clone(database: Database, constant, copies: int) -> Database:
    """``database`` plus ``copies`` renamed copies of every fact on ``constant``."""
    cloned = Database()
    for item in database.exogenous | database.endogenous:
        endogenous = database.is_endogenous(item)
        cloned.add(item, endogenous=endogenous)
        if constant in item.args:
            for copy in range(copies):
                args = tuple(
                    f"k{copy}:{arg}" if arg == constant else arg for arg in item.args
                )
                cloned.add(Fact(item.relation, args), endogenous=endogenous)
    return cloned


def _assert_matches_brute_force(database, query):
    result = _engine_batch(database, query)
    assert dict(result.shapley) == shapley_all_brute_force(database, query)
    assert dict(result.banzhaf) == banzhaf_all_brute_force(database, query)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_engine_equals_brute_force_with_cloned_slices(seed, copies, data):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(
        query, domain_size=2, fill_probability=0.4, rng=rng
    )
    domain = sorted(
        {arg for item in database.exogenous | database.endogenous for arg in item.args},
        key=repr,
    )
    if copies and domain:
        database = _clone(database, data.draw(st.sampled_from(domain)), copies)
    assume(0 < len(database.endogenous) <= 10)
    _assert_matches_brute_force(database, query)


def test_cloned_slices_with_negated_and_exogenous_atoms_form_a_class():
    # Slice s0 mixes an exogenous positive atom, an endogenous negated one
    # and a nested OR; three clones of it make a class of four.
    query = parse_query("q() :- R(x), not S(x), T(x, y)")
    database = Database()
    database.add(Fact("R", ("s0",)), endogenous=False)
    database.add(Fact("S", ("s0",)), endogenous=True)
    database.add(Fact("T", ("s0", "c0")), endogenous=True)
    database.add(Fact("T", ("s0", "c1")), endogenous=False)
    database.add(Fact("R", ("lone",)), endogenous=True)
    database.add(Fact("T", ("lone", "c0")), endogenous=True)
    database = _clone(database, "s0", 3)
    assert _largest_class(batch_count_vectors(database, query).root) == 4
    _assert_matches_brute_force(database, query)


def test_class_members_whose_nested_slices_sort_differently():
    # Slices a and b are isomorphic, but the nested slice with the negated
    # S fact is named p under a and q under b: numerators are copied in
    # shape order, not in the repr order of the nested constants.
    query = parse_query("q() :- R(x), T(x, y), not S(x, y)")
    database = Database()
    for s, negated in (("a", "p"), ("b", "q")):
        database.add(Fact("R", (s,)), endogenous=True)
        database.add(Fact("T", (s, "p")), endogenous=True)
        database.add(Fact("T", (s, "q")), endogenous=True)
        database.add(Fact("S", (s, negated)), endogenous=True)
    assert _largest_class(batch_count_vectors(database, query).root) == 2
    _assert_matches_brute_force(database, query)


@pytest.mark.parametrize(
    "students, courses, seed",
    [
        pytest.param(12, 8, 12, id="12"),
        pytest.param(20, 8, 20, id="20"),
        # Its tape has an OR step without parts.
        pytest.param(20, 6, 1, id="20-6-seed1"),
    ],
)
def test_engine_equals_per_fact_cntsat_on_star_join(students, courses, seed):
    database = star_join_database(students, courses, rng=random.Random(seed))
    query = parse_query(Q1)
    assert _largest_class(batch_count_vectors(database, query).root) > 1
    result = _engine_batch(database, query)
    for item in database.endogenous:
        assert result.shapley[item] == seed_shapley(database, query, item)
        assert result.banzhaf[item] == banzhaf_from_counts(
            database, query, item, seed_counter
        )


def test_shape_ignores_names_of_non_query_constants():
    database = star_join_database(12, 4, rng=random.Random(3))
    query = parse_query(Q1)
    constants = sorted(
        {arg for item in database.exogenous | database.endogenous for arg in item.args}
    )
    # A shuffled renaming reorders the repr-sorted slices of every OR step.
    names = [f"n{index:03d}" for index in range(len(constants))]
    random.Random(4).shuffle(names)
    rename = dict(zip(constants, names))
    relabelled = Database()
    for item in database.exogenous | database.endogenous:
        relabelled.add(
            Fact(item.relation, tuple(rename[arg] for arg in item.args)),
            endogenous=database.is_endogenous(item),
        )
    original = batch_count_vectors(database, query)
    renamed = batch_count_vectors(relabelled, query)
    assert renamed.root.shape == original.root.shape
    values = _engine_batch(database, query).shapley
    renamed_values = _engine_batch(relabelled, query).shapley
    for item, value in values.items():
        twin = Fact(item.relation, tuple(rename[arg] for arg in item.args))
        assert renamed_values[twin] == value


def test_spawn_shipped_bundles_have_serial_shapes():
    database = star_join_database(8, 4, rng=random.Random(5))
    query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
    students = sorted(item.args[0] for item in database.relation("Stud"))
    plan = build_plan(
        database,
        [PlanRequest(ground_at_answer(query, (s,)), (s,)) for s in students],
    )
    assert len(plan.bundles) >= 2
    cache = LRUCache(1024)
    _, stats = ShardedExecutor(jobs=2, start_method="spawn").execute(plan, cache)
    assert stats.shipped > 0 and stats.fallbacks == 0
    for task in plan.bundles.values():
        shipped = cache.peek(task.fingerprint)
        assert shipped.shape == bundle_for_component(task.scope).shape


@pytest.mark.parametrize("twins", [1, 2])
def test_all_zero_unsat_slices(twins):
    # Slice y=0 of every T(s, y) holds exogenously: its UNSAT vector is
    # all zero, so every rest of its OR step is zero.  With two such
    # slices (twins=2) the zero vector is itself a repeated class.
    query = parse_query("q() :- R(x), T(x, y), V(z), not U(z)")
    database = Database()
    for s in ("a", "b", "c"):
        database.add(Fact("R", (s,)), endogenous=True)
        for y in range(twins):
            database.add(Fact("T", (s, f"e{y}")), endogenous=False)
        database.add(Fact("T", (s, "y1")), endogenous=True)
        database.add(Fact("T", (s, "y2")), endogenous=True)
    database.add(Fact("V", ("z0",)), endogenous=True)
    database.add(Fact("U", ("z0",)), endogenous=True)
    vectors = batch_count_vectors(database, query)
    assert _largest_class(vectors.root) >= 2
    _assert_matches_brute_force(database, query)
    result = _engine_batch(database, query)
    assert result.shapley[Fact("T", ("a", "y1"))] == 0
    assert result.shapley[Fact("R", ("a",))] != 0


def _tape(bundle):
    """Every field of every entry below ``bundle``, as one nested tuple."""
    parts = bundle.parts
    if bundle.kind != ATOM:
        parts = tuple(_tape(child) for child in parts)
    zero = tuple(sorted(bundle.zero, key=repr))
    return (bundle.kind, bundle.owned, bundle.sat, zero, bundle.shape, parts)


def _unmemoized(memo, kind, children, product):
    zero = set()
    for child in children:
        zero |= child.zero
    owned = sum(child.owned for child in children)
    return bundles._step(owned, product(), zero, kind, children)


def _assert_memo_changes_no_entry(monkeypatch, database, query):
    memoized = batch_count_vectors(database, query)
    with monkeypatch.context() as patched:
        patched.setattr(bundles, "_shared_step", _unmemoized)
        fresh = batch_count_vectors(database, query)
    assert memoized.baseline == fresh.baseline
    assert memoized.zero_facts == fresh.zero_facts
    assert _tape(memoized.root) == _tape(fresh.root)
    assert list(_live_facts(memoized.root)) == list(_live_facts(fresh.root))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_step_memo_changes_no_entry_on_star_joins(monkeypatch, seed):
    database = star_join_database(20, 6, rng=random.Random(seed))
    _assert_memo_changes_no_entry(monkeypatch, database, parse_query(Q1))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.filter_too_much,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_step_memo_changes_no_entry_with_cloned_slices(
    monkeypatch, seed, copies, data
):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(
        query, domain_size=3, fill_probability=0.5, rng=rng
    )
    domain = sorted(
        {arg for item in database.exogenous | database.endogenous for arg in item.args},
        key=repr,
    )
    if copies and domain:
        database = _clone(database, data.draw(st.sampled_from(domain)), copies)
    _assert_memo_changes_no_entry(monkeypatch, database, query)


def test_step_memo_keeps_and_children_in_order(monkeypatch):
    # Slices a and b have the same multiset of child shapes in swapped
    # order, so their AND shapes differ and must not share a memo entry.
    query = parse_query("q() :- R(x), S(x)")
    database = Database()
    for s, endogenous in (("a", "R"), ("b", "S")):
        for relation in ("R", "S"):
            database.add(Fact(relation, (s,)), endogenous=relation == endogenous)
    _assert_memo_changes_no_entry(monkeypatch, database, query)


def test_back_to_back_cold_engines_do_equal_kernel_work():
    database = star_join_database(12, 4, rng=random.Random(6))
    query = parse_query(Q1)

    def kernel_work():
        engine = BatchAttributionEngine()
        engine.batch(database, query)
        counters = engine.counters()
        return {key: counters[key] for key in counters if key.startswith("kernel.")}

    first = kernel_work()
    assert first["kernel.schoolbook_calls"] > 0
    assert kernel_work() == first
