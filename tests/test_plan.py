"""Tests for the planner layer (repro.engine.plan).

The plan is the contract between the engine's layers: these tests pin
down the DAG shape — fingerprint node ids, method dispatch at plan time,
cross-grounding bundle deduplication, store pruning, and up-front
validation — without executing anything.
"""

import pytest

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    MethodPolicy,
    fingerprint_request,
    relevant_facts,
)
from repro.engine.plan import BUNDLE, RESULT, PlanRequest, build_plan
from repro.shapley.aggregates import candidate_answers
from repro.shapley.answers import ground_at_answer
from repro.shapley.brute_force import shapley_all_brute_force
from repro.workloads.queries import q_rst
from repro.workloads.running_example import figure_1_database, query_q2


class TestBooleanPlans:
    def test_single_cntsat_task_with_fingerprint_ids(self, running_example_db, q1):
        plan = build_plan(running_example_db, [PlanRequest(q1)])
        assert len(plan.tasks) == 1
        task = plan.tasks[0]
        assert task.method == "cntsat"
        assert task.key == fingerprint_request(running_example_db, q1, None)
        assert task.node_id == (RESULT, task.key)
        assert plan.stats.planned == 1 and plan.stats.pruned == 0
        # Every dependency is a bundle node of the plan.
        assert set(task.dependencies) <= set(plan.bundles)
        for node_id, bundle in plan.bundles.items():
            assert node_id == (BUNDLE, bundle.fingerprint)

    def test_exoshap_dispatch_rewrites_at_plan_time(self, running_example_db):
        from repro.core.hierarchy import is_hierarchical

        q2 = query_q2()
        plan = build_plan(running_example_db, [PlanRequest(q2)])
        task = plan.tasks[0]
        assert task.method == "exoshap"
        # The stored pair is the rewritten one: directly executable.
        assert is_hierarchical(task.query)
        assert task.query is not q2

    def test_brute_force_dispatch_has_no_bundles(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        plan = build_plan(db, [PlanRequest(q_rst())])
        assert plan.tasks[0].method == "brute-force"
        assert plan.tasks[0].dependencies == ()
        assert not plan.bundles

    def test_empty_database_plans_constant_task(self):
        plan = build_plan(Database(), [PlanRequest(parse_query("q() :- R(x)"))])
        assert plan.tasks[0].method == "empty"

    def test_duplicate_requests_collapse_onto_one_node(self, running_example_db, q1):
        plan = build_plan(running_example_db, [PlanRequest(q1), PlanRequest(q1)])
        assert plan.stats.requested == 2
        assert len(plan.tasks) == 1
        assert plan.requests[0].node_id == plan.requests[1].node_id


class TestAnswerPlans:
    def test_shared_component_is_one_bundle_node(self):
        # S(7) never mentions the head variable: its component is
        # identical across the three groundings and must be ONE plan node.
        # R(1) is endogenous, R(2) exogenous and R(3) absent, so no two
        # groundings are isomorphic and each plans its own task.
        db = Database(
            endogenous=[fact("R", 1), fact("S", 7)], exogenous=[fact("R", 2)]
        )
        q = parse_query("ans(x) :- R(x), S(y)")
        requests = [
            PlanRequest(ground_at_answer(q, (value,)), (value,))
            for value in (1, 2, 3)
        ]
        plan = build_plan(db, requests)
        assert len(plan.tasks) == 3
        assert len(plan.bundles) == 1  # the shared S(y) component
        shared = next(iter(plan.bundles))
        for task in plan.tasks:
            assert shared in task.dependencies

    def test_distinct_grounded_components_get_distinct_nodes(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        answers = [("Adam",), ("Ben",), ("Caroline",)]
        requests = [
            PlanRequest(ground_at_answer(q, answer), answer) for answer in answers
        ]
        plan = build_plan(db, requests)
        # Each grounding owns its Reg(t, y) component; nothing collapses.
        assert len(plan.bundles) == 3
        assert plan.stats.bundles == 3

    def test_inconsistent_request_is_a_constant_node(self):
        db = Database(endogenous=[fact("R", 1)])
        plan = build_plan(db, [PlanRequest(None, (1, 2), inconsistent=True)])
        task = plan.tasks[0]
        assert task.method == "inconsistent"
        assert task.key is None  # never consulted against, or written to, stores


class TestStorePruning:
    def test_serial_engines_skip_bundle_materialization(self, running_example_db, q1):
        # Only a sharding executor consumes bundle nodes; the serial
        # recursion re-derives them internally, so serial plans skip the
        # second top-level restriction/fingerprint pass.
        plan = build_plan(running_example_db, [PlanRequest(q1)], include_bundles=False)
        assert not plan.bundles
        assert plan.tasks[0].dependencies == ()
        assert plan.tasks[0].method == "cntsat"

    def test_satisfied_nodes_are_pruned(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)  # populate the store
        plan = build_plan(running_example_db, [PlanRequest(q1)], store=engine.store)
        assert not plan.tasks
        assert plan.stats.pruned == 1
        key = plan.requests[0].key
        assert plan.requests[0].node_id is None
        assert plan.satisfied[key].method == "cntsat"

    def test_unrelated_store_entries_do_not_prune(self, running_example_db, q1):
        store = BatchAttributionEngine().store
        plan = build_plan(running_example_db, [PlanRequest(q1)], store=store)
        assert len(plan.tasks) == 1 and plan.stats.pruned == 0

    def test_pruned_brute_force_respects_disallow_flag(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        engine = BatchAttributionEngine()
        assert engine.batch(db, q_rst()).method == "brute-force"
        with pytest.raises(IntractableQueryError):
            build_plan(
                db,
                [PlanRequest(q_rst())],
                policy=MethodPolicy("exact"),
                store=engine.store,
            )


class TestUpFrontValidation:
    def test_disallowed_brute_force_raises_at_plan_time(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        with pytest.raises(IntractableQueryError):
            build_plan(db, [PlanRequest(q_rst())], policy=MethodPolicy("exact"))

    def test_oversized_brute_force_raises_with_player_count(self):
        # Under the default "auto" policy an oversized brute-force request
        # degrades to sampling; "exact" still fails at plan time, naming
        # the player count.
        db = Database(
            endogenous=[fact("R", i) for i in range(28)]
            + [fact("T", i) for i in range(2)],
            exogenous=[fact("S", 1, 1)],
        )
        with pytest.raises(IntractableQueryError, match="30"):
            build_plan(db, [PlanRequest(q_rst())], policy=MethodPolicy("exact"))
        plan = build_plan(db, [PlanRequest(q_rst())])
        assert [task.method for task in plan.tasks] == ["sampled"]

    def test_multi_grounding_plan_fails_before_any_execution(self):
        # One bad grounding poisons the whole plan up front — no partial
        # execution ever starts.
        db = Database(
            endogenous=[fact("W", 1), fact("W", 2)]
            + [fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        q = parse_query("ans(w) :- W(w), R(x), S(x, y), T(y)")
        requests = [
            PlanRequest(ground_at_answer(q, (value,)), (value,))
            for value in (1, 2)
        ]
        with pytest.raises(IntractableQueryError):
            build_plan(db, requests, policy=MethodPolicy("exact"))


def _answer_requests(database, query, answers=None):
    if answers is None:
        answers = sorted(candidate_answers(database, query), key=repr)
    return [PlanRequest(ground_at_answer(query, answer), answer) for answer in answers]


class TestRelevanceSlices:
    def test_exact_groundings_carry_only_their_slice(self):
        # A deterministic work counter: a regression to grounding over all
        # of D fails here, independent of timing.  Student s registers for
        # s courses, so no two groundings are isomorphic and each plans
        # its own task.
        students = range(1, 26)
        database = Database(
            endogenous=[fact("Reg", s, c) for s in students for c in range(s)]
            + [fact("TA", s) for s in students if s % 3 == 0],
            exogenous=[fact("Stud", s) for s in students]
            + [fact("Course", c) for c in range(25)],
        )
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        requests = _answer_requests(database, query)
        plan = build_plan(database, requests)
        assert len(plan.tasks) == len(requests) > 20
        total = 0
        for task, request in zip(plan.tasks, requests):
            assert task.method == "cntsat"
            slice_facts = relevant_facts(database, request.query)
            assert task.database.endogenous == slice_facts[0]
            assert task.database.exogenous == slice_facts[1]
            total += len(slice_facts[0])
        assert sum(len(task.database.endogenous) for task in plan.tasks) == total
        assert 10 * total < len(requests) * len(database.endogenous)

    def test_exogenous_relations_are_inferred_from_the_whole_database(self):
        # The slice of q_a holds no endogenous A fact, but A is endogenous
        # in D: inferring X from the slice would call A exogenous and
        # rewrite the grounding with ExoShap.  X is a schema-level choice.
        database = Database(
            endogenous=[fact("A", "b", 1), fact("T", 2)],
            exogenous=[fact("A", "a", 1), fact("S", 1, 2)],
        )
        query = parse_query("ans(w) :- A(w, x), S(x, y), T(y)")
        requests = _answer_requests(database, query, [("a",)])
        plan = build_plan(database, requests)
        assert [task.method for task in plan.tasks] == ["brute-force"]
        assert plan.tasks[0].database.endogenous == {fact("T", 2)}
        with pytest.raises(IntractableQueryError):
            build_plan(database, requests, policy=MethodPolicy("exact"))
        # With X declared, a relation holding endogenous facts anywhere in
        # D is refused, exactly as over the whole database.
        with pytest.raises(ValueError, match="declared exogenous"):
            build_plan(database, requests, exogenous_relations={"A", "S"})
        served = BatchAttributionEngine().batch_answers(database, query, [("a",)])
        result = served.per_answer[("a",)]
        assert result.method == "brute-force"
        assert dict(result.shapley) == shapley_all_brute_force(
            database, ground_at_answer(query, ("a",))
        )
