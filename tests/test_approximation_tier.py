"""The approximation tier end to end (PR 6 acceptance criteria).

* one :class:`MethodPolicy` request shape: bare method names coerce,
  contracts are validated, and the wire still maps the legacy
  ``allow_brute_force`` field;
* sampled estimates are **deterministic**: the same request draws the
  same permutation stream under the serial and the ``jobs=2`` sharded
  backend, in-process and through the durable store;
* ``refine`` tightens the bound by **extending** the stored stream —
  the per-request stats show resumed rounds and zero restarts — across
  engines, processes (via the durable store), and the daemon;
* estimates and sample states **round-trip** the shared io dialect and
  the durable store without drift;
* a non-hierarchical query past the brute-force cap — the class the
  seed pipeline could only refuse — is **served** under ``auto`` as an
  ``(epsilon, delta)`` estimate in-process, via the CLI, and over the
  daemon wire.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from harness import running_daemon
from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import fact
from repro.core.evaluation import PrefixEvaluator
from repro.core.parser import parse_query, parse_ucq
from repro.engine import (
    DEFAULT_DELTA,
    BatchAttributionEngine,
    MethodPolicy,
    ShardedExecutor,
    SQLiteResultStore,
    relevant_facts,
    resolve_policy,
)
from repro.io import batch_result_from_dict, batch_result_to_dict, save_database
from repro.server import AttributionClient
from repro.shapley.answers import ground_at_answer
from repro.shapley.banzhaf import banzhaf_all_brute_force
from repro.shapley.brute_force import MAX_BRUTE_FORCE_PLAYERS, shapley_all_brute_force
from repro.shapley.sampling import (
    SampleState,
    achieved_epsilon,
    merge_totals,
    rounds_for_contract,
    run_rounds,
    sample_seed,
)
from repro.workloads.generators import export_database, hard_answers_database
from repro.workloads.queries import audit_query, intro_export_query
from repro.workloads.running_example import figure_1_database

INTRACTABLE_Q = "q() :- R(x), S(x, y), T(y)"
Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"

# sha256 of the sorted (repr(fact), total) rows that rounds 3 .. 9 of
# stream 20261017 produce on the 30-fact export instance, recorded from
# the per-prefix ``holds`` sampler that the witness-table sweeps
# replaced.  "mixed" keeps the generator's exogenous ``Grows`` facts;
# "endo" makes every fact a player.  The test ids keep the "1" suffix
# (one permutation and its reversal per round) they were recorded under.
GOLDEN_TOTALS = {
    "mixed": "c5cbcc3a473f1c44ea8648450755bfce2e1a09523a8ebbae0072ce65c5b3ad38",
    "endo": "30357bc8a487f77df70b714ef5b73e7104e8efa8acd4a7ef86af408395be7afd",
}

# The same digest for a UCQ¬ on the "mixed" instance, recorded from the
# fact-keyed incremental sweeps that the interval sweeps replaced.  The
# second disjunct has a ground negated atom and an exogenous positive
# image, so its witness's positive image is empty and q(Dx) = 1; the
# third meets its own negative image when c = c0.
GOLDEN_UCQ = (
    "Farmer(m), Export(m, p, c), not Grows(c, p)"
    " | Grows('c1', 'p1'), not Farmer('m3')"
    " | Export(m, p, c), not Export(m, p, 'c0'), not Farmer(m)"
)
GOLDEN_UCQ_TOTALS = "0f228d73675de893334ecb46604e9829691a3699497d524519f11227aa0e768e"


def totals_digest(totals) -> str:
    rows = sorted((repr(player), total) for player, total in totals.items())
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def intractable_db(players: int = 30) -> Database:
    """Non-hierarchical, no exogenous rescue, past the brute-force cap."""
    half = players // 2
    return Database(
        endogenous=[fact("R", i) for i in range(half)]
        + [fact("T", i) for i in range(half)],
        exogenous=[fact("S", i, i) for i in range(half)],
    )


class TestPolicyValidation:
    def test_bare_method_names_coerce(self):
        assert resolve_policy(None) == MethodPolicy()
        assert resolve_policy("sampled") == MethodPolicy("sampled")
        policy = MethodPolicy("exact")
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown method"):
            resolve_policy("guess")

    @pytest.mark.parametrize("epsilon,delta", [(0.0, 0.05), (1.0, 0.05), (0.1, 0.0), (0.1, 1.5)])
    def test_contract_must_lie_in_open_unit_interval(self, epsilon, delta):
        with pytest.raises(ValueError, match="epsilon and delta"):
            MethodPolicy("sampled", epsilon=epsilon, delta=delta)

    def test_contract_fingerprints_distinguish_accuracy_classes(self):
        loose = MethodPolicy("sampled", epsilon=0.2)
        tight = MethodPolicy("sampled", epsilon=0.1)
        assert loose.contract() != tight.contract()
        assert loose.contract() == MethodPolicy("auto", epsilon=0.2).contract()

    def test_params_round_trip(self):
        policy = MethodPolicy("sampled", epsilon=0.07, delta=0.02)
        assert MethodPolicy.from_params(policy.to_params()) == policy
        # Legacy wire field maps silently (the protocol boundary is not
        # a deprecation surface).
        assert MethodPolicy.from_params({"allow_brute_force": False}).method == "exact"
        assert MethodPolicy.from_params({}) == MethodPolicy()


class TestSampler:
    def test_rounds_match_hoeffding_contract(self):
        rounds = rounds_for_contract(0.1, 0.05)
        assert achieved_epsilon(rounds, 0.05) <= 0.1
        assert achieved_epsilon(rounds - 1, 0.05) > 0.1

    def test_disjoint_round_ranges_merge_to_the_full_run(self):
        db = intractable_db(8)
        q = parse_query(INTRACTABLE_Q)
        seed = sample_seed(("stream", "test"))
        full, _ = run_rounds(db, q, seed, 0, 20)
        head, _ = run_rounds(db, q, seed, 0, 7)
        tail, _ = run_rounds(db, q, seed, 7, 13)
        assert merge_totals(head, tail) == full

    @pytest.mark.parametrize(
        "labels", sorted(GOLDEN_TOTALS), ids=lambda labels: f"{labels}-1"
    )
    def test_round_range_totals_match_the_golden_digests(self, labels):
        db = export_database(11, 2, 2, rng=random.Random(1))
        assert len(db.facts) == 30
        if labels == "endo":
            db = Database(endogenous=db.facts)
        count = 7
        totals, evaluations = run_rounds(db, intro_export_query(), 20261017, 3, count)
        assert totals_digest(totals) == GOLDEN_TOTALS[labels]
        # One evaluation per prefix coalition: the empty and full ones
        # once, then m - 1 per sweep, 2 sweeps per round.
        m = len(db.endogenous)
        assert evaluations == 2 + count * 2 * (m - 1)

    @pytest.mark.parametrize("digest", [GOLDEN_UCQ_TOTALS], ids=["1"])
    def test_ucq_round_range_totals_match_the_golden_digests(self, digest):
        db = export_database(11, 2, 2, rng=random.Random(1))
        query = parse_ucq(GOLDEN_UCQ)
        evaluator = PrefixEvaluator(query, db)
        assert evaluator.empty == 1
        assert any(not positive for positive, _ in evaluator.witnesses)
        totals, _ = run_rounds(db, query, 20261017, 3, 7)
        assert totals_digest(totals) == digest

    def test_sampled_estimate_tracks_exact_values(self):
        # Small enough to brute force: the estimate of a tight contract
        # must land within its additive bound of the exact answer.
        db = intractable_db(8)
        q = parse_query(INTRACTABLE_Q)
        exact = BatchAttributionEngine().batch(db, q, policy="brute-force")
        sampled = BatchAttributionEngine().batch(
            db, q, policy=MethodPolicy("sampled", epsilon=0.05, delta=0.01)
        )
        assert sampled.method == "sampled"
        assert sampled.estimate is not None
        for player, value in exact.shapley.items():
            assert abs(float(sampled.shapley[player] - value)) <= 0.05

    def test_estimates_sum_to_the_query_gap(self):
        # Each sweep's marginals telescope to v(full) - v(empty), so the
        # estimate inherits the efficiency identity exactly.
        db = intractable_db(8)
        q = parse_query(INTRACTABLE_Q)
        result = BatchAttributionEngine().batch(
            db, q, policy=MethodPolicy("sampled", epsilon=0.3)
        )
        assert sum(result.shapley.values(), Fraction(0)) == 1


class TestAutoServesTheIntractableClass:
    def test_auto_samples_where_exact_refuses(self):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        with pytest.raises(IntractableQueryError, match="30"):
            BatchAttributionEngine().batch(db, q, policy="exact")
        result = BatchAttributionEngine().batch(db, q)
        assert result.method == "sampled"
        assert result.estimate is not None
        assert result.estimate.epsilon <= 0.1 + 1e-12
        assert result.estimate.rounds >= rounds_for_contract(0.1, 0.05)
        # Sampling estimates Shapley only.
        assert result.banzhaf == {}

    def test_brute_force_cap_counts_the_relevance_slice(self):
        # 36 endogenous facts, but a grounding of the audit query sees only
        # its own W fact and the 6-fact core: exact brute force over 2^7
        # coalitions, with the other answers' W facts zero-filled.
        db = hard_answers_database(30, 3, rng=random.Random(3))
        q = audit_query()
        assert len(db.endogenous) > MAX_BRUTE_FORCE_PLAYERS
        answer = ("w0",)
        grounded = ground_at_answer(q, answer)
        endogenous, exogenous = relevant_facts(db, grounded)
        sliced = Database(endogenous=endogenous, exogenous=exogenous)
        assert len(endogenous) == 7
        shapley = shapley_all_brute_force(sliced, grounded)
        banzhaf = banzhaf_all_brute_force(sliced, grounded)
        for policy in ("auto", "brute-force"):
            engine = BatchAttributionEngine()
            result = engine.batch_answers(db, q, [answer], policy=policy)
            served = result.per_answer[answer]
            assert served.method == "brute-force"
            assert served.estimate is None
            assert served.player_count == len(db.endogenous)
            for item in db.endogenous:
                if item in endogenous:
                    assert served.shapley[item] == shapley[item]
                    assert served.banzhaf[item] == banzhaf[item]
                else:
                    assert served.shapley[item] == served.banzhaf[item] == 0
        with pytest.raises(IntractableQueryError):
            BatchAttributionEngine().batch_answers(db, q, [answer], policy="exact")

    def test_sampled_results_are_deterministic_serial_vs_sharded(self):
        db = intractable_db(12)
        q = parse_query(INTRACTABLE_Q)
        policy = MethodPolicy("sampled", epsilon=0.25, delta=0.1)
        serial = BatchAttributionEngine().batch(db, q, policy=policy)
        sharded = BatchAttributionEngine(
            executor=ShardedExecutor(jobs=2)
        ).batch(db, q, policy=policy)
        assert serial.shapley == sharded.shapley
        assert serial.estimate.rounds == sharded.estimate.rounds
        assert serial.estimate.epsilon == sharded.estimate.epsilon

    def test_forcing_sampled_on_a_tractable_query_works(self):
        db = figure_1_database()
        q = parse_query(Q1)
        result = BatchAttributionEngine().batch(
            db, q, policy=MethodPolicy("sampled", epsilon=0.3)
        )
        assert result.method == "sampled"
        exact = BatchAttributionEngine().batch(db, q)
        for player, value in exact.shapley.items():
            assert abs(float(result.shapley[player] - value)) <= 0.3


class TestRefinement:
    def test_refine_extends_the_stream_without_restarting(self):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        engine = BatchAttributionEngine()
        first = engine.batch(
            db, q, policy=MethodPolicy("sampled", epsilon=0.2)
        )
        refined = engine.refine(db, q, epsilon=0.1)
        assert refined.estimate.epsilon <= 0.1
        assert refined.estimate.resumed_rounds == first.estimate.rounds
        counters = engine.counters()
        assert counters["sampler.restarts"] == 0
        assert counters["sampler.resumed_rounds"] == first.estimate.rounds
        # The refined stream is a superset: exactly the Hoeffding count
        # of the tighter contract, of which the first run is the prefix.
        assert refined.estimate.rounds == rounds_for_contract(0.1, 0.05)

    def test_default_refine_halves_the_bound(self):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        engine = BatchAttributionEngine()
        first = engine.batch(db, q, policy=MethodPolicy("sampled", epsilon=0.2))
        refined = engine.refine(db, q)
        assert refined.estimate.epsilon <= first.estimate.epsilon / 2 + 1e-12

    def test_default_refine_delta_is_the_policy_default(self):
        # A SampleState records no delta: a bare refine measures the
        # stored rounds at DEFAULT_DELTA, not at the batch's 0.01, and
        # halves the bound they reach there.
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        engine = BatchAttributionEngine()
        first = engine.batch(
            db, q, policy=MethodPolicy("sampled", epsilon=0.3, delta=0.01)
        )
        assert first.estimate.delta == 0.01
        refined = engine.refine(db, q)
        assert refined.estimate.delta == DEFAULT_DELTA
        assert refined.estimate.resumed_rounds == first.estimate.rounds
        target = achieved_epsilon(4 * first.estimate.rounds, DEFAULT_DELTA)
        assert refined.estimate.rounds == rounds_for_contract(target, DEFAULT_DELTA)

    def test_refinement_resumes_across_processes_via_persistent_tier(self, tmp_path):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        policy = MethodPolicy("sampled", epsilon=0.2)
        path = tmp_path / "results.db"
        cold = BatchAttributionEngine(shared=SQLiteResultStore(path))
        first = cold.batch(db, q, policy=policy)
        # A fresh engine on the same file — a "new process" — serves the
        # stored estimate without sampling a single round.
        warm = BatchAttributionEngine(shared=SQLiteResultStore(path))
        served = warm.batch(db, q, policy=policy)
        assert served.from_cache
        assert served.shapley == first.shapley
        assert served.estimate == first.estimate
        # And a third engine refines the *state*, not from scratch.
        refining = BatchAttributionEngine(shared=SQLiteResultStore(path))
        refined = refining.refine(db, q, epsilon=0.1)
        assert refined.estimate.resumed_rounds == first.estimate.rounds
        assert refining.counters()["sampler.restarts"] == 0

    def test_tighter_contract_reuses_looser_rounds(self):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        engine = BatchAttributionEngine()
        loose = engine.batch(db, q, policy=MethodPolicy("sampled", epsilon=0.3))
        tight = engine.batch(db, q, policy=MethodPolicy("sampled", epsilon=0.15))
        assert tight.estimate.resumed_rounds == loose.estimate.rounds
        assert engine.counters()["sampler.restarts"] == 0


class TestEstimateRoundTrips:
    def test_io_dialect_round_trips_the_estimate_block(self):
        db = intractable_db(30)
        q = parse_query(INTRACTABLE_Q)
        result = BatchAttributionEngine().batch(db, q)
        document = batch_result_to_dict(result)
        assert document["estimate"]["rounds"] == result.estimate.rounds
        # The document is honest JSON end to end.
        revived = batch_result_from_dict(json.loads(json.dumps(document)))
        assert revived.shapley == result.shapley
        assert revived.estimate == result.estimate

    def test_exact_results_carry_no_estimate_block(self):
        result = BatchAttributionEngine().batch(
            figure_1_database(), parse_query(Q1)
        )
        assert "estimate" not in batch_result_to_dict(result)
        assert batch_result_from_dict(batch_result_to_dict(result)).estimate is None

    def test_persistent_cache_round_trips_sample_state(self, tmp_path):
        state = SampleState(
            seed=1234,
            rounds=17,
            totals={fact("R", 1): 5, fact("T", 2): -3},
            evaluations=99,
        )
        path = tmp_path / "results.db"
        assert SQLiteResultStore(path).put(("sample-state", "k"), state)
        revived = SQLiteResultStore(path).get(("sample-state", "k"))
        assert isinstance(revived, SampleState)
        assert revived == state


class TestDaemonApproximation:
    def test_daemon_serves_refines_and_accounts_the_stream(self, tmp_path):
        db = intractable_db(30)
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                with pytest.raises(IntractableQueryError):
                    client.batch(handle, INTRACTABLE_Q, policy="exact")
                first = client.batch(handle, INTRACTABLE_Q)
                assert first.method == "sampled"
                assert first.estimate is not None
                # Anytime refinement over the wire: tighter bound, zero
                # restarted permutations, all prior rounds resumed.
                refined = client.refine(handle, INTRACTABLE_Q, epsilon=0.05)
                stats = client.last_response["stats"]
                assert refined.estimate.epsilon <= 0.05
                assert refined.estimate.resumed_rounds == first.estimate.rounds
                assert stats["sampler.restarts"] == 0
                assert stats["sampler.resumed_rounds"] == first.estimate.rounds

    def test_accuracy_classes_never_share_a_stored_result(self, tmp_path):
        db = intractable_db(30)
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                loose = client.batch(
                    handle,
                    INTRACTABLE_Q,
                    policy=MethodPolicy("sampled", epsilon=0.3),
                )
                tight = client.batch(
                    handle,
                    INTRACTABLE_Q,
                    policy=MethodPolicy("sampled", epsilon=0.15),
                )
                assert tight.estimate.epsilon <= 0.15
                assert loose.estimate.rounds < tight.estimate.rounds
                # Same contract again: bit-identical warm answer.
                again = client.batch(
                    handle,
                    INTRACTABLE_Q,
                    policy=MethodPolicy("sampled", epsilon=0.3),
                )
                assert again.shapley == loose.shapley
                assert again.estimate == loose.estimate


class TestCliApproximation:
    def test_cli_serves_and_refines_the_intractable_class(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hard.json"
        save_database(intractable_db(30), path)
        assert main(["batch", str(path), INTRACTABLE_Q, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["queries"]
        assert entry["method"] == "sampled"
        assert entry["estimate"]["rounds"] > 0
        cache = str(tmp_path / "cache")
        assert (
            main(["batch", str(path), INTRACTABLE_Q, "--cache-dir", cache]) == 0
        )
        first = capsys.readouterr().out
        assert "sampled" in first and "resumed=0" in first
        code = main(
            [
                "batch", str(path), INTRACTABLE_Q,
                "--cache-dir", cache, "--refine", "--json",
            ]
        )
        assert code == 0
        (refined,) = json.loads(capsys.readouterr().out)["queries"]
        assert refined["estimate"]["resumed_rounds"] > 0

    def test_refine_rejects_conflicting_method(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hard.json"
        save_database(intractable_db(30), path)
        code = main(
            ["batch", str(path), INTRACTABLE_Q, "--refine", "--method", "exact"]
        )
        assert code == 2
        assert "--refine" in capsys.readouterr().err
