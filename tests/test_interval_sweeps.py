"""Sampler rounds from witness intervals against a brute-force reference.

:func:`repro.shapley.sampling.run_rounds` credits each round's sweeps
from the intervals on which the query's witnesses hold
(:meth:`repro.core.evaluation.PrefixEvaluator.credit`): one pass per
round serves the forward sweep and its antithetic reversal.  The
reference below keeps the definition instead: it shuffles the facts
themselves with each round's :func:`round_rng`, walks that permutation
and its reversal, and evaluates every prefix with :func:`holds`.  The
inputs are the CQ¬/UCQ¬ queries and databases of
``tests/test_evaluation.py``, which cover ground
negations, exogenous facts blocking a negated atom, and positive and
negative images that overlap.  Worker processes build their own
evaluators, so a sharded engine must fold the same totals as a serial
one under both start methods.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.database import Database
from repro.core.evaluation import holds
from repro.core.parser import parse_ucq
from repro.engine import (
    BatchAttributionEngine,
    MethodPolicy,
    SerialExecutor,
    ShardedExecutor,
)
from repro.shapley.sampling import round_rng, run_rounds
from repro.workloads.generators import export_database
from test_evaluation import boolean_queries, databases_with_orders


def reference_totals(database, query, seed, start, count):
    """Marginal totals of rounds ``start .. start + count - 1``, one
    ``holds`` per prefix of every sweep."""
    players = sorted(database.endogenous, key=repr)
    exogenous = list(database.exogenous)
    totals = dict.fromkeys(players, 0)
    for index in range(start, start + count):
        permutation = list(players)
        round_rng(seed, index).shuffle(permutation)
        for sweep in (permutation, permutation[::-1]):
            previous = int(holds(query, exogenous))
            for size, player in enumerate(sweep, start=1):
                current = int(holds(query, exogenous + sweep[:size]))
                totals[player] += current - previous
                previous = current
    return totals


@settings(max_examples=200, deadline=None)
@given(boolean_queries, databases_with_orders(), st.data())
def test_run_rounds_match_per_prefix_evaluation(query, database_and_order, data):
    database, _ = database_and_order
    m = len(database.endogenous)
    assume(m <= 12)
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    start = data.draw(st.integers(0, 50), label="start")
    count = data.draw(st.integers(1, 3), label="count")

    totals, evaluations = run_rounds(database, query, seed, start, count)

    assert list(totals) == sorted(database.endogenous, key=repr)
    assert totals == reference_totals(database, query, seed, start, count)
    # Every sweep's flips telescope to q(D) - q(Dx).
    gap = int(holds(query, database)) - int(holds(query, database.exogenous))
    assert sum(totals.values()) == 2 * count * gap
    assert evaluations == (2 + count * 2 * (m - 1) if m else 0)


@settings(max_examples=25, deadline=None)
@given(boolean_queries, databases_with_orders())
def test_an_empty_round_range_credits_nothing(query, database_and_order):
    database, _ = database_and_order
    totals, evaluations = run_rounds(database, query, 7, 0, 0)
    assert totals == dict.fromkeys(sorted(database.endogenous, key=repr), 0)
    assert evaluations == 0


@pytest.mark.parametrize(
    "start_method",
    [
        method
        for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ],
)
def test_worker_rounds_match_serial_rounds(start_method):
    # Every export fact a player, and a UCQ¬ with a ground negated atom.
    base = export_database(6, 2, 2, rng=random.Random(3))
    database = Database(endogenous=base.facts)
    query = parse_ucq(
        "Farmer(m), Export(m, p, c), not Grows(c, p) | Grows(c, p), not Farmer('m0')"
    )
    policy = MethodPolicy("sampled", epsilon=0.3)
    serial = BatchAttributionEngine(executor=SerialExecutor()).batch(
        database, query, policy=policy
    )
    sharded = BatchAttributionEngine(
        executor=ShardedExecutor(jobs=2, start_method=start_method)
    ).batch(database, query, policy=policy)
    assert sharded.method == serial.method == "sampled"
    assert sharded.estimate == serial.estimate
    assert sharded.shapley == serial.shapley
    assert any(serial.shapley.values())
