"""E7 — Section 5.1: the additive FPRAS and its limits.

Reproduces the approximation story:

* Monte-Carlo error shrinks with the number of antithetic rounds and
  stays inside the Hoeffding envelope (convergence series on the
  running example);
* the same estimator cannot certify the gap-family value nonzero at any
  polynomial budget (additive ≠ multiplicative once negation is present);
* the stratified estimator's per-size budget against the engine
  sampler's rounds, at equal samples per target (variance ablation);
* the engine's ``sampled`` method (the approximation tier) traces its
  accuracy-vs-time frontier on the intractable class, and anytime
  refinement reaches a tight bound for the incremental price — resumed
  rounds are never recomputed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from repro.core.database import Database
from repro.core.facts import Fact, fact
from repro.core.parser import parse_query
from repro.core.query import BooleanQuery
from repro.engine import BatchAttributionEngine, MethodPolicy
from repro.reductions.gap import gap_instance
from repro.shapley.approximate import approximate_shapley
from repro.shapley.exact import shapley_hierarchical
from repro.shapley.sampling import hoeffding_sample_count
from repro.shapley.stratified import stratified_shapley_estimate
from repro.workloads.running_example import figure_1_database, query_q1

INTRACTABLE_Q = "q() :- R(x), S(x, y), T(y)"


def _intractable_db(players: int) -> Database:
    half = players // 2
    return Database(
        endogenous=[fact("R", i) for i in range(half)]
        + [fact("T", i) for i in range(half)],
        exogenous=[fact("S", i, i) for i in range(half)],
    )


def test_e7_convergence_series(benchmark, report):
    db = figure_1_database()
    q1 = query_q1()
    target = fact("TA", "Adam")
    exact = shapley_hierarchical(db, q1, target)

    def series():
        rows = []
        for samples in (50, 200, 800, 3200):
            estimate = approximate_shapley(
                db, q1, target, samples=samples, rng=random.Random(samples)
            )
            rows.append((samples, estimate.value))
        return rows

    rows = benchmark.pedantic(series, rounds=2, iterations=1)
    rendered = []
    previous_error = None
    for samples, value in rows:
        error = abs(value - exact)
        rendered.append(
            (samples, f"{float(value):+.4f}", f"{float(error):.4f}")
        )
        previous_error = error
    report(
        f"E7: Monte-Carlo convergence on q1, f = TA(Adam), exact = {exact}",
        ("rounds", "estimate", "|error|"),
        rendered,
    )
    # The largest budget must be accurate to the Hoeffding ε for δ=0.05.
    final_error = abs(rows[-1][1] - exact)
    assert final_error <= 0.12


def test_e7_hoeffding_budget_table(benchmark, report):
    def table():
        rows = []
        for epsilon in (0.2, 0.1, 0.05, 0.02):
            for delta in (0.05,):
                rows.append((epsilon, delta, hoeffding_sample_count(epsilon, delta)))
        return rows

    rows = benchmark(table)
    report(
        "E7: Hoeffding sample budgets (additive FPRAS)",
        ("epsilon", "delta", "samples"),
        rows,
    )
    assert rows[-1][2] > rows[0][2]


def test_e7_hoeffding_guarantee_holds(benchmark, report):
    """Empirical check of the (ε, δ) guarantee across seeds."""
    db = figure_1_database()
    q1 = query_q1()
    target = fact("Reg", "Ben", "OS")
    exact = shapley_hierarchical(db, q1, target)
    epsilon, delta = 0.15, 0.1

    def trial_run():
        hits = 0
        trials = 20
        for seed in range(trials):
            estimate = approximate_shapley(
                db, q1, target, epsilon=epsilon, delta=delta,
                rng=random.Random(seed),
            )
            if estimate.within(exact):
                hits += 1
        return hits, trials

    hits, trials = benchmark.pedantic(trial_run, rounds=1, iterations=1)
    report(
        "E7: empirical coverage of the additive guarantee (ε=0.15, δ=0.1)",
        ("trials", "estimates within ε", "required (≥ 1-δ)"),
        [(trials, hits, f"{int((1 - delta) * trials)}")],
    )
    assert hits >= (1 - delta) * trials


def test_e7_gap_family_defeats_additive_estimation(benchmark, report):
    """At poly budgets the gap value is statistically invisible."""
    inst = gap_instance(4)  # exact value 1/630

    def estimates():
        rows = []
        for samples in (100, 1000, 5000):
            estimate = approximate_shapley(
                inst.database, inst.query, inst.target,
                samples=samples, rng=random.Random(samples),
            )
            rows.append((samples, estimate.value))
        return rows

    rows = benchmark.pedantic(estimates, rounds=1, iterations=1)
    rendered = [
        (
            samples,
            f"{float(value):.5f}",
            str(inst.expected_value),
            "cannot separate from 0" if abs(value) < Fraction(1, 100) else "resolved",
        )
        for samples, value in rows
    ]
    report(
        "E7: additive estimates of the n=4 gap value (exact = 1/630)",
        ("rounds", "estimate", "exact", "multiplicative status"),
        rendered,
    )


def estimator_variance_comparison(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    budget: int,
    trials: int,
    rng: random.Random,
) -> tuple[float, float]:
    """Empirical variance of the engine sampler vs the stratified estimator.

    Both spend about ``budget`` marginal contributions of ``target`` per
    trial: the engine sampler as ``budget // 2`` antithetic rounds (two
    sweeps each), the stratified estimator as ``budget // m`` per
    coalition size.  Returns ``(engine_variance, stratified_variance)``
    over ``trials`` repetitions.
    """
    per_stratum = max(1, budget // len(database.endogenous))

    def variance(samples: list[float]) -> float:
        mean = sum(samples) / len(samples)
        return sum((value - mean) ** 2 for value in samples) / len(samples)

    engine = [
        float(
            approximate_shapley(
                database, query, target, samples=budget // 2,
                rng=random.Random(rng.random()),
            ).value
        )
        for _ in range(trials)
    ]
    stratified = [
        float(
            stratified_shapley_estimate(
                database, query, target, per_stratum,
                rng=random.Random(rng.random()),
            ).value
        )
        for _ in range(trials)
    ]
    return variance(engine), variance(stratified)


def test_e7_stratification_ablation(benchmark, report):
    """Variance of the engine sampler vs stratified sampling at equal budget."""
    db = figure_1_database()
    q1 = query_q1()
    targets = [fact("TA", "Adam"), fact("Reg", "Caroline", "DB")]

    def compare():
        rows = []
        for target in targets:
            # A string seed does not depend on PYTHONHASHSEED.
            engine, stratified = estimator_variance_comparison(
                db, q1, target, budget=160, trials=10,
                rng=random.Random(repr(target)),
            )
            rows.append((repr(target), engine, stratified))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    report(
        "E7: estimator ablation — empirical variance at a 160-sample budget",
        ("target fact", "engine sampler", "stratified sampler"),
        [
            (name, f"{engine:.2e}", f"{stratified:.2e}")
            for name, engine, stratified in rows
        ],
    )


def test_e7_engine_accuracy_time_frontier(benchmark, report, quick):
    """The approximation tier's frontier on the intractable class.

    The instance is small enough to brute force, so every point on the
    frontier reports its *true* worst-case error next to the contracted
    bound — the estimate must honor its epsilon, and tighter contracts
    must cost proportionally more rounds (Hoeffding is quadratic in
    ``1/epsilon``).
    """
    db = _intractable_db(12 if quick else 18)
    q = parse_query(INTRACTABLE_Q)
    exact = BatchAttributionEngine().batch(db, q, policy="brute-force").shapley
    epsilons = (0.3, 0.2) if quick else (0.3, 0.2, 0.1, 0.05)

    def frontier():
        rows = []
        for epsilon in epsilons:
            engine = BatchAttributionEngine()
            started = time.perf_counter()
            result = engine.batch(
                db, q, policy=MethodPolicy("sampled", epsilon=epsilon)
            )
            elapsed = time.perf_counter() - started
            worst = max(
                abs(float(result.shapley[player] - value))
                for player, value in exact.items()
            )
            rows.append((epsilon, result.estimate.rounds, worst, elapsed))
        return rows

    rows = benchmark.pedantic(frontier, rounds=1, iterations=1)
    report(
        "E7: engine sampled-method frontier (error vs contract vs time)",
        ("epsilon", "rounds", "worst |error|", "seconds"),
        [
            (eps, rounds, f"{worst:.4f}", f"{seconds:.3f}")
            for eps, rounds, worst, seconds in rows
        ],
    )
    for epsilon, _, worst, _ in rows:
        assert worst <= epsilon
    assert rows[-1][1] > rows[0][1]


def test_e7_refinement_is_incremental(benchmark, report, quick):
    """Refining reuses every stored round: no restarted permutations."""
    db = _intractable_db(16 if quick else 30)
    q = parse_query(INTRACTABLE_Q)
    loose, tight = (0.3, 0.15) if quick else (0.2, 0.05)

    def refine_chain():
        engine = BatchAttributionEngine()
        first = engine.batch(db, q, policy=MethodPolicy("sampled", epsilon=loose))
        refined = engine.refine(db, q, epsilon=tight)
        return first, refined, engine.counters()

    first, refined, counters = benchmark.pedantic(
        refine_chain, rounds=1, iterations=1
    )
    report(
        "E7: anytime refinement on the intractable class",
        ("stage", "epsilon <=", "rounds", "resumed", "restarts"),
        [
            ("first", f"{first.estimate.epsilon:.4f}", first.estimate.rounds, 0, 0),
            (
                "refined",
                f"{refined.estimate.epsilon:.4f}",
                refined.estimate.rounds,
                refined.estimate.resumed_rounds,
                counters["sampler.restarts"],
            ),
        ],
    )
    assert counters["sampler.restarts"] == 0
    assert refined.estimate.resumed_rounds == first.estimate.rounds
