"""E9 — Proposition 5.7 / Algorithms 2-3: polynomial relevance.

* correctness sweep of IsPosRelevant / IsNegRelevant against the
  subset-enumeration oracle on random polarity-consistent CQ¬s;
* polynomial scaling on databases far beyond the oracle;
* the zero-Shapley connection: relevance exactly predicts nonzero Shapley
  for polarity-consistent facts (Example 5.4 / Corollary 5.6 setting).
"""

from __future__ import annotations

import random

from repro.relevance.algorithms import (
    is_negatively_relevant,
    is_positively_relevant,
    is_shapley_zero,
)
from repro.relevance.brute_force import (
    is_negatively_relevant_brute_force,
    is_positively_relevant_brute_force,
)
from repro.shapley.brute_force import shapley_brute_force
from repro.workloads.generators import (
    random_database_for_query,
    random_self_join_free_query,
    star_join_database,
)
from repro.workloads.running_example import query_q1


def test_e9_correctness_sweep(benchmark, report):
    rng = random.Random(90)

    def sweep():
        agreements = total = 0
        while total < 30:
            q = random_self_join_free_query(
                num_variables=rng.randint(2, 4), num_atoms=rng.randint(2, 4), rng=rng
            )
            if not q.is_polarity_consistent:
                continue
            db = random_database_for_query(
                q, domain_size=3, fill_probability=0.35, rng=rng
            )
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = rng.choice(endo)
            total += 2
            if is_positively_relevant(db, q, f) == (
                is_positively_relevant_brute_force(db, q, f)
            ):
                agreements += 1
            if is_negatively_relevant(db, q, f) == (
                is_negatively_relevant_brute_force(db, q, f)
            ):
                agreements += 1
        return agreements, total

    agreements, total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert agreements == total
    report(
        "E9: Algorithms 2/3 vs subset-enumeration oracle",
        ("relevance checks", "agreements"),
        [(total, agreements)],
    )


def test_e9_polynomial_scaling(benchmark, report):
    """Relevance on a 60+-fact instance where the oracle needs 2^60 subsets."""
    db = star_join_database(12, 6, rng=random.Random(91))
    q1 = query_q1()
    endo = sorted(db.endogenous, key=repr)
    target = endo[0]

    decided = benchmark(
        lambda: (
            is_positively_relevant(db, q1, target),
            is_negatively_relevant(db, q1, target),
        )
    )
    report(
        "E9: polynomial relevance beyond the oracle's reach",
        ("|Dn|", "target", "positively relevant", "negatively relevant"),
        [(len(endo), repr(target), decided[0], decided[1])],
    )


def test_e9_zero_shapley_connection(benchmark, report):
    """Relevance ⟺ Shapley ≠ 0 for every fact of the running example."""
    from repro.workloads.running_example import figure_1_database

    db = figure_1_database()
    q1 = query_q1()
    endo = sorted(db.endogenous, key=repr)

    def classify_all():
        return [(f, is_shapley_zero(db, q1, f)) for f in endo]

    verdicts = benchmark(classify_all)
    rows = []
    for f, predicted_zero in verdicts:
        actual = shapley_brute_force(db, q1, f)
        assert predicted_zero == (actual == 0)
        rows.append(
            (repr(f), "zero" if predicted_zero else "nonzero", str(actual), "ok")
        )
    report(
        "E9: zeroness via relevance (polynomial) vs exact values",
        ("fact", "predicted", "Shapley", "status"),
        rows,
    )


def test_e9_ucq_relevance(benchmark, report):
    """Union-wide polarity-consistent UCQ¬ relevance (Section 5.2 end)."""
    import random as _random

    from repro.core.parser import parse_ucq
    from repro.relevance.brute_force import (
        is_relevant_brute_force as oracle,
    )
    from repro.relevance.algorithms import is_relevant
    from repro.workloads.generators import random_database_for_query

    union = parse_ucq("R(x), not T(x) | S(x, y), not U(y)")
    rng = _random.Random(92)

    def sweep():
        agreements = total = 0
        while total < 15:
            db = random_database_for_query(
                union.disjuncts[0], domain_size=3, fill_probability=0.4, rng=rng
            )
            extra = random_database_for_query(
                union.disjuncts[1], domain_size=3, fill_probability=0.4, rng=rng
            )
            for item in extra.endogenous:
                if item not in db:
                    db.add_endogenous(item)
            for item in extra.exogenous:
                if item not in db:
                    db.add_exogenous(item)
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = rng.choice(endo)
            total += 1
            if is_relevant(db, union, f) == oracle(db, union, f):
                agreements += 1
        return agreements, total

    agreements, total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert agreements == total
    report(
        "E9: UCQ¬ relevance (union-wide polarity consistent) vs oracle",
        ("checks", "agreements", "union"),
        [(total, agreements, repr(union))],
    )
