"""E4 — Figures 2/3, Examples 4.1/4.2, Theorem 4.3: ExoShap.

Reproduces the Section 4 story:

* the non-hierarchical-path detector separates the q/q′ pair and the two
  Example 4.2 queries exactly as the paper states (Figure 2);
* ExoShap matches brute force on queries that Theorem 3.1 calls hard but
  exogenous relations rescue (Example 4.1's academic query, running
  example's q2);
* the rewriting runs in polynomial time on instances far beyond brute
  force.
"""

from __future__ import annotations

import random

from repro.core.paths import has_non_hierarchical_path
from repro.shapley.brute_force import shapley_brute_force
from repro.shapley.exact import shapley_from_counts
from repro.shapley.exoshap import exo_shapley, rewrite_to_hierarchical
from repro.workloads.generators import random_database_for_query
from repro.workloads.queries import (
    ACADEMIC_EXOGENOUS,
    EXAMPLE_4_2_Q_EXOGENOUS,
    EXAMPLE_4_2_Q_PRIME_EXOGENOUS,
    SECTION_4_EXOGENOUS,
    academic_query,
    example_4_2_q,
    example_4_2_q_prime,
    section_4_q,
    section_4_q_prime,
)
from repro.workloads.running_example import query_q2


def test_e4_path_detection_table(benchmark, report):
    cases = [
        ("Section 4 q", section_4_q(), SECTION_4_EXOGENOUS, False),
        ("Section 4 q'", section_4_q_prime(), SECTION_4_EXOGENOUS, True),
        ("Example 4.2 q", example_4_2_q(), EXAMPLE_4_2_Q_EXOGENOUS, True),
        (
            "Example 4.2 q'",
            example_4_2_q_prime(),
            EXAMPLE_4_2_Q_PRIME_EXOGENOUS,
            False,
        ),
        ("Example 4.1 academic", academic_query(), ACADEMIC_EXOGENOUS, False),
        ("Example 4.1, X={Citations}", academic_query(), {"Citations"}, False),
        ("running-example q2, X={Stud,Course}", query_q2(), {"Stud", "Course"}, False),
    ]

    def detect_all():
        return [
            has_non_hierarchical_path(query, exo) for _, query, exo, _ in cases
        ]

    outcomes = benchmark(detect_all)
    rows = []
    for (name, _, exo, expected), got in zip(cases, outcomes):
        rows.append(
            (
                name,
                ",".join(sorted(exo)),
                "hard (FP^#P)" if got else "PTIME (ExoShap)",
                "ok" if got == expected else "MISMATCH",
            )
        )
    assert all(row[-1] == "ok" for row in rows)
    report(
        "E4: non-hierarchical-path detection (Theorem 4.3 criterion)",
        ("query", "exogenous X", "verdict", "vs paper"),
        rows,
    )


def test_e4_exoshap_equals_brute_force(benchmark, report):
    rng = random.Random(44)

    def sweep():
        cases = [
            (academic_query(), ACADEMIC_EXOGENOUS),
            (section_4_q(), SECTION_4_EXOGENOUS),
            (query_q2(), frozenset({"Stud", "Course"})),
        ]
        agreements = total = 0
        for query, exo in cases:
            done = 0
            while done < 3:
                db = random_database_for_query(
                    query, domain_size=2, fill_probability=0.5,
                    exogenous_relations=tuple(exo), rng=rng,
                )
                endo = sorted(db.endogenous, key=repr)
                if not endo or len(endo) > 9:
                    continue
                done += 1
                total += 1
                f = endo[0]
                if exo_shapley(db, query, f, exo) == shapley_brute_force(db, query, f):
                    agreements += 1
        return agreements, total

    agreements, total = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert agreements == total
    report(
        "E4: ExoShap vs brute force on tractable-with-X queries",
        ("(query, database) pairs", "exact agreements"),
        [(total, agreements)],
    )


def test_e4_rewrite_cost(benchmark, report):
    """Algorithm 1's rewriting on a larger academic-citations instance."""
    rng = random.Random(9)
    q = academic_query()
    db = random_database_for_query(
        q, domain_size=6, fill_probability=0.4,
        exogenous_relations=tuple(ACADEMIC_EXOGENOUS), rng=rng,
    )
    rewrite = benchmark(lambda: rewrite_to_hierarchical(db, q, ACADEMIC_EXOGENOUS))
    report(
        "E4: Algorithm 1 rewriting (Example 4.1 instance)",
        ("original facts", "rewritten facts", "rewritten query"),
        [(len(db), len(rewrite.database), repr(rewrite.query))],
    )


def test_e4_exoshap_beyond_brute_force(benchmark, report):
    """A 20+-endogenous-fact instance: brute force is out, ExoShap is not."""
    rng = random.Random(10)
    q = query_q2()
    db = random_database_for_query(
        q, domain_size=5, fill_probability=0.5,
        exogenous_relations=("Stud", "Course"), rng=rng,
    )
    endo = sorted(db.endogenous, key=repr)
    assert len(endo) >= 20
    target = endo[0]

    def per_fact_exoshap():
        # Algorithm 1's rewrite, then two forward passes: nothing cached,
        # unlike exo_shapley, which the default engine serves warm.
        rewrite = rewrite_to_hierarchical(db, q, {"Stud", "Course"})
        return shapley_from_counts(rewrite.database, rewrite.query, target)

    value = benchmark.pedantic(per_fact_exoshap, rounds=3, iterations=1)
    assert value == exo_shapley(db, q, target, {"Stud", "Course"})
    report(
        "E4: ExoShap on an instance beyond brute force (q2)",
        ("|Dn|", "target", "Shapley value"),
        [(len(endo), repr(target), str(value))],
    )
