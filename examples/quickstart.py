"""Quickstart: Shapley values of database facts in five minutes.

Builds a tiny course-registration database, asks a Boolean query with
negation, and attributes the answer to the endogenous facts — exactly,
approximately, and with the dichotomy classifier explaining which
algorithm applies.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import (
    Database,
    classify,
    fact,
    parse_query,
    shapley_value,
)
from repro.shapley.approximate import approximate_shapley


def main() -> None:
    # 1. A database: exogenous facts are fixed context, endogenous facts
    #    are the "players" whose contribution we want to measure.
    db = Database(
        exogenous=[
            fact("Stud", "ann"),
            fact("Stud", "bob"),
        ],
        endogenous=[
            fact("Reg", "ann", "databases"),
            fact("Reg", "bob", "databases"),
            fact("TA", "ann"),
        ],
    )

    # 2. A Boolean conjunctive query with (safe) negation: is some student
    #    registered to a course they do not TA-assist... er, while not
    #    being a TA at all?
    q = parse_query("q() :- Stud(x), not TA(x), Reg(x, y)")

    # 3. Where does the query sit in the complexity dichotomy?
    verdict = classify(q)
    print(f"query:  {q}")
    print(f"class:  {verdict.complexity.value} — {verdict.reason}")
    print()

    # 4. Exact Shapley values (polynomial algorithm — q is hierarchical).
    print("exact Shapley values:")
    for f in sorted(db.endogenous, key=repr):
        value = shapley_value(db, q, f)
        print(f"  {f!r:28} {value!s:>8}   ({float(value):+.4f})")
    print()

    # 5. The same values, approximated by permutation sampling with an
    #    additive (epsilon, delta) guarantee.
    target = fact("TA", "ann")
    estimate = approximate_shapley(
        db, q, target, epsilon=0.1, delta=0.05, rng=random.Random(0)
    )
    print(
        f"sampled Shapley of {target!r}: {float(estimate.value):+.4f}"
        f" ({estimate.samples} antithetic rounds, ±{estimate.epsilon} additive)"
    )


if __name__ == "__main__":
    main()
