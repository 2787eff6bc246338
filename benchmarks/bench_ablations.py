"""EXT-2 — ablations of the library's own design choices.

Three internal decisions that DESIGN.md calls out, measured:

* **Shapley route**: permutation definition vs subset form vs the
  count-vector reduction, on one instance (identical values, wildly
  different costs);
* **join order**: the evaluator's greedy most-constrained-first atom
  ordering vs naive textual order, on a query where it matters;
* **coalition memoization** in the brute-force oracle: cached vs
  uncached satisfaction checks.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from repro.core.evaluation import FactIndex, find_homomorphisms, holds
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.shapley.brute_force import shapley_brute_force
from repro.shapley.exact import shapley_from_counts
from repro.shapley.games import shapley_by_permutations, shapley_by_subsets
from repro.shapley.brute_force import query_game
from repro.workloads.generators import star_join_database
from repro.workloads.running_example import figure_1_database, query_q1


def test_ext2_shapley_route_ablation(benchmark, report):
    db = star_join_database(4, 3, ta_probability=0.6, rng=random.Random(74))
    q1 = query_q1()
    endo = sorted(db.endogenous, key=repr)
    target = endo[0]
    players, value = query_game(db, q1)

    timings = {}

    start = time.perf_counter()
    via_counts = shapley_from_counts(db, q1, target)
    timings["count vectors (CntSat)"] = time.perf_counter() - start

    start = time.perf_counter()
    via_subsets = shapley_by_subsets(players, value, target)
    timings["subset form (2^n)"] = time.perf_counter() - start

    if len(endo) <= 8:
        start = time.perf_counter()
        via_permutations = shapley_by_permutations(players, value, target)
        timings["permutation definition (n!)"] = time.perf_counter() - start
        assert via_permutations == via_counts
    assert via_subsets == via_counts

    benchmark(lambda: shapley_from_counts(db, q1, target))
    report(
        f"EXT-2: Shapley routes on |Dn| = {len(endo)} (all values equal: {via_counts})",
        ("route", "time"),
        [(route, f"{seconds * 1000:.2f} ms") for route, seconds in timings.items()],
    )


def _naive_homomorphism_count(query: ConjunctiveQuery, facts) -> int:
    """Textual-order backtracking join (the ablated evaluator)."""
    index = FactIndex(facts)
    positives = list(query.positive_atoms)
    negatives = query.negative_atoms
    count = 0

    def ground(atom, assignment):
        values = []
        for term in atom.terms:
            from repro.core.query import Variable

            if isinstance(term, Variable):
                if term not in assignment:
                    return None
                values.append(assignment[term])
            else:
                values.append(term)
        from repro.core.facts import Fact

        return Fact(atom.relation, tuple(values))

    def search(position, assignment):
        nonlocal count
        if position == len(positives):
            for atom in negatives:
                grounded = ground(atom, assignment)
                if grounded is not None and grounded in index:
                    return
            count += 1
            return
        atom = positives[position]
        for candidate in index.relation(atom.relation):
            extended = dict(assignment)
            ok = True
            for term, value in zip(atom.terms, candidate.args):
                from repro.core.query import Variable

                if isinstance(term, Variable):
                    if extended.setdefault(term, value) != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if ok:
                search(position + 1, extended)

    search(0, {})
    return count


def test_ext2_join_order_ablation(benchmark, report):
    # A query whose textual order starts with an unselective atom.
    q = parse_query("q() :- S(x, y), R(x), T(y), U(x, 'k')")
    rng = random.Random(71)
    facts = []
    from repro.core.facts import fact

    for i in range(40):
        for j in range(40):
            if rng.random() < 0.2:
                facts.append(fact("S", i, j))
    for i in range(40):
        if rng.random() < 0.4:
            facts.append(fact("R", i))
        if rng.random() < 0.4:
            facts.append(fact("T", i))
    facts.append(fact("U", 3, "k"))

    start = time.perf_counter()
    greedy_count = sum(1 for _ in find_homomorphisms(q, facts))
    greedy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    naive_count = _naive_homomorphism_count(q, facts)
    naive_seconds = time.perf_counter() - start
    assert greedy_count == naive_count

    benchmark(lambda: holds(q, facts))
    report(
        "EXT-2: join-order ablation (greedy most-constrained vs textual)",
        ("evaluator", "homomorphisms", "time"),
        [
            ("greedy (library)", greedy_count, f"{greedy_seconds * 1000:.2f} ms"),
            ("textual order", naive_count, f"{naive_seconds * 1000:.2f} ms"),
        ],
    )


def test_ext2_memoization_ablation(benchmark, report):
    db = figure_1_database()
    q1 = query_q1()
    target = sorted(db.endogenous, key=repr)[0]

    # Memoized: the library's query_game caches coalition evaluations.
    start = time.perf_counter()
    cached_value = shapley_brute_force(db, q1, target)
    cached_seconds = time.perf_counter() - start

    # Unmemoized: evaluate the query afresh for every (coalition, side).
    exogenous = list(db.exogenous)
    others = [f for f in sorted(db.endogenous, key=repr) if f != target]
    start = time.perf_counter()
    total = Fraction(0)
    n = len(others) + 1
    for size in range(n):
        coefficient = Fraction(factorial(size) * factorial(n - size - 1), factorial(n))
        for subset in itertools.combinations(others, size):
            chosen = list(subset)
            with_f = 1 if holds(q1, exogenous + chosen + [target]) else 0
            without_f = 1 if holds(q1, exogenous + chosen) else 0
            if with_f != without_f:
                total += coefficient * (with_f - without_f)
    uncached_seconds = time.perf_counter() - start
    assert total == cached_value

    benchmark(lambda: shapley_brute_force(db, q1, target))
    report(
        "EXT-2: coalition memoization in the brute-force oracle",
        ("variant", "time"),
        [
            ("memoized (library)", f"{cached_seconds * 1000:.2f} ms"),
            ("unmemoized", f"{uncached_seconds * 1000:.2f} ms"),
        ],
    )
