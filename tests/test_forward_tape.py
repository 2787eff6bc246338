"""Golden tapes of the CntSat forward pass.

Every root tape entry of :func:`repro.engine.bundles.batch_count_vectors`
carries a shape, a digest of everything the backward pass reads below
it.  The shapes, baselines and zero facts pinned here were recorded
from the forward pass that restricted and split every slice of an OR
step afresh; the pass that builds each slice straight from its
root-value buckets must reproduce them bit for bit.  The instances
cover the slice shapes the bucketed pass treats specially: ground atoms
with query constants at the top level, endogenous negated ground atoms
at both levels, a repeated root variable, slices that own no fact, and
the constants ``1`` and ``True``, which compare equal and so share a
root-value bucket.

Each baseline is also checked against the standalone CntSat of
the seed CntSat of :mod:`harness.seed_cntsat`, and each small instance's values against
brute force, both through the forward pass directly and through the
engine (which follows ``REPRO_JOBS`` and may ship its bundle nodes to
worker processes).
"""

from __future__ import annotations

import random
from hashlib import blake2b

import pytest

from harness.seed_cntsat import count_satisfying_subsets
from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, batch_count_vectors
from repro.engine.results import result_from_vectors
from repro.shapley.brute_force import brute_force_all
from repro.workloads.generators import star_join_database

Q1 = "q() :- Stud(x), not TA(x), Reg(x, y)"


def _database(endogenous, exogenous) -> Database:
    database = Database()
    for relation, *args in endogenous:
        database.add_endogenous(Fact(relation, tuple(args)))
    for relation, *args in exogenous:
        database.add_exogenous(Fact(relation, tuple(args)))
    return database


def _star() -> Database:
    return star_join_database(30, 8, rng=random.Random(30))


def _ground_constants() -> Database:
    # Open(CS) is a top-level ground component; Reg(A, OS) fails the
    # query constant DB and Open(EE) fails CS, so both are free facts.
    return _database(
        [
            ("Reg", "A", "DB"),
            ("Reg", "B", "DB"),
            ("Reg", "A", "OS"),
            ("Open", "CS"),
            ("Open", "EE"),
        ],
        [("Stud", "A"), ("Stud", "B"), ("Stud", "C"), ("Reg", "C", "DB")],
    )


def _negated_ground() -> Database:
    # not Closed(CS) is negated and ground at the top level, not TA(x)
    # in every slice; TA(A) and Closed(CS) are endogenous.
    return _database(
        [
            ("TA", "A"),
            ("Reg", "A", "OS"),
            ("Reg", "A", "DB"),
            ("Reg", "B", "OS"),
            ("Reg", "C", "DB"),
            ("Closed", "CS"),
        ],
        [
            ("Stud", "A"),
            ("Stud", "B"),
            ("Stud", "C"),
            ("TA", "B"),
            ("Reg", "C", "OS"),
        ],
    )


def _repeated_variable() -> Database:
    # R(A, B) fails the repeated root variable: a free fact.
    return _database(
        [("R", "A", "A"), ("R", "A", "B"), ("R", "B", "B"), ("S", "A"), ("S", "C")],
        [("R", "C", "C")],
    )


def _exogenous_slices() -> Database:
    # The slices of students B and C own no fact.
    return _database(
        [("Reg", "A", "OS"), ("Reg", "D", "OS"), ("TA", "D")],
        [
            ("Stud", "A"),
            ("Stud", "B"),
            ("Stud", "C"),
            ("Stud", "D"),
            ("Reg", "B", "OS"),
            ("Reg", "B", "DB"),
            ("TA", "B"),
            ("TA", "C"),
            ("Reg", "C", "DB"),
        ],
    )


def _one_and_true() -> Database:
    # 1 == True: R(1, a), R(True, b) and S(True) fall into one slice.
    return _database(
        [("R", 1, "a"), ("R", True, "b"), ("R", 2, "a"), ("S", True)],
        [("S", 2)],
    )


#: name -> (database, query, root shape, baseline or its digest, zero facts)
GOLDEN = {
    "star-30x8": (
        _star,
        Q1,
        "c8ff60a41a3cd7fbe06bcff02c242359",
        "57dc80af686f64c6087fedc9c09ea04e",
        [],
    ),
    "ground-constants": (
        _ground_constants,
        "q() :- Stud(x), Reg(x, DB), Open(CS)",
        "2985488b7e482b8869fb3622ff6a9599",
        (0, 1, 4, 6, 4, 1),
        ["Open(EE)", "Reg(A, OS)"],
    ),
    "negated-ground": (
        _negated_ground,
        "q() :- Stud(x), not TA(x), Reg(x, y), not Closed(CS)",
        "bd66f7250795f2d346ab8017ee59e317",
        (1, 5, 10, 10, 5, 1, 0),
        [],
    ),
    "repeated-variable": (
        _repeated_variable,
        "q() :- R(x, x), not S(x)",
        "0b63c5a58855a454e4e8905e9addbaf0",
        (1, 4, 8, 8, 4, 1),
        ["R(A, B)"],
    ),
    "exogenous-slices": (
        _exogenous_slices,
        Q1,
        "aaa6c0e99138b98a55422f1e75f5d70d",
        (0, 2, 2, 1),
        [],
    ),
    "one-and-true": (
        _one_and_true,
        "q() :- R(x, y), not S(x)",
        "9ac28e44b15720983ab6a9537bcc0394",
        (0, 2, 3, 1, 0),
        [],
    ),
}

#: Brute force enumerates every subset, so only small instances.
BRUTE_FORCE_PLAYERS = 12


def _baseline_pin(baseline: tuple[int, ...]) -> tuple[int, ...] | str:
    """Short baselines as they are, long ones by digest."""
    if len(baseline) < 20:
        return baseline
    return blake2b(repr(baseline).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenTape:
    def test_root_shape_baseline_and_zero_facts(self, name):
        build, query, shape, baseline, zero = GOLDEN[name]
        vectors = batch_count_vectors(build(), parse_query(query))
        assert vectors.root.shape.hex() == shape
        assert _baseline_pin(vectors.baseline) == baseline
        assert sorted(map(repr, vectors.zero_facts)) == zero

    def test_baseline_matches_standalone_cntsat(self, name):
        build, query, *_ = GOLDEN[name]
        database, parsed = build(), parse_query(query)
        assert list(batch_count_vectors(database, parsed).baseline) == (
            count_satisfying_subsets(database, parsed)
        )


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - {"star-30x8"}))
def test_values_match_brute_force(name):
    build, query, *_ = GOLDEN[name]
    database, parsed = build(), parse_query(query)
    assert len(database.endogenous) <= BRUTE_FORCE_PLAYERS
    shapley, banzhaf = brute_force_all(database, parsed)
    direct = result_from_vectors(batch_count_vectors(database, parsed), "cntsat")
    served = BatchAttributionEngine().batch(database, parsed)
    for result in (direct, served):
        assert dict(result.shapley) == shapley
        assert dict(result.banzhaf) == banzhaf
