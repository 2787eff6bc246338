"""Golden tapes of the CntSat forward pass.

Every root tape entry of :func:`repro.engine.bundles.batch_count_vectors`
carries a shape, a digest of everything the backward pass reads below
it.  The baselines and zero facts pinned here were recorded from the
forward pass that restricted and split every slice of an OR step
afresh; the pass that builds each slice straight from its root-value
buckets must reproduce them bit for bit.  The shapes are those of the
tape whose single-atom components are closed-form leaves, and that tape
also reports the endogenous facts of an atom with an exogenous fact as
zero facts (``Reg(C, DB)`` of ``negated-ground``, whose value was
already 0).  The instances cover the slice shapes the bucketed pass
treats specially: ground atoms with query constants at the top level,
endogenous negated ground atoms at both levels, a repeated root
variable, slices that own no fact, and the constants ``1`` and
``True``, which compare equal and so share a root-value bucket.

Each baseline is also checked against the seed CntSat of
:mod:`harness.seed_cntsat`, and each small instance's values against
brute force, both through the forward pass directly and through the
engine (which follows ``REPRO_JOBS`` and may ship its bundle nodes to
worker processes).

Single-atom components are closed-form leaves
(:func:`repro.engine.bundles._atom_step`).  Each leaf case is checked
against enumeration, directly and inside queries at both levels, and
a large leaf pulls back with one dot product per cotangent.
"""

from __future__ import annotations

import random
from fractions import Fraction
from hashlib import blake2b
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from harness.seed_cntsat import count_satisfying_subsets
from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, batch_count_vectors, bundles
from repro.engine.bundles import _live_facts, top_level_components
from repro.engine.results import result_from_vectors
from repro.shapley.brute_force import brute_force_all
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)

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
        "3596d698e0180ad2c9d6e4806f2d1e5e",
        "57dc80af686f64c6087fedc9c09ea04e",
        [],
    ),
    "ground-constants": (
        _ground_constants,
        "q() :- Stud(x), Reg(x, DB), Open(CS)",
        "27037b8ad8bfc0cea65070c0d7b8a305",
        (0, 1, 4, 6, 4, 1),
        ["Open(EE)", "Reg(A, OS)"],
    ),
    "negated-ground": (
        _negated_ground,
        "q() :- Stud(x), not TA(x), Reg(x, y), not Closed(CS)",
        "a3661697ea2ee88b681d4b987933e88c",
        (1, 5, 10, 10, 5, 1, 0),
        # Reg(C, y) holds through the exogenous Reg(C, OS).
        ["Reg(C, DB)"],
    ),
    "repeated-variable": (
        _repeated_variable,
        "q() :- R(x, x), not S(x)",
        "13d886e6b7b3bf20ee9325e47e544e74",
        (1, 4, 8, 8, 4, 1),
        ["R(A, B)"],
    ),
    "exogenous-slices": (
        _exogenous_slices,
        Q1,
        "6d6a6f784b5dde344fb7c1008d3a9de1",
        (0, 2, 2, 1),
        [],
    ),
    "one-and-true": (
        _one_and_true,
        "q() :- R(x, y), not S(x)",
        "f561c4629b999467f67c910ac173d92d",
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


def _assert_values_match_brute_force(database, query):
    shapley, banzhaf = brute_force_all(database, query)
    vectors = batch_count_vectors(database, query)
    direct = result_from_vectors(vectors, "cntsat")
    served = BatchAttributionEngine().batch(database, query)
    for result in (direct, served):
        assert dict(result.shapley) == shapley
        assert dict(result.banzhaf) == banzhaf
    return vectors


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - {"star-30x8"}))
def test_values_match_brute_force(name):
    build, query, *_ = GOLDEN[name]
    database, parsed = build(), parse_query(query)
    assert len(database.endogenous) <= BRUTE_FORCE_PLAYERS
    _assert_values_match_brute_force(database, parsed)


def _atom_counts(negated: bool, exogenous: bool, k: int) -> list[int]:
    """By enumeration: how many ``j``-subsets of ``k`` facts satisfy one atom."""
    counts = [0] * (k + 1)
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            counts[size] += (exogenous or bool(subset)) != negated
    return counts


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("exogenous", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_atom_leaf_equals_enumeration(negated, exogenous, k):
    # Two leaves of one (negated, exogenous, k) in one pass: the first
    # is built, the second reuses it with its own facts.
    memo = {}
    for name in ("a", "b"):
        exo = [Fact("R", (name, f"x{i}")) for i in range(exogenous)]
        endo = [Fact("R", (name, f"n{i}")) for i in range(k)]
        leaf = bundles._atom_step(negated, exo, endo, memo)
        assert (leaf.kind, leaf.owned) == (bundles.ATOM, k)
        assert list(leaf.sat) == _atom_counts(negated, bool(exo), k)
        live = set(_live_facts(leaf)) if leaf.live else set()
        assert live | leaf.zero == set(endo)
        assert not live & leaf.zero
        # Sat^{-f} and Sat^{+f} over the other k - 1 facts.
        deletion = _atom_counts(negated, bool(exo), k - 1) if k else None
        added = _atom_counts(negated, True, k - 1) if k else None
        if live:
            assert list(leaf.parts[0]) == deletion != added
        if leaf.zero:
            assert deletion == added


#: name -> (query, endogenous facts, exogenous facts, expected zero facts)
LEAVES = {
    # R(x) is a top-level leaf with one endogenous fact and an exogenous
    # one: it always holds, and R(a) is a zero fact.
    "top-level-positive-with-exogenous": (
        "q() :- R(x), T(y), not S(y)",
        [("R", "a"), ("T", "c"), ("S", "c"), ("T", "d")],
        [("R", "b"), ("S", "e"), ("T", "e")],
        ["R(a)"],
    ),
    "top-level-positive": (
        "q() :- R(x), T(y), not S(y)",
        [("R", "a"), ("T", "c"), ("S", "c"), ("T", "d")],
        [("S", "e"), ("T", "e")],
        [],
    ),
    "top-level-negated": (
        "q() :- R(x), not S('a')",
        [("R", "a"), ("R", "b"), ("S", "a")],
        [("S", "b")],
        [],
    ),
    # S(a, y) is a nested leaf with one endogenous fact and an exogenous
    # one; S(b, y) has one endogenous fact only.
    "nested-positive-with-exogenous": (
        "q() :- R(x), S(x, y)",
        [("R", "a"), ("S", "a", "p"), ("R", "b"), ("S", "b", "p")],
        [("S", "a", "q"), ("R", "c")],
        ["S(a, p)"],
    ),
    "nested-negated": (
        "q() :- R(x), not S(x), T(x, y)",
        [("R", "a"), ("S", "a"), ("T", "a", "p"), ("T", "b", "p")],
        [("R", "b"), ("S", "c"), ("R", "c"), ("T", "c", "q"), ("T", "a", "q")],
        ["T(a, p)"],
    ),
}


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_leaves_in_queries_match_brute_force(name):
    query, endogenous, exogenous, zero = LEAVES[name]
    database, parsed = _database(endogenous, exogenous), parse_query(query)
    vectors = _assert_values_match_brute_force(database, parsed)
    assert sorted(map(repr, vectors.zero_facts)) == zero


def test_a_top_level_leaf_is_a_cached_bundle_node():
    # The planner keeps the single-atom component R(x) as a bundle node,
    # so a delta that leaves it alone reuses it.
    query, endogenous, exogenous, _ = LEAVES["top-level-positive"]
    database, parsed = _database(endogenous, exogenous), parse_query(query)
    scopes = [scope for _, scope in top_level_components(database, parsed)]
    assert [len(scope) for scope in scopes] == [1, 2]
    engine = BatchAttributionEngine()
    engine.batch(database, parsed)
    edited = database.without_fact(Fact("T", ("d",)))
    before = engine.stats["components"].hits
    engine.batch(edited, parsed)
    assert engine.stats["components"].hits == before + 1


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.integers(min_value=0, max_value=10_000))
def test_leaves_match_brute_force_on_random_hierarchical_queries(seed):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(
        query, domain_size=2, fill_probability=0.5, rng=rng
    )
    assume(0 < len(database.endogenous) <= 10)
    _assert_values_match_brute_force(database, query)


def test_a_large_leaf_pulls_back_with_one_dot_per_cotangent(monkeypatch):
    players = 5000
    database = Database()
    for index in range(players):
        database.add_endogenous(Fact("R", (index,)))
    vectors = batch_count_vectors(database, parse_query("q() :- R(x)"))
    calls = []
    dot = bundles._dot

    def counted(left, right):
        calls.append(len(left))
        return dot(left, right)

    monkeypatch.setattr(bundles, "_dot", counted)
    result = result_from_vectors(vectors, "cntsat")
    # Two cotangents, Shapley and Banzhaf: one dot product each.
    assert calls == [players, players]
    assert set(result.shapley.values()) == {Fraction(1, players)}
    assert set(result.banzhaf.values()) == {Fraction(1, 2 ** (players - 1))}
