"""A fact's cached texts: exact stand-ins, invisible to equality and pickles.

:class:`~repro.core.facts.Fact` keeps its ``repr`` text and its
canonical digest fragment (:func:`repro.engine.fingerprint._render`)
once it has computed them.  These tests pin that the cache changes
nothing but cost:

* a warm fact's texts equal the uncached computations, on every kind of
  constant, and a digest of warm facts equals the reference encoder's;
* a warm fact equals, hashes like and pickles to the same bytes as a
  cold one, and unpickles cold;
* a fact keeps its hash, but a pickle does not carry it: facts pickled
  under one hash seed are found in the sets and dicts of a process with
  another;
* a successor version's handle renders only the facts its delta added;
* facts whose reprs tie are ordered by their type-tagged text, so a
  handle is the same under every hash seed;
* results and digests match serial ones when facts cross to worker
  processes (sharded executors unpickle them without caches).
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from harness import digest_reference
from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, fingerprint
from repro.engine.delta import DatabaseDelta, apply_delta
from repro.engine.fingerprint import (
    _render,
    database_digest,
    digest_key,
    fingerprint_facts,
    fingerprint_request,
)
from repro.server.registry import database_handle
from repro.workloads.generators import random_delta, star_join_database

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: ``database_handle`` of the served-zipf database before facts cached
#: their texts; the cache must not move it.
SERVED_ZIPF_HANDLE = "db:94e34428b942becc71fd8cec4feadac7"


class Count(int):
    """An ``int`` subclass: its repr ties with the plain int's."""


def served_zipf_database() -> Database:
    return star_join_database(30, 6, rng=random.Random("served-zipf"))


def cold_repr(item: Fact) -> str:
    """``repr`` as computed before facts kept their text."""
    return f"{item.relation}({', '.join(str(arg) for arg in item.args)})"


def reference_handle(database: Database) -> str:
    """The handle from repr-sorted facts and the reference encoder."""
    key = (
        tuple(sorted(database.endogenous, key=cold_repr)),
        tuple(sorted(database.exogenous, key=cold_repr)),
    )
    return "db:" + digest_reference.digest_key(key)[:32]


awkward_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", "(", ")", "a, b", "R(1)", "(x, y)", "", '"', "\\"]),
)
constants = st.one_of(
    awkward_text,
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.integers(min_value=-(10**20), max_value=10**20).map(Count),
)
facts = st.builds(
    Fact,
    st.one_of(st.text(min_size=1, max_size=5), st.sampled_from(["R(", "S, T"])),
    st.lists(constants, max_size=4).map(tuple),
)


class TestExactStandIn:
    @settings(max_examples=300, deadline=None)
    @given(item=facts)
    def test_warm_texts_equal_the_uncached_ones(self, item):
        cold = Fact(item.relation, item.args)
        expected_repr = cold_repr(item)
        expected_text = digest_reference.rendered(item)
        assert fingerprint._render_fact(cold) == expected_text
        for _ in range(2):
            assert repr(item) == expected_repr
            assert _render(item) == expected_text
        assert repr(cold) == expected_repr

    @settings(max_examples=150, deadline=None)
    @given(
        key=st.recursive(
            st.one_of(constants, facts),
            lambda children: st.lists(children, max_size=4).map(tuple),
            max_leaves=16,
        )
    )
    def test_digests_of_warm_facts_match_the_reference(self, key):
        first = digest_key(key)
        assert digest_key(key) == first == digest_reference.digest_key(key)

    def test_served_zipf_handle_is_the_reference_encoders(self):
        database = served_zipf_database()
        assert database_handle(database) == SERVED_ZIPF_HANDLE
        assert reference_handle(database) == SERVED_ZIPF_HANDLE
        # Warm facts in a new version: the same content, the same name.
        assert database_handle(database.copy()) == SERVED_ZIPF_HANDLE


class TestInvisibleCache:
    def test_equality_and_hashing_ignore_the_caches(self):
        warm, cold = Fact("R", (1, "a, b")), Fact("R", (1, "a, b"))
        repr(warm)
        _render(warm)
        assert warm == cold and hash(warm) == hash(cold)
        assert len({warm, cold}) == 1
        assert warm != Fact("R", ("1", "a, b"))

    def test_a_warm_fact_pickles_like_a_cold_one(self):
        warm, cold = Fact("R", (1, "x", None)), Fact("R", (1, "x", None))
        repr(warm)
        _render(warm)
        payload = pickle.dumps(warm)
        assert payload == pickle.dumps(cold)
        clone = pickle.loads(payload)
        assert clone == warm
        assert not hasattr(clone, "_text") and not hasattr(clone, "_rendered")
        assert repr(clone) == repr(warm) and _render(clone) == _render(warm)


#: Facts with string, integer and ``None`` constants, as literals.
HASHED_FACTS = """[
    Fact("R", ("a", 1)), Fact("S", ("b",)), Fact("Reg", ("Adam", "OS", None)),
]"""

PICKLE_FACTS_SCRIPT = f"""
import pickle, sys
from repro.core.facts import Fact

facts = {HASHED_FACTS}
sys.stdout.buffer.write(pickle.dumps((facts, set(facts), dict.fromkeys(facts, 1))))
"""

FIND_FACTS_SCRIPT = f"""
import pickle, sys
from repro.core.facts import Fact

shipped, shipped_set, shipped_dict = pickle.loads(sys.stdin.buffer.read())
facts = {HASHED_FACTS}
assert [hash(item) for item in shipped] == [hash(item) for item in facts]
assert all(item in set(facts) for item in shipped)
assert all(dict.fromkeys(facts, 1)[item] == 1 for item in shipped)
assert all(item in shipped_set and shipped_dict[item] == 1 for item in facts)
print(hash(facts[0]))
"""


class TestPickledHashes:
    """Run by the sharded CI job too, under spawn and fork."""

    def _run(self, script: str, seed: int, payload: bytes = b"") -> bytes:
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=payload,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)},
        )
        assert completed.returncode == 0, completed.stderr.decode()
        return completed.stdout

    def test_facts_pickled_under_one_seed_are_found_under_another(self):
        payload = self._run(PICKLE_FACTS_SCRIPT, 1)
        hashes = {self._run(FIND_FACTS_SCRIPT, seed, payload) for seed in (2, 3)}
        # The seeds hash R(a, 1) apart, so a carried hash would be stale.
        assert len(hashes) == 2

    def test_a_fact_keeps_the_hash_of_its_fields(self):
        item = Fact("R", ["a", 1])
        assert hash(item) == hash(("R", ("a", 1)))
        assert hash(pickle.loads(pickle.dumps(item))) == hash(item)


class TestSuccessorRendersItsDelta:
    """The tier-1 guard of the db_update gain: it renders only new facts."""

    def _count_renders(self, monkeypatch) -> list[Fact]:
        rendered: list[Fact] = []
        uncached = fingerprint._render_fact

        def counting(item: Fact) -> str:
            rendered.append(item)
            return uncached(item)

        monkeypatch.setattr(fingerprint, "_render_fact", counting)
        return rendered

    def test_explicit_delta(self, monkeypatch):
        base = served_zipf_database()
        database_handle(base)
        rendered = self._count_renders(monkeypatch)
        exogenous = sorted(base.exogenous, key=repr)
        delta = DatabaseDelta(
            added_endogenous=frozenset(
                {
                    Fact("Reg", ("s-new", "c0")),
                    # A fresh object that re-labels an exogenous fact.
                    Fact(exogenous[0].relation, exogenous[0].args),
                }
            ),
            added_exogenous=frozenset({Fact("Stud", ("s-new",))}),
            removed=frozenset({sorted(base.endogenous, key=repr)[0]}),
        )
        successor = apply_delta(base, delta)
        handle = database_handle(successor)
        added = delta.added_endogenous | delta.added_exogenous
        assert len(rendered) == len(added) == 3
        assert set(rendered) == added
        assert handle == reference_handle(successor)

    def test_served_zipf_updates(self, monkeypatch):
        version = served_zipf_database()
        database_handle(version)
        rendered = self._count_renders(monkeypatch)
        rng = random.Random("served-zipf:1")
        for _ in range(20):
            delta = random_delta(version, rng)
            version = apply_delta(version, delta)
            rendered.clear()
            database_handle(version)
            added = delta.added_endogenous | delta.added_exogenous
            assert len(rendered) <= len(added)
            assert set(rendered) <= added


TIED_HANDLE_SCRIPT = """
from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine.fingerprint import digest_key, fingerprint_request
from repro.server.registry import database_handle

R = lambda *args: Fact("R", args)
database = Database(
    endogenous=[R(1), R("1"), R(2), R("2"), Fact("S", ("a",)), R(None), R("None")],
    exogenous=[R(False), R("False"), R(1.5), R("1.5")],
)
key = fingerprint_request(database, parse_query("q() :- R(x), not S(x)"), None)
print(database_handle(database), digest_key(key))
"""


class TestReprTies:
    def test_ties_are_ordered_by_the_type_tagged_text(self):
        tied = [
            Fact("R", ("2",)),
            Fact("R", (Count(2),)),
            Fact("R", ("1",)),
            Fact("R", (1,)),
        ]
        # "R(1)" before "R(2)"; within a tie, ["int",...] before ["str",...].
        expected = [(int, 1), (str, "1"), (Count, 2), (str, "2")]
        for order in (tied, tied[::-1], set(tied)):
            ordered = fingerprint_facts(order)
            assert [(type(item.args[0]), item.args[0]) for item in ordered] == expected

    def test_handles_do_not_depend_on_the_hash_seed(self):
        outputs = set()
        for seed in range(6):
            completed = subprocess.run(
                [sys.executable, "-c", TIED_HANDLE_SCRIPT],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)},
            )
            assert completed.returncode == 0, completed.stderr
            outputs.add(completed.stdout)
        assert len(outputs) == 1


def values(batch) -> dict:
    return {
        answer: dict(result.shapley) for answer, result in batch.per_answer.items()
    }


class TestWorkersUnpickleColdFacts:
    """Run by the sharded CI job too: facts reach workers without caches."""

    def test_sharded_results_and_digests_match_serial(self):
        database = served_zipf_database()
        delta = random_delta(database, random.Random("workers"))
        successor = apply_delta(database, delta)
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        for version in (database, successor):
            handle = database_handle(version)
            serial = BatchAttributionEngine(jobs=1).batch_answers(version, query)
            shipped = BatchAttributionEngine().batch_answers(
                pickle.loads(pickle.dumps(version)), query
            )
            assert values(shipped) == values(serial)
            clone = pickle.loads(pickle.dumps(version))
            assert database_handle(clone) == handle == reference_handle(version)
            assert database_digest(clone) == database_digest(version)
            boolean = parse_query("q() :- Stud(x), not TA(x), Reg(x, y)")
            assert digest_key(fingerprint_request(clone, boolean, None)) == digest_key(
                fingerprint_request(version, boolean, None)
            )
