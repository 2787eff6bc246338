"""Sparse results from the engine to the client.

* The engine publishes every result as read-only
  :class:`~repro.engine.results.AttributionView` mappings: a fact
  outside the request's slice reads as ``Fraction(0)``, iteration is
  the canonical ``repr`` order and ``len`` counts every endogenous fact.
* A ``batch``, ``refine`` or ``answers`` request with ``sparse: true``
  gets only the nonzero rows; ``aggregate`` stays dense.
* The client holds a copy of every version it uploaded or derived,
  keyed by content handle: its requests on those handles are sparse
  from the first, including the first on an ``update_database``
  successor, and a database edited after upload is served at its new
  version.  A handle string it did not create is read densely.  A
  sparse result that does not fit the held version is refused.
* A dense and a sparse duplicate of one request coalesce onto one
  computation, and each gets its own encoding.
* A differential test drives the library client against an in-process
  engine on a daemon and on a 2-node fleet, with synchronous and
  pipelined calls, and compares the results ``Fraction`` for
  ``Fraction`` and in key order.
"""

from __future__ import annotations

import contextlib
import copy
import pickle
import random
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from harness import raw_connection, running_daemon
from repro.core.database import Database
from repro.core.facts import Fact, fact
from repro.core.parser import parse_query
from repro.engine import (
    AttributionView,
    BatchAttributionEngine,
    DatabaseDelta,
    MethodPolicy,
    SerialExecutor,
    SQLiteResultStore,
    apply_delta,
)
from repro.server import AttributionClient, FleetClient
from repro.server.protocol import ProtocolError, encode_frame, read_frame, request
from repro.workloads.generators import random_delta, star_join_database
from repro.workloads.running_example import figure_1_database
from repro.workloads.traffic import grounded_star_templates, zipf_stream

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
ANSWERS = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


def assert_same_result(served, expected) -> None:
    """Equal values, ``Fraction`` for ``Fraction`` and in key order."""
    assert isinstance(served.shapley, AttributionView)
    assert isinstance(served.banzhaf, AttributionView)
    assert served.method == expected.method
    assert served.player_count == expected.player_count
    assert served.estimate == expected.estimate
    for measure in ("shapley", "banzhaf"):
        got = list(getattr(served, measure).items())
        want = list(getattr(expected, measure).items())
        assert got == want, measure
        assert all(type(value) is Fraction for _, value in got)


def assert_same_answers(served, expected) -> None:
    assert list(served.per_answer) == list(expected.per_answer)
    for answer, result in expected.per_answer.items():
        assert_same_result(served.per_answer[answer], result)


def is_sparse(document) -> bool:
    """Is every result of a ``batch`` or ``answers`` response sparse?"""
    if "answers" in document:
        return all(
            entry["result"].get("sparse") is True for entry in document["answers"]
        )
    return document["result"].get("sparse") is True


def is_dense(document) -> bool:
    if "answers" in document:
        return not any("sparse" in entry["result"] for entry in document["answers"])
    return "sparse" not in document["result"]


class TestPublishedViews:
    def test_a_view_covers_the_version_and_reads_zero_outside_the_slice(self):
        database = figure_1_database()
        database.add_endogenous(fact("Audit", "x"))  # irrelevant to q1
        result = BatchAttributionEngine(jobs=1).batch(database, parse_query(Q1))
        canonical = sorted(database.endogenous, key=repr)
        for values in (result.shapley, result.banzhaf):
            assert isinstance(values, AttributionView)
            assert list(values) == canonical
            assert len(values) == result.player_count == len(canonical)
            assert values[fact("Audit", "x")] == 0
            assert fact("Audit", "x") in values
            assert fact("Stud", "Adam") not in values  # exogenous
            with pytest.raises(KeyError):
                values[fact("Stud", "Adam")]
            assert values.get(fact("Stud", "Adam")) is None
            assert [item for _, item, _ in values.nonzero()] == [
                item for item in canonical if values[item]
            ]
            assert repr(values) == repr(dict(values))
            assert pickle.loads(pickle.dumps(values)) == values

    def test_views_are_read_only(self):
        result = BatchAttributionEngine(jobs=1).batch(
            figure_1_database(), parse_query(Q1)
        )
        with pytest.raises(TypeError):
            result.shapley[fact("TA", "Adam")] = Fraction(1)
        with pytest.raises(AttributeError):
            result.shapley.update({})

    def test_a_sampled_banzhaf_view_stays_empty(self):
        result = BatchAttributionEngine(jobs=1).batch(
            figure_1_database(), parse_query(Q1), policy="sampled"
        )
        assert result.estimate is not None
        assert len(result.banzhaf) == 0 and dict(result.banzhaf) == {}
        assert len(result.shapley) == result.player_count

    @pytest.mark.parametrize("policy", ["exact", "sampled"])
    def test_a_published_result_pickles_and_copies(self, policy):
        result = BatchAttributionEngine(jobs=1).batch(
            figure_1_database(), parse_query(Q1), policy=policy
        )
        for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert clone == result
            assert_same_result(clone, result)


class TestSparseFrames:
    def test_a_known_handle_gets_only_the_nonzero_rows(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                sparse = client.batch(database, Q1)
                second = client.last_response["result"]
                handle = client.load_database(database)
            # Another client holds no version under the handle string.
            with AttributionClient(daemon.address) as other:
                dense = other.batch(handle, Q1)
                first = other.last_response["result"]
        assert "sparse" not in first
        assert len(first["shapley"]) == first["player_count"]
        assert second["sparse"] is True
        nonzero = [item for item, value in dense.shapley.items() if value]
        assert len(second["shapley"]) == len(nonzero) < second["player_count"]
        assert_same_result(sparse, dense)

    def test_aggregate_answers_densely_even_when_asked_for_sparse(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
                expected = client.aggregate(handle, ANSWERS)
            with raw_connection(daemon) as sock:
                frame = request(
                    "aggregate", 1, db=handle, query=ANSWERS,
                    aggregate="count", sparse=True,
                )
                sock.sendall(encode_frame(frame))
                with sock.makefile("rb") as stream:
                    payload = read_frame(stream)
        assert "sparse" not in payload["result"]
        assert len(payload["result"]["values"]) == len(expected)


class TestLearnedFactList:
    """The fact list a client reads sparse results against: the
    positions of the version it holds under the handle."""

    def test_a_stale_list_raises_instead_of_reading_zeros(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
                held = client._versions[handle]
                # One fact short: the player count disagrees.
                client._versions[handle] = held.without_fact(
                    sorted(held.endogenous, key=repr)[-1]
                )
                with pytest.raises(ProtocolError, match="player"):
                    client.batch(handle, Q1)
                # The right count, but another version's facts.
                client._versions[handle] = Database(
                    endogenous=[
                        fact("Other", index) for index in range(len(held.endogenous))
                    ]
                )
                with pytest.raises(ProtocolError):
                    client.batch(handle, Q1)
                with pytest.raises(ProtocolError):
                    client.answers(handle, ANSWERS)
                client._versions[handle] = held
                assert client.batch(handle, Q1).player_count == len(held.endogenous)

    def test_a_sparse_result_for_an_unknown_handle_is_refused(self):
        client = AttributionClient("unused.sock", connect_retries=0)
        payload = {
            "method": "cntsat",
            "player_count": 1,
            "from_cache": True,
            "sparse": True,
            "shapley": [["R", [1], "1", "1"]],
            "banzhaf": [["R", [1], "1", "1"]],
        }
        with pytest.raises(ProtocolError, match="does not hold"):
            client._decode_result("db:unknown", payload, None)

    def test_the_list_table_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(AttributionClient, "MAX_CACHED_HANDLES", 2)
        databases = [Database(endogenous=[fact("R", index)]) for index in range(4)]
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                for database in databases:
                    client.batch(database, "q() :- R(x)")
                assert len(client._versions) == 2

    def test_a_pipelined_request_decodes_against_the_list_it_was_sent_with(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(AttributionClient, "MAX_CACHED_HANDLES", 1)
        database = figure_1_database()
        expected = BatchAttributionEngine(jobs=1).batch(database, parse_query(Q1))
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                first = client.load_database(database)
                sparse = client.submit_batch(first, Q1)
                # Loading another version evicts the first one.
                second = client.load_database(Database(endogenous=[fact("R", 1)]))
                other = client.submit_batch(second, "q() :- R(x)")
                other.result()
                assert list(client._versions) == [second]
                assert_same_result(sparse.result(), expected)
                assert client.last_response["result"]["sparse"] is True


class TestHeldVersions:
    """Versions the client uploaded or derived, keyed by content handle."""

    @pytest.mark.parametrize("kind", ["daemon", "fleet"])
    def test_a_database_changed_after_upload_is_served_at_its_new_version(
        self, kind
    ):
        database = figure_1_database()
        engine = BatchAttributionEngine(jobs=1)
        query, answers = parse_query(Q1), parse_query(ANSWERS)
        with backend(kind) as client:
            before = client.load_database(database)
            expected = engine.batch(database, query)
            assert_same_result(client.batch(database, Q1), expected)
            database.add(fact("Reg", "Adam", "DB"), endogenous=True)
            served = client.batch(database, Q1)
            assert fact("Reg", "Adam", "DB") in served.shapley
            assert_same_result(served, engine.batch(database, query))
            assert is_sparse(client.last_response)
            assert client.load_database(database) != before
            database.remove(fact("Reg", "Adam", "DB"))
            database.add(fact("TA", "Ben"), endogenous=False)
            expected = engine.batch_answers(database, answers)
            assert_same_answers(client.answers(database, ANSWERS), expected)
            expected = engine.batch(database, query)
            assert_same_result(client.batch(database, Q1), expected)

    def test_the_first_reads_on_a_successor_handle_are_sparse(self, tmp_path):
        database = figure_1_database()
        delta = DatabaseDelta(added_endogenous=frozenset({fact("Reg", "Adam", "DB")}))
        successor = apply_delta(database, delta)
        engine = BatchAttributionEngine(jobs=1)
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                base = client.load_database(database)
                handle = client.update_database(base, delta=delta)
                assert handle in client._versions
                served = client.batch(handle, Q1)
                assert is_sparse(client.last_response)
                assert_same_result(served, engine.batch(successor, parse_query(Q1)))
                served = client.answers(handle, ANSWERS)
                assert is_sparse(client.last_response)
                assert_same_answers(
                    served, engine.batch_answers(successor, parse_query(ANSWERS))
                )

    def test_a_handle_from_another_client_decodes_densely(self, tmp_path):
        database = figure_1_database()
        delta = DatabaseDelta(removed=frozenset({fact("Reg", "Adam", "OS")}))
        engine = BatchAttributionEngine(jobs=1)
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as owner:
                base = owner.load_database(database)
                successor = owner.update_database(base, delta=delta)
            with AttributionClient(daemon.address) as client:
                for handle, version in (
                    (base, database),
                    (successor, apply_delta(database, delta)),
                ):
                    served = client.batch(handle, Q1)
                    assert is_dense(client.last_response)
                    assert_same_result(served, engine.batch(version, parse_query(Q1)))
                    served = client.answers(handle, ANSWERS)
                    assert is_dense(client.last_response)
                    assert_same_answers(
                        served, engine.batch_answers(version, parse_query(ANSWERS))
                    )
                assert not client._versions


def test_a_served_zipf_stream_is_sparse_from_the_first_read(tmp_path):
    """The served-zipf request mix through handle strings: ``db_load``,
    then ``batch``/``answers`` with a ``db_update`` every 25th request."""
    students, courses, every = 30, 6, 25
    rng = random.Random("served-zipf:1")
    database = star_join_database(students, courses, rng=random.Random("served-zipf"))
    stream = zipf_stream(grounded_star_templates(students, courses), 100, rng=rng)
    assert {request_.op for request_ in stream} == {"batch", "answers"}
    engine = BatchAttributionEngine(jobs=1)
    with running_daemon(tmp_path) as daemon:
        with AttributionClient(daemon.address) as client:
            handle = client.load_database(database)
            for position, request_ in enumerate(stream):
                if position % every == every - 1:
                    delta = random_delta(database, rng)
                    handle = client.update_database(handle, delta=delta)
                    database = apply_delta(database, delta)
                    continue
                query = parse_query(request_.query)
                if request_.op == "batch":
                    served = client.batch(handle, request_.query)
                    assert_same_result(served, engine.batch(database, query))
                else:
                    served = client.answers(handle, request_.query)
                    assert_same_answers(served, engine.batch_answers(database, query))
                assert is_sparse(client.last_response), (position, request_)


class TestCoalescedEncodings:
    """Dense and sparse duplicates share one computation."""

    #: Duplicates of each encoding parked behind the gated leader: more
    #: threads than cores, so renders of one encoding race.
    FOLLOWERS = 3

    @pytest.mark.parametrize("leader", ["dense", "sparse"])
    def test_dense_and_sparse_duplicates_compute_once(
        self, tmp_path, monkeypatch, leader
    ):
        from repro.server import daemon as daemon_module

        renders = {False: 0, True: 0}
        real_render = daemon_module.batch_result_to_dict

        def counted_render(result, *, sparse=False):
            renders[sparse] += 1
            return real_render(result, sparse=sparse)

        monkeypatch.setattr(daemon_module, "batch_result_to_dict", counted_render)
        database = figure_1_database()
        engine = BatchAttributionEngine(
            executor=SerialExecutor(),
            shared=SQLiteResultStore(tmp_path / "shared.db"),
        )
        interval = sys.getswitchinterval()
        with running_daemon(tmp_path, engine=engine) as daemon, contextlib.ExitStack() as stack:
            clients = {
                (encoding, index): stack.enter_context(AttributionClient(daemon.address))
                for encoding in ("dense", "sparse")
                for index in range(1 + self.FOLLOWERS)
            }
            # The sparse clients hold the version; the dense ones get
            # the handle as a string they did not load.
            for (encoding, _), client in clients.items():
                if encoding == "sparse":
                    handle = client.load_database(database)
            for (encoding, _), client in clients.items():
                assert (handle in client._versions) is (encoding == "sparse")
            before = engine.counters()
            renders.update({False: 0, True: 0})

            gate = threading.Event()
            leader_started = threading.Event()
            real_batch = engine.batch

            def gated_batch(*args, **kwargs):
                leader_started.set()
                assert gate.wait(20), "test gate never opened"
                return real_batch(*args, **kwargs)

            daemon.engine.batch = gated_batch
            outcomes: dict[tuple, tuple] = {}
            failures: list[BaseException] = []

            def issue(name, client):
                try:
                    result = client.batch(handle, Q1)
                    outcomes[name] = (result, client.last_response)
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            threads = {
                name: threading.Thread(target=issue, args=(name, client))
                for name, client in clients.items()
            }
            sys.setswitchinterval(1e-6)
            try:
                threads[leader, 0].start()
                assert leader_started.wait(20)
                for name, thread in threads.items():
                    if name != (leader, 0):
                        thread.start()
                deadline = time.monotonic() + 20
                while (
                    daemon.coalescer.stats.followers < len(threads) - 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert daemon.coalescer.stats.followers == len(threads) - 1
                gate.set()
                for thread in threads.values():
                    thread.join(20)
                    assert not thread.is_alive(), "a request did not finish"
            finally:
                sys.setswitchinterval(interval)
            assert not failures, failures
            after = engine.counters()

        assert after["executor.tasks"] - before["executor.tasks"] == 1
        assert engine.shared.claim_stats.won == 1  # Q1, once
        assert renders == {False: 1, True: 1}
        reference, _ = outcomes[leader, 0]
        for (encoding, index), (result, response) in outcomes.items():
            assert response["coalesced"] is ((encoding, index) != (leader, 0))
            document = response["result"]
            if encoding == "dense":
                assert "sparse" not in document
                assert len(document["shapley"]) == len(database.endogenous)
            else:
                assert document["sparse"] is True
                assert len(document["shapley"]) < len(database.endogenous)
            assert_same_result(result, reference)
            assert response["stats"] == outcomes[leader, 0][1]["stats"]


# ----------------------------------------------------------------------
# The differential test: library client against an in-process engine
# ----------------------------------------------------------------------
#: Names whose ``repr`` order differs from their numeric order, so a
#: renamed alias core is not in canonical order.
STUDENTS = ("s10", "s2", "s1")
COURSES = ("c1", "c0")
BOOLEAN_QUERIES = (Q1, "q() :- Reg(x, y), not TA(x)")
ANSWER_QUERIES = (ANSWERS, "ans(x, y) :- Reg(x, y), not TA(x)")
#: A loose contract keeps the sampled runs short.
SAMPLED = MethodPolicy("sampled", epsilon=0.4)
REFINED_EPSILON = 0.3


def _universe() -> list[Fact]:
    facts = []
    for student in STUDENTS:
        facts.append(Fact("Stud", (student,)))
        facts.append(Fact("TA", (student,)))
        facts.extend(Fact("Reg", (student, course)) for course in COURSES)
    return facts


@st.composite
def databases(draw) -> Database:
    """Up to three students, each fact endogenous, exogenous or absent."""
    database = Database()
    for item in _universe():
        side = draw(st.sampled_from(("endogenous", "exogenous", "absent")))
        if side == "endogenous":
            database.add_endogenous(item)
        elif side == "exogenous":
            database.add_exogenous(item)
    return database


@st.composite
def deltas(draw, database: Database) -> DatabaseDelta:
    present = sorted(database.facts, key=repr)
    removed = draw(st.lists(st.sampled_from(present), max_size=2)) if present else []
    absent = [item for item in _universe() if item not in set(removed)]
    added = draw(st.lists(st.sampled_from(absent), max_size=2))
    return DatabaseDelta(
        added_endogenous=frozenset(added), removed=frozenset(removed)
    )


@st.composite
def cases(draw):
    database = draw(databases())
    return database, draw(deltas(database))


@contextlib.contextmanager
def backend(kind: str):
    """A client of a fresh daemon, or of a fresh 2-node fleet."""
    with tempfile.TemporaryDirectory() as directory:
        if kind == "daemon":
            with running_daemon(directory) as daemon:
                with AttributionClient(daemon.address) as client:
                    yield client
            return
        store = Path(directory) / "shared.db"
        with running_daemon(
            directory, BatchAttributionEngine(shared=SQLiteResultStore(store)), "d0.sock"
        ) as first:
            with running_daemon(
                directory,
                BatchAttributionEngine(shared=SQLiteResultStore(store)),
                "d1.sock",
            ) as second:
                with FleetClient([first.address, second.address]) as fleet:
                    yield fleet


class _Calls:
    """One backend's compute calls, synchronous or pipelined.

    Each call returns a list of results.  Pipelined calls go through the
    node clients' ``submit_*``: on a fleet every call is submitted to
    every node (every node holds every version) before any is claimed.
    """

    def __init__(self, client, pipelined: bool) -> None:
        self.client = client
        self.pipelined = pipelined
        #: The client that received the last response.
        self.last = client

    def _each_node(self, submit) -> list:
        if isinstance(self.client, AttributionClient):
            nodes = [self.client]
        else:
            nodes = [node.client for node in self.client.nodes]
        pending = [submit(node) for node in nodes]
        self.last = nodes[-1]
        return [ticket.result() for ticket in pending]

    def batch(self, handle, query, policy=None):
        if self.pipelined:
            return self._each_node(
                lambda node: node.submit_batch(handle, query, policy=policy)
            )
        return [self.client.batch(handle, query, policy=policy)]

    def refine(self, handle, query, epsilon):
        if self.pipelined:
            return self._each_node(
                lambda node: node.submit_refine(handle, query, epsilon=epsilon)
            )
        return [self.client.refine(handle, query, epsilon=epsilon)]

    def answers(self, handle, query):
        if self.pipelined:
            return self._each_node(lambda node: node.submit_answers(handle, query))
        return [self.client.answers(handle, query)]

    def versions(self):
        last = self.last
        if isinstance(last, FleetClient):
            last = last._last_client
        return last._versions

    def last_document(self):
        return self.last.last_response["result"]


def _check_version(calls: _Calls, engine, handle: str, database: Database) -> None:
    """Every request kind on one version, against the in-process engine."""
    for text in BOOLEAN_QUERIES:
        query = parse_query(text)
        expected = engine.batch(database, query)
        for _ in range(2):  # cold, then warm: both sparse
            for served in calls.batch(handle, text):
                assert_same_result(served, expected)
            assert calls.last_document()["sparse"] is True
        assert handle in calls.versions()
    query = parse_query(Q1)
    expected = engine.batch(database, query, policy=SAMPLED)
    for served in calls.batch(handle, Q1, policy=SAMPLED):
        assert_same_result(served, expected)
    expected = engine.refine(database, query, epsilon=REFINED_EPSILON)
    for refined in calls.refine(handle, Q1, REFINED_EPSILON):
        assert_same_result(refined, expected)
        assert len(refined.banzhaf) == 0
    for text in ANSWER_QUERIES:
        expected = engine.batch_answers(database, parse_query(text))
        for _ in range(2):
            for served in calls.answers(handle, text):
                assert_same_answers(served, expected)


@pytest.mark.parametrize("mode", ["sync", "pipelined"])
@pytest.mark.parametrize("kind", ["daemon", "fleet"])
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
@example(  # zero endogenous facts, and no answer to either answers query
    case=(
        Database(exogenous=[fact("TA", "s1")]),
        DatabaseDelta(added_endogenous=frozenset({fact("Reg", "s1", "c0")})),
    )
)
@example(  # two isomorphic students: an alias, its renamed core out of order
    case=(
        Database(
            endogenous=[
                fact("Reg", "s10", "c1"),
                fact("Reg", "s2", "c0"),
                fact("TA", "s10"),
                fact("TA", "s2"),
            ],
            exogenous=[fact("Stud", "s10"), fact("Stud", "s2")],
        ),
        DatabaseDelta(removed=frozenset({fact("TA", "s2")})),
    )
)
def test_client_results_equal_the_engine(kind, mode, case):
    database, delta = case
    with backend(kind) as client:
        calls = _Calls(client, pipelined=mode == "pipelined")
        engine = BatchAttributionEngine()
        handle = client.load_database(database)
        _check_version(calls, engine, handle, database)
        successor = client.update_database(handle, delta=delta)
        _check_version(calls, engine, successor, apply_delta(database, delta))
