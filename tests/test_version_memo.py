"""Per-version derived data: the database memo and what reads from it.

A :class:`~repro.core.database.Database` derives its engine index,
fingerprint and fact positions once per version
(:meth:`~repro.core.database.Database.derived`).  These tests pin the
contract that makes sharing them safe:

* an edit through ``add``/``remove`` drops every derived value, so a
  memo-warm database answers exactly like a fresh copy;
* the memo never travels: warm and cold databases pickle to the same
  bytes (sharded task payloads do not grow);
* a warm repeat reads its request key from the version's index and
  slices nothing; an edit reaches the next request, in process and
  served; neither the key memo nor the parse memo keeps its database
  alive;
* a shared index is safe under concurrent readers;
* the encoder writes published results' frames byte for byte equal to
  the sorted reference encoder's, ties in ``repr`` included;
* the client's interning decoder returns what the plain decoder does.
"""

import json
import pickle
import random
import socket
import struct
import sys
import threading
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.facts import Fact, fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, version_positions
from repro.engine.fingerprint import (
    FactIndex,
    database_digest,
    fingerprint_database,
    relevant_facts,
)
from repro.io import (
    attribution_from_rows,
    batch_result_from_dict,
    batch_result_to_dict,
    fact_is_json_safe,
    fact_to_row,
    fraction_to_pair,
)
from repro.server import client as client_module
from repro.server.client import AttributionClient
from repro.server.protocol import encode_frame, ok_response, request
from repro.workloads.generators import star_join_database
from repro.workloads.running_example import figure_1_database, query_q1
from repro.workloads.traffic import grounded_star_templates

STUDENTS, COURSES = 30, 6


def served_zipf_database() -> Database:
    """The served-zipf benchmark's database: 30 students x 6 courses."""
    return star_join_database(STUDENTS, COURSES, rng=random.Random("served-zipf"))


def served_zipf_queries():
    return [
        (template.op, parse_query(template.query))
        for template in grounded_star_templates(STUDENTS, COURSES)
    ]


def sorted_rows(values):
    """The reference encoder: every fact checked and sorted by ``repr``."""
    rows = []
    for item in sorted(values, key=repr):
        if not fact_is_json_safe(item):
            return None
        rows.append(fact_to_row(item) + fraction_to_pair(values[item]))
    return rows


def sorted_document(result):
    """:func:`batch_result_to_dict` as the sorted encoder builds it."""
    shapley, banzhaf = sorted_rows(result.shapley), sorted_rows(result.banzhaf)
    if shapley is None or banzhaf is None:
        raise ValueError(
            "attribution values contain constants that do not round-trip"
            " through JSON scalars"
        )
    document = batch_result_to_dict(result)
    document["shapley"], document["banzhaf"] = shapley, banzhaf
    return document


def frame(document) -> bytes:
    return encode_frame(ok_response(1, {"result": document}))


def assert_same_frame(result):
    """The encoder's frame equals the sorted reference's, byte for byte."""
    document = batch_result_to_dict(result)
    assert frame(document) == frame(sorted_document(result))


class TestMemoFollowsEdits:
    """Edits clear the memo; copies and unpickled databases start empty."""

    EDITS = {
        "add": lambda db: db.add_endogenous(fact("Reg", "Adam", "DB")),
        "add-unrelated": lambda db: db.add_endogenous(fact("Z", 1)),
        "remove": lambda db: db.remove(fact("Reg", "Ben", "OS")),
        "relabel": lambda db: db.add_exogenous(fact("Reg", "Caroline", "DB")),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edit_after_batch_matches_a_fresh_engine(self, edit):
        database, query = figure_1_database(), query_q1()
        engine = BatchAttributionEngine()
        engine.batch(database, query)
        version = fingerprint_database(database)
        digest = database_digest(database)

        self.EDITS[edit](database)
        again = engine.batch(database, query)
        expected = BatchAttributionEngine().batch(database.copy(), query)

        assert list(again.shapley.items()) == list(expected.shapley.items())
        assert list(again.banzhaf.items()) == list(expected.banzhaf.items())
        assert set(again.shapley) == database.endogenous
        assert fingerprint_database(database) != version
        assert database_digest(database) != digest
        assert relevant_facts(database, query) == FactIndex(database).relevant(query)

    def test_copies_start_without_the_memo(self):
        database = figure_1_database()
        index = database.derived(FactIndex)
        assert database.derived(FactIndex) is index
        assert database.copy().derived(FactIndex) is not index
        subset = database.with_endogenous_subset(list(database.endogenous)[:3])
        assert len(fingerprint_database(subset)[0]) == 3

    def test_memo_warm_database_pickles_like_a_cold_one(self):
        database = served_zipf_database()
        cold = pickle.dumps(database)
        engine = BatchAttributionEngine(jobs=1)
        for op, query in served_zipf_queries()[:6]:
            if op == "batch":
                engine.batch(database, query)
        database.derived(version_positions)
        database_digest(database)
        assert pickle.dumps(database) == cold
        clone = pickle.loads(cold)
        assert fingerprint_database(clone) == fingerprint_database(database)
        assert fingerprint_database(clone) is not fingerprint_database(database)


class TestRequestKeyMemo:
    """The per-version request-key memo and the parsed-query memo.

    A warm repeat reads its key from the version's :class:`FactIndex`
    without slicing the database again; an edit starts a new version
    with an empty memo, in process and over the wire; and neither memo
    keeps its database alive.
    """

    def _serve(self, engine, database, queries):
        return [
            engine.batch(database, query)
            if op == "batch"
            else engine.batch_answers(database, query)
            for op, query in queries
        ]

    @staticmethod
    def _values(result):
        answers = getattr(result, "per_answer", {None: result})
        return [
            (answer, list(one.shapley.items()), list(one.banzhaf.items()))
            for answer, one in answers.items()
        ]

    def test_warm_repeat_slices_nothing(self, monkeypatch):
        database = served_zipf_database()
        queries = served_zipf_queries()[:8]
        assert {op for op, _ in queries} == {"batch", "answers"}
        engine = BatchAttributionEngine(jobs=1)
        cold = self._serve(engine, database, queries)
        slices = []
        real = FactIndex.relevant

        def relevant(index, query):
            slices.append(query)
            return real(index, query)

        monkeypatch.setattr(FactIndex, "relevant", relevant)
        warm = self._serve(engine, database, queries)
        assert slices == []
        assert [self._values(result) for result in warm] == [
            self._values(result) for result in cold
        ]
        text = "q() :- Stud(x), not TA(x), Reg(x, y)"
        assert parse_query(text) is parse_query(text)

    EDITS = {
        "add": lambda db: db.add_endogenous(fact("Reg", "Adam", "DB")),
        "remove": lambda db: db.remove(fact("Reg", "Ben", "OS")),
        "relabel": lambda db: db.add_exogenous(fact("Reg", "Caroline", "DB")),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_an_edit_reaches_the_next_request(self, edit, tmp_path):
        from harness import running_daemon

        text = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        query = parse_query(text)
        engine = BatchAttributionEngine()
        local, uploaded = figure_1_database(), figure_1_database()
        with running_daemon(tmp_path, name="edits.sock") as daemon:
            with AttributionClient(daemon.address) as client:
                engine.batch(local, query)
                client.batch(uploaded, text)
                self.EDITS[edit](local)
                self.EDITS[edit](uploaded)
                served = client.batch(uploaded, text)
        again = engine.batch(local, query)
        reference = BatchAttributionEngine().batch(local.copy(), query)
        for result in (again, served):
            assert list(result.shapley.items()) == list(reference.shapley.items())
            assert list(result.banzhaf.items()) == list(reference.banzhaf.items())

    def test_memos_hold_no_reference_to_the_database(self):
        """A database is freed by reference counting alone: no cycle."""
        import gc
        import weakref

        engine = BatchAttributionEngine(jobs=1)
        queries = served_zipf_queries()[:8]
        gc.disable()
        try:
            database = served_zipf_database()
            self._serve(engine, database, queries)
            assert database.derived(FactIndex)._keys
            alive = weakref.ref(database)
            del database
            assert alive() is None
        finally:
            gc.enable()


class TestSharedIndexUnderThreads:
    WORKERS = 8
    ROUNDS = 20

    def test_concurrent_relevant_matches_a_serial_run(self):
        database = served_zipf_database()
        queries = [query for _, query in served_zipf_queries()]
        expected = [FactIndex(database).relevant(query) for query in queries]
        interval = sys.getswitchinterval()
        # Switch threads as often as possible, so a column published
        # before it is filled would be read half-built.
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(self.ROUNDS):
                shared = FactIndex(database)
                # Each worker starts at its own query, so the workers
                # build different columns at the same time.
                outcomes = self._read_concurrently(shared, queries)
                for outcome in outcomes:
                    assert outcome == expected, f"round {round_}"
        finally:
            sys.setswitchinterval(interval)

    def _read_concurrently(self, shared, queries):
        barrier = threading.Barrier(self.WORKERS)
        outcomes: list = [None] * self.WORKERS

        def read(slot: int) -> None:
            try:
                barrier.wait()
                found = {}
                offset = slot * len(queries) // self.WORKERS
                for step in range(len(queries)):
                    position = (offset + step) % len(queries)
                    found[position] = shared.relevant(queries[position])
                outcomes[slot] = [found[position] for position in range(len(queries))]
            except BaseException as error:  # noqa: BLE001 - reported by the caller
                outcomes[slot] = error

        threads = [
            threading.Thread(target=read, args=(slot,)) for slot in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a reader did not finish"
        return outcomes


class TestTableEncoder:
    """The result encoder against the sorted reference encoder."""

    def test_served_zipf_frames_are_byte_identical(self):
        database = served_zipf_database()
        engine = BatchAttributionEngine(jobs=1)
        for op, query in served_zipf_queries():
            if op == "batch":
                assert_same_frame(engine.batch(database, query))
            else:
                batch = engine.batch_answers(database, query)
                for result in batch.per_answer.values():
                    assert_same_frame(result)

    def test_repr_collisions_keep_the_tie_order(self):
        database = Database(
            endogenous=[fact("R", 1), fact("R", "1"), fact("R", "0"), fact("R", 2)],
            exogenous=[fact("S", 1), fact("S", "1")],
        )
        result = BatchAttributionEngine(jobs=1).batch(
            database, parse_query("q() :- R(x), S(x)")
        )
        assert repr(fact("R", 1)) == repr(fact("R", "1"))
        assert_same_frame(result)

    def test_non_json_constant_raises_the_same_error(self):
        database = Database(endogenous=[fact("R", (1, 2)), fact("R", "a")])
        result = BatchAttributionEngine(jobs=1).batch(
            database, parse_query("q() :- R(x)")
        )
        with pytest.raises(ValueError) as expected:
            sorted_document(result)
        with pytest.raises(ValueError) as raised:
            batch_result_to_dict(result)
        assert str(raised.value) == str(expected.value)

    def test_sampled_result_with_empty_banzhaf(self):
        database = figure_1_database()
        result = BatchAttributionEngine(jobs=1).batch(
            database, query_q1(), policy="sampled"
        )
        assert result.estimate is not None and not result.banzhaf
        assert_same_frame(result)

    def test_other_key_sets_take_the_sorted_path(self):
        database = figure_1_database()
        result = BatchAttributionEngine(jobs=1).batch(database, query_q1())
        # The same keys in another order, and a key equal to a fact of
        # the version but of another type.
        shuffled = dict(reversed(list(result.shapley.items())))
        reordered = type(result)(shuffled, shuffled, result.method, result.player_count)
        assert_same_frame(reordered)

        values = {fact("R", 1): Fraction(1)}
        lookalike = type(result)(values, values, "cntsat", 1)
        assert_same_frame(lookalike)


def _read_body(sock: socket.socket) -> bytes:
    header = b""
    while len(header) < 4:
        header += sock.recv(4 - len(header))
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        body += sock.recv(length - len(body))
    return body


class TestServedFrames:
    """Raw response frames of a running daemon, against the sorted encoder."""

    def test_batch_frame_bytes_match_the_sorted_encoder(self, tmp_path):
        from harness import raw_connection, running_daemon

        database = figure_1_database()
        text = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        expected = BatchAttributionEngine(jobs=1).batch(database, parse_query(text))
        with running_daemon(tmp_path, name="frames.sock") as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
            with raw_connection(daemon) as sock:
                for request_id in (1, 2):  # cold, then warm
                    batch = request("batch", request_id, db=handle, query=text)
                    sock.sendall(encode_frame(batch))
                    body = _read_body(sock)
                    payload = json.loads(body)
                    served = payload["result"]["result"]
                    assert served["from_cache"] is (request_id == 2)
                    reference = sorted_document(expected)
                    reference["from_cache"] = served["from_cache"]
                    payload["result"]["result"] = reference
                    assert json.dumps(payload, separators=(",", ":")).encode() == body


class TestClientInterning:
    def test_decoding_matches_the_plain_decoder(self):
        database = served_zipf_database()
        engine = BatchAttributionEngine(jobs=1)
        interner = client_module._RowInterner()
        for op, query in served_zipf_queries():
            if op != "batch":
                continue
            encoded = json.dumps(batch_result_to_dict(engine.batch(database, query)))
            document = json.loads(encoded)
            decoded = interner.result(document)
            plain = batch_result_from_dict(document)
            assert decoded == plain
            assert list(decoded.shapley.items()) == list(plain.shapley.items())

    def test_equal_constants_of_other_types_stay_distinct(self):
        interner = client_module._RowInterner()
        rows = [
            [["R", [1], "1", "2"]],
            [["R", [True], "1", "2"]],
            [["R", [1.0], "1", "2"]],
            [["R", [0.0], "0", "1"]],
            [["R", [-0.0], "0", "1"]],
        ]
        for row in rows:
            (decoded,) = interner.rows(row)
            (plain,) = attribution_from_rows(row)
            assert repr(decoded) == repr(plain)
            assert list(map(type, decoded.args)) == list(map(type, plain.args))

    def test_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(client_module, "INTERN_CAPACITY", 4)
        interner = client_module._RowInterner()
        for index in range(20):
            decoded = interner.rows([["R", [f"c{index}"], str(index), "7"]])
            assert decoded == {Fact("R", (f"c{index}",)): Fraction(index, 7)}
            assert len(interner._facts) <= 4 and len(interner._values) <= 4
