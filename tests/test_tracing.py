"""End-to-end request tracing: span trees, shipping, export, slow buffer.

The contract under test (PR 9):

* a traced engine request yields a *well-formed* span tree — every
  parent exists, every child lies within its parent's time bounds
  (modulo the microsecond rounding of the document form);
* under the sharded executor every executed plan node appears in the
  trace exactly once, whether it ran shipped in a worker or serially in
  the parent — asserted against the executor's own task accounting;
* tracing off is free-ish and above all *silent*: no tracer installed,
  no document recorded;
* trace documents survive the wire (JSON round trip through
  ``trace_from_dict``) and export to Chrome ``trace_event`` JSON;
* the daemon attaches traces to response envelopes, keeps the N slowest
  in a bounded buffer behind the ``metrics`` op, and emits one
  structured ``slow-request`` log line per buffer admission.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import random

import pytest

from repro.core.database import Database
from repro.core.evaluation import PrefixEvaluator
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    SerialExecutor,
    ShardedExecutor,
    relevant_facts,
)
from repro.engine.executors import _run_bundle_chunk, _run_grounding_chunk
from repro.engine.plan import PlanRequest, build_plan
from repro.obs import (
    Tracer,
    export_chrome,
    maybe_span,
    render_trace,
    trace_from_dict,
)
from repro.obs import tracing as tracing_module
from repro.server.metrics import SlowTraceBuffer
from repro.workloads.generators import hard_answers_database
from repro.workloads.queries import audit_query
from repro.workloads.running_example import figure_1_database, query_q1

#: Document timestamps are rounded to whole microseconds, so a child's
#: bounds may poke past its parent's by a rounding step on each side.
ROUNDING_US = 2


def _spans_by_id(document: dict) -> dict[int, dict]:
    return {span["id"]: span for span in document["spans"]}


def _assert_well_formed(document: dict) -> None:
    spans = _spans_by_id(document)
    assert spans, "trace documents under test must not be empty"
    for span in spans.values():
        parent_id = span["parent"]
        if parent_id is None:
            continue
        assert parent_id in spans, f"span {span['id']} orphaned"
        parent = spans[parent_id]
        assert span["start_us"] >= parent["start_us"] - ROUNDING_US
        child_end = span["start_us"] + span["dur_us"]
        parent_end = parent["start_us"] + parent["dur_us"]
        assert child_end <= parent_end + ROUNDING_US, (
            f"span {span['id']} ({span['name']}) ends past its parent"
            f" {parent_id} ({parent['name']})"
        )


class TestEngineTraces:
    def test_traced_batch_builds_well_formed_tree(self):
        engine = BatchAttributionEngine()
        engine.batch(figure_1_database(), query_q1(), trace=True)
        document = engine.last_trace
        assert document is not None
        _assert_well_formed(document)
        names = [span["name"] for span in document["spans"]]
        roots = [s for s in document["spans"] if s["parent"] is None]
        assert [root["name"] for root in roots] == ["request"]
        for expected in ("plan", "execute", "store.get", "store.put"):
            assert expected in names
        # The request span carries the plan fingerprint and kind.
        request = roots[0]
        assert request["attrs"]["kind"] == "batch"
        assert request["attrs"]["fingerprint"]
        # A sampled request names each round range's size: the players
        # and witnesses of the relevance slice it sweeps.
        engine.batch(figure_1_database(), query_q1(), policy="sampled", trace=True)
        endogenous, exogenous = relevant_facts(figure_1_database(), query_q1())
        evaluator = PrefixEvaluator(
            query_q1(), Database(endogenous=endogenous, exogenous=exogenous)
        )
        sizes = {
            (span["attrs"]["players"], span["attrs"]["witnesses"])
            for span in engine.last_trace["spans"]
            if span["name"] == "sampler.round"
        }
        assert sizes == {(len(evaluator.players), len(evaluator.witnesses))}
        assert evaluator.players and evaluator.witnesses

    def test_tracing_off_records_nothing(self):
        engine = BatchAttributionEngine()
        assert tracing_module.ACTIVE is None
        engine.batch(figure_1_database(), query_q1())
        assert tracing_module.ACTIVE is None
        assert engine.last_trace is None

    def test_caller_supplied_tracer_is_not_owned(self):
        tracer = Tracer()
        engine = BatchAttributionEngine()
        engine.batch(figure_1_database(), query_q1(), trace=tracer)
        # The engine spans landed on the caller's tracer, but last_trace
        # stays untouched: the caller owns the document's lifecycle.
        assert engine.last_trace is None
        assert any(span.name == "request" for span in tracer.spans)

    def test_per_request_kernel_stats_delta(self):
        engine = BatchAttributionEngine()
        database = figure_1_database()
        before = engine.stats["kernel"]
        engine.batch(database, query_q1())
        cold = engine.stats["kernel"]
        first = cold.delta(before)
        assert first.schoolbook_calls > 0
        # A warm repeat does no kernel work: the engine-scoped aggregate
        # keeps the cold request's history and grows by nothing.
        engine.batch(database, query_q1())
        assert engine.stats["kernel"].delta(cold).schoolbook_calls == 0
        assert (
            engine.stats["kernel"].schoolbook_calls == first.schoolbook_calls
        )


class TestLabelsOnlyUnderATracer:
    """Span labels hash a long key, so they are computed only when traced."""

    ANSWERS_QUERY = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"

    def test_untraced_requests_never_label(self, monkeypatch):
        def refuse(value):
            raise AssertionError(f"labelled {value!r} with tracing off")

        monkeypatch.setattr(tracing_module, "label", refuse)
        database = figure_1_database()
        engine = BatchAttributionEngine(executor=SerialExecutor())
        engine.batch(database, query_q1())
        engine.batch(database, query_q1(), policy="sampled")
        engine.batch_answers(database, parse_query(self.ANSWERS_QUERY))
        # The worker chunk runners, run in-process with trace=False.
        plan = build_plan(database, [PlanRequest(query_q1())])
        assert plan.tasks and plan.bundles
        _run_bundle_chunk(list(plan.bundles.values()))
        _run_grounding_chunk(plan.tasks)

    def test_traced_requests_keep_their_labels(self):
        engine = BatchAttributionEngine(executor=SerialExecutor())
        engine.batch_answers(
            figure_1_database(), parse_query(self.ANSWERS_QUERY), trace=True
        )
        spans = engine.last_trace["spans"]
        prunes = [span for span in spans if span["name"] == "prune"]
        nodes = [span for span in spans if span["name"].startswith("node:")]
        assert prunes and nodes
        for span, attr in [(span, "key") for span in prunes] + [
            (span, "node") for span in nodes
        ]:
            value = span["attrs"][attr]
            assert isinstance(value, str) and len(value) == 12, span


@pytest.mark.parametrize(
    "start_method",
    [
        method
        for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ],
)
def test_sharded_trace_covers_every_node_exactly_once(start_method, tmp_path):
    """jobs=2 traces contain each executed plan node once — shipped or not."""
    database = hard_answers_database(4, core_size=2, rng=random.Random(7))
    engine = BatchAttributionEngine(
        executor=ShardedExecutor(jobs=2, start_method=start_method)
    )
    engine.batch_answers(database, audit_query(), trace=True)
    document = engine.last_trace
    assert document is not None
    _assert_well_formed(document)
    stats = engine.stats["executor"]
    assert stats.shipped > 0, "the workload must actually ship tasks"
    names = [span["name"] for span in document["spans"]]
    node_spans = [
        name
        for name in names
        if name.startswith("node:") and name != "node:bundle"
    ]
    assert len(node_spans) == stats.tasks
    assert names.count("node:bundle") == stats.bundle_tasks
    # Shipped spans arrive tagged with their worker's pid on a fresh lane.
    shipped = [
        span
        for span in document["spans"]
        if span["attrs"].get("pid") not in (None, document["pid"])
    ]
    assert shipped, "worker-side spans must ride back with the results"
    assert all(span["lane"] != 0 for span in shipped)
    # The exported Chrome timeline carries 100% of the executed nodes.
    export_chrome(document, tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    exported = [
        event["name"]
        for event in events
        if event["ph"] == "X" and event["name"].startswith("node:")
    ]
    assert sorted(exported) == sorted(
        name for name in names if name.startswith("node:")
    )


class TestNullPaths:
    def test_null_tracer_is_inert(self):
        assert maybe_span(None, "free") is not None  # no-op handle
        with maybe_span(None, "free") as span:
            span.set("ignored", True)

    def test_activate_none_leaves_global_untouched(self):
        assert tracing_module.ACTIVE is None
        with tracing_module.activate(None):
            assert tracing_module.ACTIVE is None
        tracer = Tracer()
        with tracing_module.activate(tracer):
            assert tracing_module.ACTIVE is tracer
        assert tracing_module.ACTIVE is None

    def test_span_budget_drops_but_never_orphans(self):
        tracer = Tracer(max_spans=2)
        with tracer.span("root"):
            with tracer.span("kept"):
                with tracer.span("dropped"):
                    with tracer.span("grandchild-of-dropped"):
                        pass
        document = tracer.document()
        assert tracer.dropped == 2
        assert document["dropped"] == 2
        _assert_well_formed(document)
        assert len(document["spans"]) == 2


class TestWireAndExport:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("request", kind="batch"):
            with tracer.span("plan", planned=2) as span:
                span.set("pruned", 0)
            with tracer.span("execute"):
                with tracer.span("node:cntsat", node="abc123"):
                    pass
        return tracer

    def test_document_round_trips_through_json(self):
        document = self._sample_tracer().document()
        wire = json.loads(json.dumps(document))
        assert trace_from_dict(wire) == trace_from_dict(document)
        _assert_well_formed(trace_from_dict(wire))

    def test_from_dict_rejects_unknown_parents(self):
        document = self._sample_tracer().document()
        document["spans"][-1]["parent"] = 999
        with pytest.raises(ValueError, match="unknown parent"):
            trace_from_dict(document)

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ValueError):
            trace_from_dict({"spans": "nope"})
        with pytest.raises(ValueError):
            trace_from_dict({"spans": [{"id": "x"}]})

    def test_chrome_export(self, tmp_path):
        tracer = self._sample_tracer()
        path = export_chrome(tracer, tmp_path / "trace.json")
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert path == str(tmp_path / "trace.json")
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == len(tracer.document()["spans"])
        assert all(event["dur"] >= 1 for event in complete)
        metadata = [event for event in events if event["ph"] == "M"]
        assert any(event["name"] == "process_name" for event in metadata)
        assert payload["otherData"]["trace_id"] == tracer.trace_id

    def test_render_trace_is_a_tree(self):
        text = render_trace(self._sample_tracer())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert any("node:cntsat" in line for line in lines)
        assert any(line.lstrip().startswith(("|-", "`-")) for line in lines[2:])

    def test_merge_shipment_reparents_and_clamps(self):
        worker = Tracer()
        with worker.span("node:brute", node="n1"):
            with worker.span("kernel.convolve", tier="schoolbook"):
                pass
        shipment = worker.shipment()
        parent = Tracer()
        with parent.span("execute"):
            # The executor's flow: note the submit time, then build the
            # dispatch window when the worker's results (and spans) land.
            at = parent.now()
            until = parent.now()
            dispatch = parent.add_span(
                "shard:task", at, until, parent_id=parent.current_id, lane=1
            )
            parent.merge_shipment(
                shipment, parent_id=dispatch.span_id, at=at, until=until
            )
        document = parent.document()
        _assert_well_formed(document)
        spans = {span["name"]: span for span in document["spans"]}
        # The worker's internal nesting survived the id remap ...
        assert (
            spans["kernel.convolve"]["parent"] == spans["node:brute"]["id"]
        )
        # ... and landed inside the dispatch window on the worker's lane.
        assert spans["node:brute"]["parent"] == spans["shard:task"]["id"]
        assert spans["node:brute"]["attrs"]["pid"] == worker.pid
        assert spans["node:brute"]["lane"] == 1


class TestSlowTraceBuffer:
    def test_keeps_the_n_slowest(self):
        buffer = SlowTraceBuffer(capacity=3)
        admitted = [
            buffer.offer({"trace_id": f"t{index}", "spans": []}, duration)
            for index, duration in enumerate([5.0, 1.0, 3.0])
        ]
        assert admitted == [True, True, True]
        # Slower than the fastest resident: admitted, evicting t1 (1.0ms).
        assert buffer.offer({"trace_id": "t3", "spans": []}, 2.0) is True
        # Faster than every resident: rejected.
        assert buffer.offer({"trace_id": "t4", "spans": []}, 0.5) is False
        assert len(buffer) == 3
        snapshot = buffer.snapshot()
        assert [entry["trace_id"] for entry in snapshot] == ["t0", "t2", "t3"]
        assert [entry["duration_ms"] for entry in snapshot] == [5.0, 3.0, 2.0]
        assert buffer.offered == 5
        assert buffer.evicted == 2

    def test_rejects_broken_capacity(self):
        with pytest.raises(ValueError):
            SlowTraceBuffer(capacity=0)


class TestDaemonTraces:
    """Traced requests through a running daemon and a real client."""

    QUERY = "q1() :- Stud(x), not TA(x), Reg(x, y)"

    @pytest.fixture()
    def served(self, tmp_path):
        """A running daemon, a connected client, and a loaded handle."""
        from harness import running_daemon
        from repro.server import AttributionClient

        with running_daemon(tmp_path, name="trace-test.sock") as daemon:
            with AttributionClient(daemon.address) as client:
                yield daemon, client, client.load_database(figure_1_database())

    def test_trace_rides_the_response_envelope(self, served, caplog):
        _, client, handle = served
        with caplog.at_level(logging.INFO, logger="repro.server"):
            pending = client.submit("batch", db=handle, query=self.QUERY, trace=True)
            pending.result()
        result = client.last_response
        document = result["trace"]
        assert result["trace_id"] == document["trace_id"]
        _assert_well_formed(trace_from_dict(document))
        names = [span["name"] for span in document["spans"]]
        assert "server.request" in names
        assert "server.coalesce" in names
        assert "request" in names  # the engine's spans nest inside
        # The render of the result into wire rows has its own span,
        # after the engine's request span closed.
        spans = {span["name"]: span for span in document["spans"]}
        assert names.count("server.encode") == 1
        engine_end = spans["request"]["start_us"] + spans["request"]["dur_us"]
        assert spans["server.encode"]["start_us"] >= engine_end
        # The admitted slowest-trace offer logged one structured line
        # correlating request id and trace id.
        slow_lines = [
            json.loads(record.message)
            for record in caplog.records
            if record.message.startswith('{"event":"slow-request"')
        ]
        assert len(slow_lines) == 1
        assert slow_lines[0]["id"] == pending.request_id
        assert slow_lines[0]["trace_id"] == result["trace_id"]
        assert slow_lines[0]["top_spans"]

    def test_untraced_requests_stay_clean(self, served):
        daemon, client, handle = served
        client.batch(handle, self.QUERY)
        result = client.last_response
        assert "trace" not in result
        assert "trace_id" not in result
        # Nothing was offered to the slow-trace buffer either.
        assert len(daemon.slow_traces) == 0

    def test_metrics_expose_the_slow_traces(self, served):
        _, client, handle = served
        for query in (self.QUERY, "q2() :- Stud(x), TA(x), Reg(x, y)"):
            client.batch(handle, query, trace=True)
            assert client.last_trace is not None
        slow = client.metrics()["slow_traces"]
        assert len(slow) == 2
        assert all("duration_ms" in entry for entry in slow)
        durations = [entry["duration_ms"] for entry in slow]
        assert durations == sorted(durations, reverse=True)
        # Each resident document is itself wire-valid.
        for entry in slow:
            _assert_well_formed(
                trace_from_dict({key: entry[key] for key in ("trace_id", "pid", "dropped", "spans")})
            )


class TestTraceCLI:
    """The ``repro trace`` verb and the ``--trace``/``--trace-out`` flags."""

    @pytest.fixture()
    def db_path(self, tmp_path):
        from repro.io import save_database

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        return str(path)

    def test_trace_verb_prints_tree_and_exports(self, capsys, tmp_path, db_path):
        from repro.cli import main

        out = tmp_path / "chrome.json"
        query = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        assert main(["trace", db_path, query, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("trace ")
        assert "request" in printed and "plan" in printed
        assert f"trace written to {out}" in printed
        events = json.loads(out.read_text())["traceEvents"]
        assert any(event.get("name") == "request" for event in events)

    def test_trace_verb_routes_head_variables_to_answers(self, capsys, db_path):
        from repro.cli import main

        query = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"
        assert main(["trace", db_path, query]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("trace ")
        assert "node:" in printed

    def test_trace_verb_rejects_engine_flags_with_connect(self, capsys, db_path):
        from repro.cli import main

        query = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        code = main(
            ["trace", db_path, query, "--connect", "/tmp/none.sock", "--jobs", "2"]
        )
        assert code == 2
        assert "--connect" in capsys.readouterr().err

    def test_batch_trace_flag_prints_tree(self, capsys, db_path):
        from repro.cli import main

        query = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        assert main(["batch", db_path, query, "--trace"]) == 0
        printed = capsys.readouterr().out
        assert "trace " in printed and "request" in printed

    def test_batch_json_embeds_trace_documents(self, capsys, tmp_path, db_path):
        from repro.cli import main

        out = tmp_path / "chrome.json"
        query = "q1() :- Stud(x), not TA(x), Reg(x, y)"
        code = main(
            ["batch", db_path, query, "--json", "--trace-out", str(out)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traces"][0]["query"] == query
        trace = document["traces"][0]["trace"]
        _assert_well_formed(trace_from_dict(trace))
        assert out.exists()  # --trace-out implies --trace, even under --json

    def test_answers_trace_flag_prints_tree(self, capsys, db_path):
        from repro.cli import main

        query = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"
        assert main(["answers", db_path, query, "--trace"]) == 0
        printed = capsys.readouterr().out
        assert "trace " in printed
