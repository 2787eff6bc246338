"""``served-zipf``: one daemon serving a Zipf stream with database updates.

A closed loop with one client connection.  ``repro serve`` runs in its
own process with a serial engine (``--jobs 1``) over a shared SQLite
result tier, loaded once with a ``fleet_traffic`` database of
30 students × 6 courses.  The client replays the Zipf stream over
``grounded_star_templates`` (``batch`` and ``answers`` requests); every
25th request is instead a ``db_update`` carrying a ``random_delta``.
After the loop an in-process serial engine replays the same stream and
deltas, and every response must match it bit for bit.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

from common import (
    ROOT,
    SCRATCH,
    SETUPS,
    HostProbe,
    Outcome,
    answers_digest,
    median,
    p50_ms,
    peak_rss_mb_of,
    percentile,
    result_digest,
)

STUDENTS = 30
COURSES = 6
UPDATE_EVERY = 25
STREAM = 6000
#: Requests of the traced phase whose work counters are reported.
COUNTED_PREFIX = 200
STARTUP_TIMEOUT = 30.0
#: The fewest requests a loop makes, so every request kind is sampled.
MINIMUM = 2 * UPDATE_EVERY
#: Seconds between host-speed samples: requests take a few milliseconds,
#: so sampling before each one would double the run.
PROBE_EVERY = 0.05


def make_inputs(seed: int):
    """The database versions and the op list ``(op, payload, version)``."""
    from repro.engine.delta import apply_delta
    from repro.workloads.generators import random_delta, star_join_database
    from repro.workloads.traffic import grounded_star_templates, zipf_stream

    # fleet_traffic's database and stream, except that the database has
    # one fixed shape: the seed draws the stream and the deltas.
    database = star_join_database(
        STUDENTS, COURSES, rng=random.Random("served-zipf")
    )
    rng = random.Random(f"served-zipf:{seed}")
    stream = zipf_stream(
        grounded_star_templates(STUDENTS, COURSES), STREAM, rng=rng
    )
    versions = [database]
    ops = []
    for position, request in enumerate(stream):
        if position % UPDATE_EVERY == UPDATE_EVERY - 1:
            delta = random_delta(versions[-1], rng)
            versions.append(apply_delta(versions[-1], delta))
            ops.append(("db_update", delta, len(versions) - 1))
        else:
            ops.append((request.op, request.query, len(versions) - 1))
    return versions, ops


class Daemon:
    """A ``repro serve`` process plus one connected client."""

    def __init__(self, layers: bool) -> None:
        from repro.server.client import AttributionClient

        SCRATCH.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="z", dir=SCRATCH)
        # Relative to the working directory, which the daemon shares:
        # keeps the socket path short whatever the checkout's path.
        socket_path = os.path.relpath(os.path.join(self.directory, "d.sock"))
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "daemon_main.py"),
            *(["--layers"] if layers else []),
            "--socket",
            socket_path,
            "--shared-store",
            os.path.join(self.directory, "results.db"),
            "--jobs",
            "1",
        ]
        self._log_path = os.path.join(self.directory, "daemon.log")
        self._log = open(self._log_path, "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.client = AttributionClient(socket_path, timeout=60.0)
        self.handle: str | None = None
        # Wait for the socket rather than let the client's jittered
        # connect backoff add a random delay to the set-up time.
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while not os.path.exists(socket_path):
            if self.process.poll() is not None or time.monotonic() > deadline:
                with open(self._log_path, "rb") as log:
                    tail = log.read()[-2000:].decode(errors="replace")
                self.stop()
                raise RuntimeError(f"the daemon did not start:\n{tail}")
            time.sleep(0.002)

    def load(self, versions, ops) -> None:
        """``db_load`` the first version, then serve and discard one request."""
        self.handle = self.client.load_database(versions[0])
        send(self.client, self.handle, ops[0])

    def stop(self) -> None:
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 - the wait below reaps it either way
            pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def send(client, handle: str, entry):
    op, payload, _version = entry
    if op == "batch":
        return client.batch(handle, payload)
    if op == "answers":
        return client.answers(handle, payload)
    return client.update_database(handle, delta=payload)


def digest_of(op: str, value) -> str | None:
    if op == "batch":
        return result_digest(value)
    if op == "answers":
        return answers_digest(value)
    return None


def drive(
    daemon: Daemon, ops, seconds: float, probe: HostProbe,
    minimum: int = MINIMUM, checkpoint=None,
):
    """Replay ``ops[1:]`` for ``seconds`` (and at least ``minimum`` requests).

    Returns ``(records, wall, counted)``: one ``(index, op, seconds,
    digest, error)`` record per request, the loop's wall time, and the
    daemon's layer snapshot after ``checkpoint`` requests (traced
    daemons).  ``probe`` samples the host's speed between requests.
    """
    handle = daemon.handle
    records = []
    counted = None
    started = time.perf_counter()
    for index in range(1, len(ops)):
        if len(records) >= minimum and time.perf_counter() - started >= seconds:
            break
        probe.poll()
        op = ops[index][0]
        begin = time.perf_counter()
        try:
            value = send(daemon.client, handle, ops[index])
        except Exception as error:  # noqa: BLE001 - counted as failed
            records.append((index, op, None, None, repr(error)))
            continue
        elapsed = time.perf_counter() - begin
        if op == "db_update":
            handle = value
        records.append((index, op, elapsed, digest_of(op, value), None))
        if checkpoint is not None and len(records) == checkpoint:
            counted = daemon.client.metrics()["layers"]
    return records, time.perf_counter() - started, counted


def verify(outcome: Outcome, versions, ops, records) -> None:
    """Replay the stream on an in-process serial engine; compare digests."""
    from repro import parse_query
    from repro.engine import BatchAttributionEngine

    engine = BatchAttributionEngine(jobs=1)
    queries: dict[str, object] = {}
    expected: dict[int, str] = {}
    wanted = {index for index, op, *_ in records if op != "db_update"}
    for index in range(max(wanted, default=0) + 1):
        op, text, version = ops[index]
        if op == "db_update":
            continue
        query = queries.get(text)
        if query is None:
            query = queries[text] = parse_query(text)
        if op == "batch":
            expected[index] = result_digest(engine.batch(versions[version], query))
        else:
            expected[index] = answers_digest(
                engine.batch_answers(versions[version], query)
            )
    for index, op, _elapsed, digest, error in records:
        outcome.attempted += 1
        if error is not None:
            outcome.fail(f"request {index} ({op}): {error}")
        elif op != "db_update" and digest != expected[index]:
            outcome.fail(f"request {index} ({op}): response differs from serial replay")


def _start(versions, ops, layers: bool) -> Daemon:
    daemon = Daemon(layers)
    try:
        daemon.load(versions, ops)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    probe = HostProbe(PROBE_EVERY)
    setups = []
    daemon = None
    try:
        for attempt in range(SETUPS):
            probe.poll()
            start = time.perf_counter()
            versions, ops = make_inputs(seed)
            daemon = _start(versions, ops, layers=False)
            setups.append(time.perf_counter() - start)
            if attempt + 1 < SETUPS:
                daemon.stop()
                daemon = None
        budget = seconds / 2 if trace else seconds
        records, wall, _ = drive(daemon, ops, budget, probe)
        rss = peak_rss_mb_of(daemon.process.pid)
        daemon.stop()
        daemon = None
        traced = None
        if trace:
            daemon = _start(versions, ops, layers=True)
            traced_records, _, counted = drive(
                daemon, ops, budget, HostProbe(PROBE_EVERY),
                max(MINIMUM, COUNTED_PREFIX), COUNTED_PREFIX,
            )
            document = daemon.client.metrics()
            restarts = daemon.client.stats()["engine"].get("sampler.restarts", 0)
            daemon.stop()
            daemon = None
            traced = (traced_records, counted, document, restarts)
    finally:
        if daemon is not None:
            daemon.stop()

    outcome = Outcome(probe=probe)
    verify(outcome, versions, ops, records + (traced[0] if traced else []))
    by_op: dict[str, list[float]] = {}
    for _index, op, elapsed, _digest, error in records:
        if error is None:
            by_op.setdefault(op, []).append(elapsed)
    reads = by_op.get("batch", []) + by_op.get("answers", [])
    completed = sum(len(values) for values in by_op.values())
    outcome.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (p50_ms(by_op["batch"]), "ms"),
        "secondary_p50_ms": (p50_ms(by_op["db_update"]), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.details = {
        "throughput_rps": completed / wall,
        "loop": "closed, 1 client connection, daemon process with --jobs 1",
        "sizes": {
            "students": STUDENTS,
            "courses": COURSES,
            "endogenous_facts": len(versions[0].endogenous),
            "update_every": UPDATE_EVERY,
        },
        "requests": {op: len(values) for op, values in sorted(by_op.items())},
        "answers_p50_ms": p50_ms(by_op["answers"]),
        "latency_p99_ms": 1000.0 * percentile(reads, 0.99)
        if len(reads) >= 1000
        else None,
        "read_samples": len(reads),
    }
    if traced is not None:
        traced_records, counted, document, restarts = traced
        traced_batches = [
            elapsed for _i, op, elapsed, _d, error in traced_records
            if op == "batch" and error is None
        ]
        outcome.traced = {
            "snapshot": document["layers"],
            # +1: the daemon also served the discarded first request.
            "requests": len(traced_records) + 1,
            "first_unit": counted,
            "latency_ms": p50_ms(traced_batches),
            "untraced_latency_ms": outcome.metrics["latency_p50_ms"][0],
            "restarts": restarts,
            "server": server_metrics(document, traced_records),
        }
    return outcome


def server_metrics(document, records) -> dict[str, float]:
    """The ``server`` layer, read from the daemon's ``metrics`` op.

    ``wire.overhead_ms`` is the client's mean round trip minus the
    daemon's mean time in the op, over the stream's request kinds.
    """
    stream_ops = [document["ops"].get(op, {}) for op in ("batch", "answers", "db_update")]
    client = [elapsed for _i, _op, elapsed, _d, error in records if error is None]
    served = sum(op.get("requests", 0) for op in stream_ops)
    server_ms = sum(op.get("latency", {}).get("sum_ms", 0.0) for op in stream_ops)
    coalescing = document.get("coalescing", {})
    coalesced = coalescing.get("leaders", 0) + coalescing.get("followers", 0)
    admission = document["admission"]
    # Means, not the histogram's p50: that is a bucket bound, so it
    # would read the same on every run.
    metrics = {
        f"server.{name}.mean_ms": op.get("latency", {}).get("sum_ms", 0.0)
        / max(1, op.get("requests", 0))
        for name, op in zip(("batch", "answers", "db_update"), stream_ops)
    }
    metrics.update(
        {
            "wire.overhead_ms": 1000.0 * sum(client) / len(client)
            - server_ms / max(1, served),
            "admission.shed": admission["shed_overload"] + admission["shed_throttled"],
            "coalescer.follower_ratio": coalescing.get("followers", 0) / coalesced
            if coalesced
            else 0.0,
            "shared.claims_won": document.get("shared", {})
            .get("claims", {})
            .get("won", 0),
        }
    )
    return metrics
