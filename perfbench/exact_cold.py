"""``exact-cold``: Theorem 3.1 CntSat on a fresh engine for every request.

A closed loop with one client in this process.  Each unit of work walks
the size ladder of ``star_join_database(n, 8)`` once; at every rung it
runs ``batch`` on the Boolean query and ``batch_answers`` on its
non-Boolean companion, each on a newly built serial engine, so the
result store and the component cache always start cold.  The loop runs
whole units until the time is up.
"""

from __future__ import annotations

import random
import time

from common import (
    SETUPS,
    HostProbe,
    Outcome,
    answers_digest,
    efficiency_problem,
    growth_exponent,
    median,
    p50_ms,
    peak_rss_mb_self,
    relabel,
    result_digest,
)

LADDER = (30, 45, 60)
COURSES = 8
BATCH_QUERY = "q() :- Stud(x), not TA(x), Reg(x, y)"
ANSWERS_QUERY = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


def make_inputs(seed: int):
    """One database per rung: a fixed shape, labelled by the seed."""
    from repro.workloads.generators import star_join_database

    rng = random.Random(f"exact-cold:{seed}")
    return [
        (n, relabel(star_join_database(n, COURSES, rng=random.Random(n)), rng))
        for n in LADDER
    ]


def set_up(seed: int):
    """Generate the inputs and serve (and discard) one first request."""
    from repro import parse_query
    from repro.engine import BatchAttributionEngine

    inputs = make_inputs(seed)
    queries = parse_query(BATCH_QUERY), parse_query(ANSWERS_QUERY)
    BatchAttributionEngine(jobs=1).batch(inputs[0][1], queries[0])
    return inputs, queries


class _Checker:
    """Verifies every result: exact axioms once, then digest identity."""

    def __init__(self, outcome: Outcome, queries) -> None:
        self.outcome = outcome
        self.queries = queries
        self.digests: dict[tuple[str, int], str] = {}

    def check(self, op: str, n: int, database, result) -> None:
        digest = result_digest(result) if op == "batch" else answers_digest(result)
        known = self.digests.get((op, n))
        if known is not None:
            if digest != known:
                self.outcome.fail(f"{op} n={n}: digest {digest} != {known}")
            return
        self.digests[(op, n)] = digest
        problem = self._axiom_problem(op, database, result)
        if problem is not None:
            self.outcome.fail(f"{op} n={n}: {problem}")

    def _axiom_problem(self, op: str, database, result) -> str | None:
        from repro.shapley.answers import ground_at_answer

        if op == "batch":
            return efficiency_problem(database, self.queries[0], result.shapley)
        if not result.per_answer:
            return "no answers"
        for answer, per_answer in result.per_answer.items():
            grounded = ground_at_answer(self.queries[1], answer)
            problem = efficiency_problem(database, grounded, per_answer.shapley)
            if problem is not None:
                return f"answer {answer!r}: {problem}"
        return None


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine import BatchAttributionEngine

    probe = HostProbe()
    setups = []
    for _ in range(SETUPS):
        probe.poll()
        start = time.perf_counter()
        inputs, queries = set_up(seed)
        setups.append(time.perf_counter() - start)

    outcome = Outcome(probe=probe)
    checker = _Checker(outcome, queries)
    recorder = None
    if trace:
        from layers import LayerRecorder

        recorder = LayerRecorder()
    # latencies[traced][(op, n)] -> seconds per request
    latencies: dict[bool, dict[tuple[str, int], list[float]]] = {
        False: {},
        True: {},
    }
    first_unit = None
    units = 0
    started = time.perf_counter()
    while units < (2 if trace else 1) or time.perf_counter() - started < seconds:
        # A traced run alternates untraced and traced units, which
        # pairs the two for the tracing-overhead estimate.
        traced = recorder is not None and units % 2 == 1
        if traced:
            recorder.install()
        try:
            for n, database in inputs:
                for op in ("batch", "batch_answers"):
                    engine = BatchAttributionEngine(jobs=1)
                    call = engine.batch if op == "batch" else engine.batch_answers
                    query = queries[0] if op == "batch" else queries[1]
                    probe.poll()
                    outcome.attempted += 1
                    begin = time.perf_counter()
                    try:
                        result = call(database, query)
                    except Exception as error:  # noqa: BLE001 - counted, reported
                        outcome.fail(f"{op} n={n}: {error!r}")
                        continue
                    elapsed = time.perf_counter() - begin
                    latencies[traced].setdefault((op, n), []).append(elapsed)
                    checker.check(op, n, database, result)
        finally:
            if traced:
                recorder.uninstall()
        if traced and first_unit is None:
            first_unit = recorder.snapshot()
        units += 1
    wall = time.perf_counter() - started

    plain = latencies[False]
    top = LADDER[-1]
    batch_top = plain[("batch", top)]
    answers_top = plain[("batch_answers", top)]
    outcome.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (p50_ms(batch_top), "ms"),
        "secondary_p50_ms": (p50_ms(answers_top), "ms"),
        "peak_rss_mb": (peak_rss_mb_self(), "MB"),
    }
    outcome.details = {
        "throughput_rps": outcome.attempted / wall,
        "loop": "closed, 1 client, in-process, fresh serial engine per request",
        "sizes": {
            str(n): len(database.endogenous) for n, database in inputs
        },
        "units": units,
        "samples_per_rung": len(batch_top),
        "answers_p50_ms": p50_ms(answers_top),
        "growth_exponent": growth_exponent(
            list(LADDER), [min(plain[("batch", n)]) for n in LADDER]
        ),
        "batch_min_ms": {
            str(n): 1000.0 * min(plain[("batch", n)]) for n in LADDER
        },
        "digests": {f"{op}@{n}": d for (op, n), d in sorted(checker.digests.items())},
    }
    if recorder is not None:
        outcome.traced = {
            "snapshot": recorder.snapshot(),
            "requests": sum(len(v) for v in latencies[True].values()),
            "first_unit": first_unit,
            "latency_ms": p50_ms(latencies[True][("batch", top)]),
            "untraced_latency_ms": outcome.metrics["latency_p50_ms"][0],
            "restarts": 0,
        }
    return outcome
