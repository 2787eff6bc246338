"""``sampled-hard``: the Section 5 additive FPRAS on the paper's query (1).

A closed loop with one client in this process.  The input is an
``export_database`` instance with every fact endogenous — so ``Grows``
is negated *and* endogenous, the query is non-hierarchical, and the
instance is past the 24-fact brute-force cap: under the ``auto`` policy
only the sampler applies.  Each unit of work builds a fresh serial
engine, runs ``batch`` at ε = ``BATCH_EPSILON``, then ``refine`` to a
tighter ε on the same engine, which resumes the stored ``SampleState``
instead of starting over.

ε is twice the policy default of 0.1: the Hoeffding round count is
quadratic in 1/ε, so a default-ε unit takes about 3 s here, and a run
would hold too few of them for a steady median.  The work per round,
which is what the sampler's layers change, is the same at any ε.
"""

from __future__ import annotations

import random
import time

from common import (
    SETUPS,
    HostProbe,
    Outcome,
    efficiency_problem,
    median,
    p50_ms,
    peak_rss_mb_self,
    relabel,
    result_digest,
)

FACTS = 30
FARMERS, PRODUCTS, COUNTRIES = 11, 2, 2
BATCH_EPSILON = 0.2
REFINE_EPSILON = 0.15
LABELINGS = 4


def make_inputs(seed: int):
    """``LABELINGS`` labellings, drawn by the seed, of one fixed instance.

    A labelling changes the sampler's permutation stream and the order
    of the engine's sets, which moves a unit's time by up to a sixth
    with the same number of evaluations.  A run cycles through several,
    so its medians vary less from seed to seed.
    """
    from repro.core.database import Database
    from repro.workloads.generators import export_database

    for shape_seed in range(1000):
        base = export_database(
            FARMERS, PRODUCTS, COUNTRIES, rng=random.Random(shape_seed)
        )
        if len(base.facts) == FACTS:
            break
    else:
        raise RuntimeError(f"no export_database shape with {FACTS} facts")
    hard = Database(endogenous=base.facts)
    rng = random.Random(f"sampled-hard:{seed}")
    return [relabel(hard, rng) for _ in range(LABELINGS)]


def set_up(seed: int):
    """Generate the inputs and serve (and discard) one loose first request."""
    from repro.engine import BatchAttributionEngine
    from repro.engine.policy import MethodPolicy
    from repro.workloads.queries import intro_export_query

    databases = make_inputs(seed)
    query = intro_export_query()
    BatchAttributionEngine(jobs=1).batch(
        databases[0], query, policy=MethodPolicy("sampled", epsilon=0.5)
    )
    return databases, query


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine import BatchAttributionEngine
    from repro.engine.policy import MethodPolicy

    probe = HostProbe()
    setups = []
    for _ in range(SETUPS):
        probe.poll()
        start = time.perf_counter()
        databases, query = set_up(seed)
        setups.append(time.perf_counter() - start)

    policy = MethodPolicy("auto", epsilon=BATCH_EPSILON)
    outcome = Outcome(probe=probe)
    recorder = None
    if trace:
        from layers import LayerRecorder

        recorder = LayerRecorder()
    latencies = {False: {"batch": [], "refine": []}, True: {"batch": [], "refine": []}}
    reference: dict[str, tuple] = {}
    restarts = 0
    first_unit = None
    units = 0
    started = time.perf_counter()
    while units < (2 if trace else 1) or time.perf_counter() - started < seconds:
        traced = recorder is not None and units % 2 == 1
        if traced:
            recorder.install()
        # Pairs of units share a labelling, so a traced run times each
        # labelling both untraced and traced.
        labeling = (units // 2) % LABELINGS
        database = databases[labeling]
        engine = BatchAttributionEngine(jobs=1)
        try:
            for op in ("batch", "refine"):
                probe.poll()
                before = engine.counters()["sampler.restarts"]
                outcome.attempted += 1
                begin = time.perf_counter()
                try:
                    if op == "batch":
                        result = engine.batch(database, query, policy=policy)
                    else:
                        result = engine.refine(
                            database, query, epsilon=REFINE_EPSILON
                        )
                except Exception as error:  # noqa: BLE001 - counted, reported
                    outcome.fail(f"{op}: {error!r}")
                    break
                latencies[traced][op].append(time.perf_counter() - begin)
                fresh_restarts = engine.counters()["sampler.restarts"] - before
                restarts += fresh_restarts
                problem = _check(
                    f"{op}@{labeling}", database, query, result, fresh_restarts, reference
                )
                if problem is not None:
                    outcome.fail(f"{op}: {problem}")
        finally:
            if traced:
                recorder.uninstall()
        if traced and first_unit is None:
            first_unit = recorder.snapshot()
        units += 1
    wall = time.perf_counter() - started

    plain = latencies[False]
    outcome.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (p50_ms(plain["batch"]), "ms"),
        "secondary_p50_ms": (p50_ms(plain["refine"]), "ms"),
        "peak_rss_mb": (peak_rss_mb_self(), "MB"),
    }
    outcome.details = {
        "throughput_rps": outcome.attempted / wall,
        "loop": "closed, 1 client, in-process, fresh serial engine per unit",
        "sizes": {
            "facts": len(databases[0].facts),
            "labelings": LABELINGS,
            "batch_epsilon": BATCH_EPSILON,
            "refine_epsilon": REFINE_EPSILON,
        },
        "units": units,
        "samples": len(plain["batch"]),
        "refine_p50_ms": p50_ms(plain["refine"]),
        "sampler_restarts": restarts,
        "digests": {op: entry[0] for op, entry in sorted(reference.items())},
        "state_digests": {op: entry[1] for op, entry in sorted(reference.items())},
    }
    if recorder is not None:
        outcome.traced = {
            "snapshot": recorder.snapshot(),
            "requests": sum(len(v) for v in latencies[True].values()),
            "first_unit": first_unit,
            "latency_ms": p50_ms(latencies[True]["batch"]),
            "untraced_latency_ms": outcome.metrics["latency_p50_ms"][0],
            "restarts": restarts,
        }
    return outcome


def _check(key, database, query, result, restarts, reference) -> str | None:
    """Sampled method, no restart, and the same stream in every unit.

    ``key`` is ``op@labelling``: units on one labelling must agree.
    """
    estimate = result.estimate
    if result.method != "sampled" or estimate is None:
        return f"method {result.method!r}, expected a sampled estimate"
    if restarts:
        return f"sampler.restarts rose by {restarts}"
    if key.startswith("refine") and estimate.resumed_rounds == 0:
        return "refine did not resume the stored sample state"
    seen = (result_digest(result), estimate.state_digest, estimate.rounds)
    known = reference.setdefault(key, seen)
    if seen != known:
        return f"digests {seen} differ from the first unit's {known}"
    if known is seen:
        return efficiency_problem(database, query, result.shapley)
    return None
