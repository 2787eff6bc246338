"""E-KERNELS — the exact-integer kernel layer vs the seed's rational path.

Three claims made executable (ISSUE 8):

* **equivalence** — every kernel tier (schoolbook / packed) returns
  bit-identical convolutions, and engine results are
  bit-identical across kernels, executors (serial vs ``jobs=2``), and
  through the daemon's wire protocol;
* **speedup** (the acceptance claim) — on a convolution-heavy star-join
  batch, the engine's shared forward/backward pass over the auto-tiered
  kernels beats the seed's per-fact CntSat reference (schoolbook
  convolution, per-size ``Fraction`` multiply-add) by more than the
  asserted 3x serial floor, under ``--quick`` too;
* **observability** — the per-kernel counters surface through
  ``engine.stats["kernel"]`` and the daemon's ``metrics`` operation.
"""

from __future__ import annotations

import math
import random
import threading
import time
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest import mock

from repro.engine import BatchAttributionEngine, SerialExecutor, ShardedExecutor
from repro.engine.bundles import batch_count_vectors
from repro.engine.results import result_from_vectors
from repro.server import AttributionClient, AttributionDaemon
from repro.shapley.cntsat import count_satisfying_subsets
from repro.util import kernels
from repro.workloads.generators import star_join_database
from repro.workloads.running_example import query_q1

#: The acceptance floor: the engine must beat the seed's serial
#: per-fact reference path by at least this factor.
SPEEDUP_FLOOR = 3.0

#: ``PACK_THRESHOLD`` values that force one tier for a block.
FORCE_THRESHOLD = {kernels.SCHOOLBOOK: math.inf, kernels.PACKED: 0}


def _forced(tier):
    """Patch the size rule's cutover so every convolution runs ``tier``."""
    return mock.patch.object(kernels, "PACK_THRESHOLD", FORCE_THRESHOLD[tier])


def _seed_reference_batch(db, query):
    """The seed pipeline, reconstructed: per fact, two full CntSat runs on
    the edited databases (``f`` exogenous, ``f`` deleted) with schoolbook
    convolution, then the historical per-size ``Fraction`` multiply-add
    (one coefficient built from scratch per nonzero coalition size, one
    gcd per addition)."""
    players = len(db.endogenous)
    denominator = 2 ** (players - 1)
    shapley, banzhaf = {}, {}
    with _forced(kernels.SCHOOLBOOK):
        for item in db.endogenous:
            sat_exo = count_satisfying_subsets(db.with_fact_exogenous(item), query)
            sat_del = count_satisfying_subsets(db.without_fact(item), query)
            total = Fraction(0)
            difference_total = 0
            for k in range(players):
                difference = sat_exo[k] - sat_del[k]
                if difference:
                    coefficient = Fraction(
                        factorial(k) * factorial(players - 1 - k),
                        factorial(players),
                    )
                    total += coefficient * difference
                    difference_total += difference
            shapley[item] = total
            banzhaf[item] = Fraction(difference_total, denominator)
    return shapley, banzhaf


def _kernel_batch(db, query):
    """The engine pipeline: one forward pass, one backward pass, tiered
    convolution, one ``Fraction`` per value."""
    result = result_from_vectors(batch_count_vectors(db, query), "cntsat")
    return dict(result.shapley), dict(result.banzhaf)


def test_convolution_tiers_agree_and_scale(benchmark, report, quick):
    """Per-tier convolution timings on binomial-shaped count vectors."""
    rng = random.Random(5)
    rows = []
    for length in (8, 32, 128) if quick else (8, 32, 128, 512):
        left = [rng.randrange(10**6) for _ in range(length)]
        right = [rng.randrange(10**6) for _ in range(length)]
        timings = {}
        reference = None
        for name in (kernels.SCHOOLBOOK, kernels.PACKED):
            with _forced(name):
                start = time.perf_counter()
                out = kernels.convolve(left, right)
                timings[name] = time.perf_counter() - start
            if reference is None:
                reference = out
            else:
                assert out == reference, f"{name} diverged at n={length}"
        rows.append(
            (
                f"n={length}",
                kernels.tier_for_sizes(length, length),
                f"{timings[kernels.SCHOOLBOOK] * 1000:.2f} ms",
                f"{timings[kernels.PACKED] * 1000:.2f} ms",
            )
        )
    big = [rng.randrange(10**6) for _ in range(256)]
    benchmark(lambda: kernels.convolve(big, big))
    report(
        "E-KERNELS: pairwise convolution by tier (bit-identical outputs)",
        ("vector", "auto tier", "schoolbook", "packed"),
        rows,
    )


def test_kernel_speedup_over_seed_reference(benchmark, report, quick):
    """The acceptance claim: >= 3x serial over the seed's per-fact path."""
    query = query_q1()
    sizes = ((20, 4), (40, 5)) if quick else ((40, 5), (100, 8))
    rows = []
    speedups = []
    for students, courses in sizes:
        db = star_join_database(students, courses, rng=random.Random(11))

        start = time.perf_counter()
        reference_shapley, reference_banzhaf = _seed_reference_batch(db, query)
        reference_seconds = time.perf_counter() - start

        start = time.perf_counter()
        shapley, banzhaf = _kernel_batch(db, query)
        kernel_seconds = time.perf_counter() - start

        assert shapley == reference_shapley, "kernel Shapley values diverged"
        assert banzhaf == reference_banzhaf, "kernel Banzhaf values diverged"
        speedup = reference_seconds / kernel_seconds
        speedups.append(speedup)
        rows.append(
            (
                f"{students}x{courses} ({len(db.endogenous)} facts)",
                f"{reference_seconds * 1000:.0f} ms",
                f"{kernel_seconds * 1000:.0f} ms",
                f"{speedup:.2f}x",
            )
        )
    db = star_join_database(*sizes[0], rng=random.Random(11))
    benchmark(lambda: _kernel_batch(db, query))
    report(
        "E-KERNELS: seed per-fact reference vs the engine's shared pass",
        ("instance", "seed reference", "kernel layer", "speedup"),
        rows,
    )
    assert max(speedups) >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x over the seed reference path,"
        f" got {speedups}"
    )


def test_bit_identity_across_kernels_executors_and_daemon(
    report, quick, tmp_path
):
    """One result, every route: kernels x executors x the wire protocol."""
    query = query_q1()
    db = star_join_database(8 if quick else 14, 4, rng=random.Random(3))
    rows = []

    with _forced(kernels.SCHOOLBOOK):
        start = time.perf_counter()
        reference = BatchAttributionEngine(executor=SerialExecutor()).batch(db, query)
        rows.append(("serial, schoolbook", f"{(time.perf_counter() - start) * 1000:.1f} ms"))

    def check(label, result):
        assert list(result.shapley) == list(reference.shapley)
        for item in reference.shapley:
            assert result.shapley[item] == reference.shapley[item]
            assert result.banzhaf[item] == reference.banzhaf[item]
        rows.append(label)

    with _forced(kernels.PACKED):
        start = time.perf_counter()
        packed = BatchAttributionEngine(executor=SerialExecutor()).batch(db, query)
        check(("serial, packed", f"{(time.perf_counter() - start) * 1000:.1f} ms"), packed)

    start = time.perf_counter()
    sharded = BatchAttributionEngine(executor=ShardedExecutor(jobs=2)).batch(db, query)
    check(("sharded jobs=2, auto", f"{(time.perf_counter() - start) * 1000:.1f} ms"), sharded)

    daemon = AttributionDaemon(str(Path(tmp_path) / "bench.sock"))
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        with AttributionClient(daemon.address) as client:
            start = time.perf_counter()
            wire = client.batch(db, query)
            check(("daemon wire, auto", f"{(time.perf_counter() - start) * 1000:.1f} ms"), wire)
            metrics = client.metrics()
    finally:
        daemon.shutdown()
        thread.join(timeout=10)
        daemon.close()

    kernel_metrics = metrics["kernel"]
    executed = sum(
        kernel_metrics["counters"][name]
        for name in ("schoolbook_calls", "packed_calls")
    )
    assert executed > 0, "daemon metrics should report executed convolutions"
    report(
        "E-KERNELS: bit-identical results across kernels, executors, wire",
        ("route", "wall"),
        rows,
    )
