"""Shared helpers of the benchmark: statistics, digests, checks, host facts."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep sockets and store files; listed in the root .gitignore.
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-ups per run; ``setup_s`` is their median.  A set-up is short
#: (0.05-0.5 s), so a run times many to keep the median steady.
SETUPS = 15

#: The :class:`HostProbe` loop's usual mean time, in milliseconds, on the
#: host the benchmark was written on (2 vCPUs, Python 3.11).  Gated times
#: are reported at this host speed.  A fixed constant, set once.
REFERENCE_PROBE_MS = 5.0


class HostProbe:
    """Times a fixed pure-Python loop between the requests of a run.

    On a shared host the speed at which this process runs Python changes
    by up to 1.7x within a minute, as other tenants' load comes and
    goes, and every time the benchmark measures moves with it.  The loop
    touches no part of the program, so its time tracks only the host.
    Sampled between requests, its mean over a run scales the run's times
    to the reference speed (``REFERENCE_PROBE_MS / mean``): over 150 s of
    ``batch`` requests each preceded by one probe, the spread of the
    medians of 20-s windows fell from 0.10 raw to 0.04 scaled.
    """

    def __init__(self, every: float = 0.0) -> None:
        #: Seconds between samples; 0 samples at every :meth:`poll`.
        self.every = every
        self.samples: list[float] = []
        self._due = 0.0

    def poll(self) -> None:
        if time.perf_counter() < self._due:
            return
        start = time.perf_counter()
        table: dict[int, int] = {}
        for value in range(20_000):
            table[value % 997] = table.get(value % 997, 0) + value * value
        sorted(table.items())
        end = time.perf_counter()
        self.samples.append(end - start)
        self._due = end + self.every

    def mean_ms(self) -> float:
        return 1000.0 * statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's host speed to the reference speed."""
        return REFERENCE_PROBE_MS / self.mean_ms()


@dataclass
class Outcome:
    """What one workload run reports back to :mod:`run`.

    ``metrics`` maps a metric name to ``(value, unit)``; ``details``
    carries everything else worth recording beside the numbers
    (workload-specific latencies, digests, deterministic work counters).
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    #: The run's host-speed samples, which scale its times to the
    #: reference speed.
    probe: HostProbe | None = None
    #: Only in traced runs: the layer recorder's snapshot over the traced
    #: ``requests``, the ``first_unit`` snapshot for the work counters,
    #: the main read's median latency traced (``latency_ms``) and untraced
    #: (``untraced_latency_ms``), sampler ``restarts``, and for a served
    #: workload the daemon's ``server`` metrics.
    traced: dict[str, object] | None = None

    def fail(self, problem: str) -> None:
        """Count one request that errored or failed a correctness check."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def p50_ms(seconds: list[float]) -> float:
    """The median of a sample of request times, in milliseconds."""
    return 1000.0 * statistics.median(seconds)


def growth_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def relabel(database, rng):
    """An isomorphic copy of ``database`` with its constants shuffled.

    Each workload draws one fixed-shape instance per input size and lets
    the seed pick its labelling: different seeds give different inputs
    of identical cost, so the spread between seeds is the run-to-run
    noise, not a difference in work.
    """
    from repro.core.database import Database
    from repro.core.facts import Fact

    constants = sorted(database.active_domain(), key=repr)
    shuffled = list(constants)
    rng.shuffle(shuffled)
    mapping = dict(zip(constants, shuffled))

    def move(items):
        return [
            Fact(item.relation, tuple(mapping[arg] for arg in item.args))
            for item in items
        ]

    return Database(
        endogenous=move(database.endogenous), exogenous=move(database.exogenous)
    )


def _update_values(digest, mapping) -> None:
    for item in sorted(mapping, key=repr):
        value = mapping[item]
        digest.update(f"{item!r}={value.numerator}/{value.denominator};".encode())


def result_digest(result) -> str:
    """Digest of one ``BatchResult``: method plus every exact value."""
    digest = hashlib.sha256(result.method.encode())
    digest.update(b"|shapley|")
    _update_values(digest, result.shapley)
    digest.update(b"|banzhaf|")
    _update_values(digest, result.banzhaf)
    return digest.hexdigest()[:16]


def answers_digest(result) -> str:
    """Digest of one ``AnswerBatchResult``, answers in ``repr`` order."""
    digest = hashlib.sha256()
    for answer in sorted(result.per_answer, key=repr):
        digest.update(f"{answer!r}:{result_digest(result.per_answer[answer])};".encode())
    return digest.hexdigest()[:16]


def efficiency_problem(database, query, shapley) -> str | None:
    """Check Σ Shapley = q(D) − q(D_x) exactly; describe a violation.

    ``D_x`` keeps only the exogenous facts.  Exact Shapley values meet
    the efficiency axiom exactly, and so does the permutation sampler:
    every sweep's marginal contributions telescope to the same total.
    """
    from repro.core.evaluation import holds

    expected = int(holds(query, database.facts)) - int(
        holds(query, database.exogenous)
    )
    total = sum(shapley.values())
    if total != expected:
        return f"efficiency: sum of Shapley values {total} != {expected}"
    return None


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """Digest of every file under ``src/``: names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(seed: int) -> dict[str, object]:
    """The terms a run was measured on, so later runs compare like with like."""
    from repro.util.kernels import active_kernel_name

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": active_kernel_name(),
        "repro_jobs": os.environ.get("REPRO_JOBS"),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
    }
