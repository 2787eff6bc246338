"""The engine-grade sampler behind the ``sampled`` method (Section 5).

This module is the one implementation of the Section 5 additive FPRAS:
the engine schedules, shards and *resumes* it, and the standalone
estimators of :mod:`repro.shapley.approximate` run one stream of it.

* **Shared permutation sweeps** — one permutation of all players is
  swept once, and the satisfaction flip at position ``i`` is a
  marginal-contribution sample for the fact at that position: one
  permutation buys one sample for *every* fact.

* **Interval sweeps** — a sweep does not run the query on its ``m``
  prefixes.  :func:`run_rounds` builds the query's witness table
  (:class:`repro.core.evaluation.PrefixEvaluator`) once per round
  range, on integer player ids.  Each witness holds on one interval of
  a permutation's prefixes, and ``q`` flips only where their union
  starts or ends; one min/max pass over the table yields the intervals
  of a round's sweep *and* of its reversal.  ``evaluations`` still
  count one per prefix coalition (two per round range, plus ``m - 1``
  per sweep), so persisted states and the ``sampler.evaluations``
  counter stay comparable across versions.

* **Antithetic rounds** — each round pairs a forward sweep with the
  sweep of the *reversed* permutation.  Reversal mirrors the coalition
  sizes (position ``k`` becomes ``m - 1 - k``), so the pair covers the
  size strata the way :mod:`repro.shapley.stratified` allocates budget
  per size, and the two sweeps' errors are negatively correlated on
  monotone-ish queries — variance reduction at no guarantee cost: the
  round mean still lies in ``[-1, 1]``, so the Hoeffding bound applies
  *round-wise* and :func:`rounds_for_contract` is the Hoeffding count
  :func:`hoeffding_sample_count`.

* **Deterministic, order-independent rounds** — round ``i`` draws its
  permutation from ``sha256(seed, i)``, so any executor (serial, or a
  sharded backend splitting the round range across worker processes)
  produces bit-identical integer totals, and a later request can run
  rounds ``n .. n'`` and merge them with a stored prefix — the anytime
  refinement the daemon's ``refine`` operation exposes.

* **Resumable state** — :class:`SampleState` is the whole estimator
  state: the stream seed, how many rounds are folded in, the integer
  marginal totals per fact, and the cumulative evaluation count.  It is
  persisted by the engine's result store under a policy-independent
  key, so *any* accuracy contract over the same request continues one
  stream.

The per-fact estimate after ``n`` rounds is ``totals[f] / (2 n)``
(two sweeps per round), with the additive guarantee
``epsilon = sqrt(2 ln(2 / delta) / n)`` per fact.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from repro.core.database import Database
from repro.core.evaluation import PrefixEvaluator
from repro.core.facts import Fact
from repro.core.query import BooleanQuery
from repro.obs import tracing as _tracing


@dataclass(frozen=True)
class SampleState:
    """Everything needed to resume a sampled request where it stopped.

    ``totals`` maps each player to the integer sum of its marginal
    contributions over all ``2 * rounds`` sweeps of rounds
    ``0 .. rounds - 1`` of the stream named by ``seed``; ``evaluations``
    counts the prefix coalitions evaluated producing them (cumulative
    across resumptions).  States are value objects: executors return
    fresh ones, they are never mutated in place.
    """

    seed: int
    rounds: int
    totals: Mapping[Fact, int]
    evaluations: int

    def value_of(self, player: Fact) -> Fraction:
        """The running estimate for one player: ``total / (2 rounds)``."""
        return Fraction(self.totals.get(player, 0), 2 * self.rounds)

    def compatible_with(self, seed: int, players: Iterable[Fact]) -> bool:
        """Can this state extend the stream ``seed`` over ``players``?

        A stored state is only resumable when it was drawn from the
        same stream *and* covers exactly the same player set — anything
        else (a corrupted entry, a key collision across refactors) must
        restart rather than silently merge incompatible totals.
        """
        return self.seed == seed and set(self.totals) == set(players)


def hoeffding_sample_count(epsilon: float, delta: float) -> int:
    """Samples sufficient for an additive (epsilon, delta) guarantee.

    Samples lie in ``[-1, 1]`` (range 2), so Hoeffding gives
    ``P(|mean - mu| >= eps) <= 2 exp(-n eps^2 / 2)``, i.e.
    ``n >= 2 ln(2 / delta) / eps^2``.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(2.0 / delta) / (epsilon * epsilon))


def rounds_for_contract(epsilon: float, delta: float) -> int:
    """Antithetic rounds sufficient for an additive ``(epsilon, delta)``.

    Round means lie in ``[-1, 1]`` and rounds are independent, so the
    Hoeffding count applies with "samples" read as "rounds".  The
    contract is per fact: for each fact, with probability at least
    ``1 - delta`` its estimate is within ``epsilon``.  There is no union
    bound over the facts, so the probability that *some* fact misses can
    reach ``m * delta`` for ``m`` facts; a simultaneous guarantee would
    need the count for ``delta / m``.
    """
    return hoeffding_sample_count(epsilon, delta)


def achieved_epsilon(rounds: int, delta: float) -> float:
    """The additive bound ``rounds`` completed rounds actually deliver.

    Inverts the Hoeffding count: ``epsilon = sqrt(2 ln(2/delta) / n)``.
    May exceed 1 for very small ``n`` — callers clamp where a bound in
    ``(0, 1)`` is required (e.g. when re-entering it as a contract).
    """
    if rounds < 1:
        raise ValueError("achieved_epsilon needs at least one round")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * math.log(2.0 / delta) / rounds)


def sample_seed(key: tuple) -> int:
    """A deterministic stream seed derived from a request key.

    Hashing the canonical request key (rather than drawing entropy)
    makes the permutation stream a pure function of the request: every
    process, worker, and session that plans the same request extends
    the *same* stream, which is what lets stored states resume across
    daemon restarts and database deltas.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def round_rng(seed: int, index: int) -> random.Random:
    """The RNG of round ``index`` of stream ``seed``.

    Each round gets an independent generator keyed by ``(seed, index)``
    so rounds can run in any order, on any executor, in any process,
    and still shuffle identically.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def run_rounds(
    database: Database,
    query: BooleanQuery,
    seed: int,
    start: int,
    count: int,
) -> tuple[dict[Fact, int], int]:
    """Run antithetic rounds ``start .. start + count - 1`` of a stream.

    Returns the integer marginal totals contributed by exactly these
    rounds (one shuffled permutation and its reversal each), keyed by
    player in ``repr`` order, and the number of prefix coalitions
    evaluated.  Totals are order-independent integer sums, so disjoint
    round ranges — run serially, in worker processes, or in a later
    session — merge by plain addition.
    """
    if _tracing.ACTIVE is not None:
        with _tracing.ACTIVE.span("sampler.round", start=start, count=count) as span:
            evaluator = PrefixEvaluator(query, database)
            span.set("players", len(evaluator.players))
            span.set("witnesses", len(evaluator.witnesses))
            totals, evaluations = _run_rounds(evaluator, seed, start, count)
            span.set("evaluations", evaluations)
            return totals, evaluations
    return _run_rounds(PrefixEvaluator(query, database), seed, start, count)


def _run_rounds(
    evaluator: PrefixEvaluator, seed: int, start: int, count: int
) -> tuple[dict[Fact, int], int]:
    players = evaluator.players
    size, counts = len(players), [0] * len(players)
    if count <= 0 or not players:
        return dict(zip(players, counts)), 0
    for index in range(start, start + count):
        # Shuffling ids draws the facts' permutation (a shuffle depends
        # only on the length); one pass credits its reversal too.
        order = list(range(size))
        round_rng(seed, index).shuffle(order)
        evaluator.credit(order, counts)
    # One evaluation per prefix coalition: the empty and the full one
    # once per range, the m - 1 others once per sweep.
    return dict(zip(players, counts)), 2 + count * 2 * (size - 1)


def merge_totals(
    base: Mapping[Fact, int], *others: Mapping[Fact, int]
) -> dict[Fact, int]:
    """Fold disjoint round ranges' totals together (plain integer sums)."""
    merged = dict(base)
    for totals in others:
        for player, value in totals.items():
            merged[player] = merged.get(player, 0) + value
    return merged


def extend_state(
    state: SampleState | None,
    seed: int,
    new_totals: Mapping[Fact, int],
    new_rounds: int,
    new_evaluations: int,
) -> SampleState:
    """The state after appending ``new_rounds`` fresh rounds to a prefix."""
    if state is None:
        return SampleState(seed, new_rounds, dict(new_totals), new_evaluations)
    return SampleState(
        seed,
        state.rounds + new_rounds,
        merge_totals(state.totals, new_totals),
        state.evaluations + new_evaluations,
    )


__all__ = [
    "SampleState",
    "achieved_epsilon",
    "extend_state",
    "hoeffding_sample_count",
    "merge_totals",
    "round_rng",
    "rounds_for_contract",
    "run_rounds",
    "sample_seed",
]
