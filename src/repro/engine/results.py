"""The result layer: attribution values and their assembly from count vectors.

This module owns the *outputs* of the plan/execute pipeline:

* :class:`AttributionView` — the read-only all-facts mapping every
  published result holds: a request's slice-scoped values over its
  database version's shared fact positions (:func:`publish_result`);
* :class:`BatchResult` — all-facts Shapley/Banzhaf values of one Boolean
  request, plus provenance (method, player count, cache origin);
* :class:`AnswerBatchResult` — the per-answer results of a non-Boolean
  request, with the linearity-based :meth:`AnswerBatchResult.aggregate`;
* :func:`fact_numerators` and :func:`result_from_vectors` — the Lemma
  3.2 assembly.  The forward pass of :mod:`repro.engine.bundles` yields
  the baseline count vector and a tape; both measures are linear
  functionals of each fact's deletion vector, so their weight vectors
  (the *cotangents*) are pulled back down the tape once, every fact's
  Shapley and Banzhaf numerator comes out as one integer, and each value
  is normalized to a ``Fraction`` once.  Both read the one Shapley
  weight table, :func:`repro.util.kernels.reduced_shapley_weights`,
  built per request.

Result objects are what the result stores (:mod:`repro.engine.stores`,
:mod:`repro.engine.sqlite_store`) persist and what executors
(:mod:`repro.engine.executors`) return for each plan node, so the layer
sits below both and imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.facts import Constant, Fact
from repro.engine.bundles import BatchVectors, pull_back
from repro.engine.cache import CACHE_COUNTERS
from repro.obs.counters import Counters
from repro.shapley.sampling import SampleState, achieved_epsilon
from repro.util.kernels import reduced_shapley_weights


#: The value every null player reads as.  ``Fraction`` is immutable, so
#: one instance serves every view.
ZERO = Fraction(0)

#: The positions of a view that covers no fact: a sampled result's
#: Banzhaf mapping, which the permutation estimator never fills.  Views
#: never mutate their positions, so a plain (picklable) dict serves.
NO_FACTS: Mapping[Fact, int] = {}


class AttributionView(Mapping[Fact, Fraction]):
    """The read-only values of every endogenous fact of one database version.

    ``values`` holds a request's slice-scoped values (its relevant
    facts); ``positions`` maps every endogenous fact of the version to
    its canonical position — the facts sorted by ``repr`` — and is
    shared by every view of that version.  A fact of the version missing
    from ``values`` is a null player and reads as ``Fraction(0)``.
    Iteration follows ``positions`` and ``len`` is the version's number
    of endogenous facts, so a view reads exactly like a full dict of the
    version while it costs only its slice to build.  Neither mapping is
    ever copied or mutated: take ``dict(view)`` for a private copy.
    """

    __slots__ = ("_values", "_positions")

    def __init__(
        self, values: Mapping[Fact, Fraction], positions: Mapping[Fact, int]
    ) -> None:
        self._values = values
        self._positions = positions

    def __getitem__(self, item: Fact) -> Fraction:
        value = self._values.get(item)
        if value is not None:
            return value
        if item in self._positions:
            return ZERO
        raise KeyError(item)

    def __contains__(self, item: object) -> bool:
        return item in self._positions

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def nonzero(self) -> list[tuple[int, Fact, Fraction]]:
        """``(position, fact, value)`` of each nonzero value, in order.

        Walks the slice only, never the whole version: this is what a
        sparse encoding of the view is built from.
        """
        positions = self._positions
        return sorted(
            (positions[item], item, value)
            for item, value in self._values.items()
            if value
        )


@dataclass(frozen=True)
class AttributionEstimate:
    """The accuracy metadata of a sampled (``method="sampled"``) result.

    With probability at least ``1 - delta``, every per-fact Shapley
    value of the result is within ``epsilon`` of the exact value —
    ``epsilon`` is the *achieved* bound of the rounds actually folded
    in, which can be tighter than the contract the request asked for
    (anytime refinement only ever shrinks it).  ``rounds`` counts
    antithetic rounds, ``permutations`` the underlying permutation
    sweeps (two per round), and ``resumed_rounds`` how many of the
    rounds were reused from a stored :class:`SampleState` rather than
    recomputed.  ``state_digest`` is the resumable sample-state handle:
    the digest of the store key the state is persisted under.
    """

    epsilon: float
    delta: float
    rounds: int
    permutations: int
    resumed_rounds: int = 0
    state_digest: str | None = None


@dataclass(frozen=True)
class BatchResult:
    """All-facts attribution values plus provenance of the computation.

    The ``shapley`` and ``banzhaf`` mappings iterate their facts in the
    library's canonical order — sorted by ``repr`` — so callers observe
    one deterministic, documented ordering regardless of which algorithm
    or cache produced the result.  Published results (the engine's and
    the client's) hold read-only :class:`AttributionView` s.

    ``estimate`` is ``None`` for exact methods and carries the
    ``(epsilon, delta)`` accuracy metadata for sampled ones — a sampled
    result's ``shapley`` values are estimates, and its ``banzhaf``
    mapping is empty (the permutation estimator draws coalition sizes
    uniformly, which matches Shapley's size distribution but not
    Banzhaf's).  ``sample_state`` is transport-only: executors attach
    the resumable sampler state for the engine to persist, and the
    engine strips it before a result leaves the public API.
    """

    shapley: Mapping[Fact, Fraction]
    banzhaf: Mapping[Fact, Fraction]
    method: str
    player_count: int
    from_cache: bool = False
    estimate: AttributionEstimate | None = None
    sample_state: SampleState | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AnswerBatchResult:
    """Per-answer batch results for the groundings of one non-Boolean query.

    ``per_answer`` maps each answer tuple to the published
    :class:`BatchResult` (its mappings are :class:`AttributionView` s)
    of its grounded Boolean query ``q_t``; answers iterate sorted by
    ``repr``.  ``pool_stats`` reports how often the cross-grounding
    bundle pool shared component work between answers.
    """

    per_answer: Mapping[tuple[Constant, ...], BatchResult]
    pool_stats: Counters = field(default_factory=lambda: Counters(*CACHE_COUNTERS))

    def aggregate(
        self,
        value_of: Callable[[tuple[Constant, ...]], Fraction | int],
        measure: str = "shapley",
    ) -> dict[Fact, Fraction]:
        """Linearity: ``Σ_t value_of(t) · measure(D, q_t, f)`` per fact.

        The mapping covers every fact of the weighted answers' views,
        sorted by ``repr``.  Only each view's nonzero values are summed
        (:meth:`AttributionView.nonzero`); every other fact reads as zero
        from the views' positions, which the views of one version share,
        so the cost follows the slices, not answers × |Dn|.
        """
        if measure not in ("shapley", "banzhaf"):
            raise ValueError(f"unknown measure {measure!r}")
        totals: dict[Fact, Fraction] = {}
        positions: dict[int, Mapping[Fact, int]] = {}
        for answer, result in self.per_answer.items():
            weight = Fraction(value_of(answer))
            if not weight:
                continue
            view = getattr(result, measure)
            positions.setdefault(id(view._positions), view._positions)
            for _, item, value in view.nonzero():
                totals[item] = totals.get(item, ZERO) + weight * value
        covered = dict.fromkeys(item for facts in positions.values() for item in facts)
        return {item: totals.get(item, ZERO) for item in sorted(covered, key=repr)}


def aggregate_spec(
    kind: str, value_index: int | None, head_arity: int
) -> tuple[Callable[[tuple[Constant, ...]], Fraction | int], str]:
    """The ``(weight, label)`` of a ``count``/``sum`` aggregate request.

    One validator for every front end — the CLI's ``--aggregate`` and the
    attribution service's ``aggregate`` operation — so the in-process and
    wire paths can never drift.  Raises :class:`ValueError` with a
    message phrased in the CLI's flag vocabulary (the wire protocol's
    parameters mirror the flags, so the text reads correctly on both).
    """
    if kind == "sum":
        if value_index is None:
            raise ValueError("--aggregate sum requires --value-index")
        index = int(value_index)
        if not 0 <= index < head_arity:
            raise ValueError(
                f"--value-index {index} out of range for head of size"
                f" {head_arity}"
            )
        return (lambda row: Fraction(row[index])), f"sum(t[{index}])"
    if kind == "count":
        return (lambda row: 1), "count"
    raise ValueError(f"aggregate must be 'count' or 'sum', got {kind!r}")


def project_result(result: BatchResult, relevant: frozenset[Fact]) -> BatchResult:
    """The restriction of a result to its query-relevant endogenous facts.

    This is the *stored* form under the relevance-scoped request keys of
    :func:`repro.engine.fingerprint.fingerprint_request`: facts outside
    the relevant slice are null players with provably zero values, so
    dropping them is lossless — :func:`publish_result` reads any
    version's irrelevant facts back as zeros at the engine boundary.
    ``player_count`` becomes the relevant-player count, the
    version-stable quantity.
    """
    shapley = {
        item: value for item, value in result.shapley.items() if item in relevant
    }
    banzhaf = {
        item: value for item, value in result.banzhaf.items() if item in relevant
    }
    return BatchResult(
        shapley, banzhaf, result.method, len(shapley), estimate=result.estimate
    )


def rename_result(result: BatchResult, renaming: Mapping[Fact, Fact]) -> BatchResult:
    """An isomorphic request's result: every fact replaced by its image.

    By the symmetry axiom, a bijection that carries one request's slice
    and query onto another's carries each fact's Shapley and Banzhaf
    values along with it, so only the keys change.
    """
    return BatchResult(
        {renaming[item]: value for item, value in result.shapley.items()},
        {renaming[item]: value for item, value in result.banzhaf.items()},
        result.method,
        result.player_count,
    )


def fact_positions(facts: Iterable[Fact]) -> dict[Fact, int]:
    """``facts`` mapped to their positions: the fact list of an
    :class:`AttributionView`, for facts already in canonical order."""
    return {item: position for position, item in enumerate(facts)}


def publish_result(
    core: BatchResult, positions: Mapping[Fact, int], from_cache: bool = False
) -> BatchResult:
    """A slice-scoped core result published over a concrete database version.

    ``positions`` maps every endogenous fact of the version to its
    canonical position (the facts sorted by ``repr``); the engine derives
    it once per database version and every published result shares it.
    Both measures become :class:`AttributionView` s over the core's
    mappings, so publishing costs the same for one relevant fact as for
    ten thousand irrelevant ones: each fact missing from the core is a
    null player for this request and reads as its exact zero, and
    ``player_count`` becomes the version's total.  Shapley and Banzhaf
    dummy invariance make the published values bit-identical to a
    computation over the whole version.

    Sampled cores publish the same way — a null player's *estimate* is
    the exact zero, since its marginal contribution is zero in every
    permutation — but their (empty) Banzhaf mapping stays empty: zeros
    there would fabricate values the sampler never estimated.  The
    transport-only sampler state is not carried over.
    """
    return BatchResult(
        AttributionView(core.shapley, positions),
        AttributionView(core.banzhaf, positions if core.estimate is None else NO_FACTS),
        core.method,
        len(positions),
        from_cache=from_cache,
        estimate=core.estimate,
    )


def result_from_state(
    state: SampleState,
    delta: float,
    state_digest: str | None = None,
    resumed_rounds: int | None = None,
) -> BatchResult:
    """The sampled result a :class:`SampleState` implies.

    The per-fact estimates are ``totals / (2 rounds)`` (a forward sweep
    and its reversal per round), and the reported ``epsilon`` is the
    bound the state's rounds actually achieve, which is at least as
    tight as the contract.  Banzhaf stays empty: the permutation
    estimator matches Shapley's coalition-size distribution only.
    ``resumed_rounds`` counts the rounds that came from a stored state;
    by default every round does — a stored state that already satisfies
    the request's contract is served without recomputing anything.
    """
    players = sorted(state.totals, key=repr)
    shapley = {player: state.value_of(player) for player in players}
    estimate = AttributionEstimate(
        epsilon=achieved_epsilon(state.rounds, delta),
        delta=delta,
        rounds=state.rounds,
        permutations=2 * state.rounds,
        resumed_rounds=state.rounds if resumed_rounds is None else resumed_rounds,
        state_digest=state_digest,
    )
    return BatchResult(
        shapley,
        {},
        "sampled",
        len(players),
        estimate=estimate,
        sample_state=state,
    )


def fact_numerators(vectors: BatchVectors) -> dict[Fact, tuple[int, int]]:
    """Lemma 3.2 numerators: ``(Shapley · n!, Banzhaf · 2^(n-1))`` per live fact.

    :func:`result_from_vectors` divides the weight table's numerators by
    its denominator ``lcm(1..n)`` instead; the Shapley numerator is
    linear in the weights, so scaling it by ``n! / lcm(1..n)`` gives the
    one over ``n!``.
    """
    if not vectors.root.live:
        return {}
    players = vectors.total_players
    weights, common = reduced_shapley_weights(players)
    scale = factorial(players) // common
    return {
        item: (shapley * scale, banzhaf)
        for item, (shapley, banzhaf) in _numerators(vectors, weights).items()
    }


def _numerators(
    vectors: BatchVectors, weights: Sequence[int]
) -> dict[Fact, tuple[int, int]]:
    """Per live fact, the Shapley numerator over ``weights`` and the Banzhaf one.

    With ``S`` the baseline, ``D = Sat^{-f}`` and ``w`` the weights, the
    partition identity ``Sat^{+f}(k) = S(k+1) - D(k+1)`` turns the
    Shapley numerator ``Σ_k w_k (Sat^{+f}(k) - D(k))`` into ``Σ_k w_k
    S(k+1) - <c, D>`` with ``c_j = w_j + w_{j-1}``, and the Banzhaf one
    into ``Σ_k S(k+1) - <(1, 2, 2, ...), D>``.  Both inner products come
    out of one backward pass (:func:`repro.engine.bundles.pull_back`).
    """
    cotangents = (
        [w + before for w, before in zip(weights, (0, *weights))],
        [1] + [2] * (len(weights) - 1),
    )
    above = vectors.baseline[1:]
    shapley_base, banzhaf_base = sum(map(mul, weights, above)), sum(above)
    return {
        item: (shapley_base - shapley, banzhaf_base - banzhaf)
        for item, (shapley, banzhaf) in pull_back(vectors, cotangents).items()
    }


def result_from_vectors(vectors: BatchVectors, method: str) -> BatchResult:
    """Lemma 3.2 assembly: both measures from the per-fact numerators.

    Shapley and Banzhaf values are linear in the same deletion vectors
    — only the weights differ — so the convolution task of every plan
    always materializes both measures.  Each value is one integer
    numerator over its denominator, normalized to a ``Fraction`` once:
    bit-identical to summing the per-size ``Fraction`` terms, because
    ``Fraction`` canonicalizes.  The Shapley weights come over their
    least common denominator ``lcm(1..n)``
    (:func:`repro.util.kernels.reduced_shapley_weights`), which keeps
    every integer of the backward pass near ``1.44 n`` bits instead of
    ``log2 n!``.  Facts in isomorphic positions share their numerators,
    so each distinct numerator pair is normalized once and its
    (immutable) ``Fraction`` values are shared.
    """
    players = vectors.total_players
    shapley: dict[Fact, Fraction] = {item: Fraction(0) for item in vectors.zero_facts}
    banzhaf = dict(shapley)
    if vectors.root.live:
        weights, shapley_denominator = reduced_shapley_weights(players)
        banzhaf_denominator = 2 ** (players - 1)
        values: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        for item, pair in _numerators(vectors, weights).items():
            if pair not in values:
                values[pair] = (
                    Fraction(pair[0], shapley_denominator),
                    Fraction(pair[1], banzhaf_denominator),
                )
            shapley[item], banzhaf[item] = values[pair]
    return BatchResult(shapley, banzhaf, method, players)


__all__ = [
    "AnswerBatchResult",
    "AttributionEstimate",
    "BatchResult",
    "aggregate_spec",
    "AttributionView",
    "NO_FACTS",
    "fact_numerators",
    "fact_positions",
    "project_result",
    "publish_result",
    "rename_result",
    "result_from_state",
    "result_from_vectors",
]
