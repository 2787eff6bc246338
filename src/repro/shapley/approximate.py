"""Monte-Carlo approximation of the Shapley value (Section 5.1).

The additive FPRAS samples random permutations of the endogenous facts and
averages the marginal contribution of the target fact.  Each sample is a
random variable in ``{-1, 0, 1}`` (with negation a fact can flip the query
both ways), so the Hoeffding bound gives

    ``n >= 2 * ln(2 / delta) / epsilon^2``

samples for an ``epsilon``-additive estimate with confidence ``1 - delta``.

The module also exposes the *gap diagnostics* of Section 5: for CQs the
nonzero Shapley value is at least the reciprocal of a polynomial (which
upgrades the additive FPRAS to a multiplicative one); Theorem 5.1 shows any
natural CQ¬ breaks this, and :func:`multiplicative_sample_lower_bound`
quantifies how many samples the additive route would need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.core.database import Database
from repro.core.evaluation import PrefixEvaluator, holds
from repro.core.facts import Fact
from repro.core.query import BooleanQuery


@dataclass(frozen=True)
class ShapleyEstimate:
    """A sampled estimate with its additive guarantee."""

    value: Fraction
    samples: int
    epsilon: float
    delta: float

    def within(self, exact: Fraction) -> bool:
        """Is the exact value inside the additive ``epsilon`` window?"""
        return abs(self.value - exact) <= self.epsilon


def hoeffding_sample_count(epsilon: float, delta: float) -> int:
    """Samples sufficient for an additive (epsilon, delta) guarantee.

    Marginal contributions lie in ``[-1, 1]`` (range 2), so Hoeffding gives
    ``P(|mean - mu| >= eps) <= 2 exp(-n eps^2 / 2)``.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(2.0 / delta) / (epsilon * epsilon))


def sample_marginal_contributions(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    samples: int,
    rng: random.Random | None = None,
) -> Iterable[int]:
    """Marginal contributions of ``target`` in ``samples`` random permutations.

    Each draw shuffles ``Dn`` uniformly, takes the prefix before ``target``
    as the coalition ``sigma_f``, and yields
    ``q(Dx ∪ sigma_f ∪ {f}) - q(Dx ∪ sigma_f)`` in ``{-1, 0, 1}``.
    """
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    rng = rng or random.Random()
    others = sorted(database.endogenous - {target}, key=repr)
    exogenous = list(database.exogenous)
    for _ in range(samples):
        permutation = others[:]
        rng.shuffle(permutation)
        prefix_size = rng.randint(0, len(others))
        prefix = permutation[:prefix_size]
        without = 1 if holds(query, exogenous + prefix) else 0
        with_target = 1 if holds(query, exogenous + prefix + [target]) else 0
        yield with_target - without


def _sample_count(samples: int | None, epsilon: float, delta: float) -> int:
    """``samples`` when given (it must be positive), else the Hoeffding count."""
    if samples is None:
        return hoeffding_sample_count(epsilon, delta)
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    return samples


def approximate_shapley(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    epsilon: float = 0.1,
    delta: float = 0.05,
    rng: random.Random | None = None,
    samples: int | None = None,
) -> ShapleyEstimate:
    """Additive FPRAS estimate of ``Shapley(D, q, f)``.

    ``samples`` overrides the Hoeffding-derived count when given (useful
    for convergence studies); it must be positive.
    """
    count = _sample_count(samples, epsilon, delta)
    total = 0
    for marginal in sample_marginal_contributions(database, query, target, count, rng):
        total += marginal
    return ShapleyEstimate(Fraction(total, count), count, epsilon, delta)


def approximate_shapley_all(
    database: Database,
    query: BooleanQuery,
    epsilon: float = 0.1,
    delta: float = 0.05,
    rng: random.Random | None = None,
    samples: int | None = None,
) -> dict[Fact, ShapleyEstimate]:
    """Additive estimates for *all* endogenous facts from shared permutations.

    The fact-at-a-time estimator costs two query evaluations per sample
    per fact.  Here each sampled permutation of ``Dn`` is swept once,
    through the query's ``m + 1`` prefixes; the difference at position
    ``i`` is a valid marginal-contribution sample for the fact at that
    position — one permutation yields one sample for *every* fact.  A
    :class:`~repro.core.evaluation.PrefixEvaluator`, built once per
    call, credits the flips from the forward half of its interval pass
    (:meth:`~repro.core.evaluation.PrefixEvaluator.credit`): a round
    costs one pass over the witness table, shared by all facts, instead
    of ``2m`` query evaluations per fact.

    Each fact's estimate carries the usual per-fact additive
    ``(epsilon, delta)`` guarantee; the samples of different facts are
    correlated (they come from the same permutations), which does not
    affect the per-fact Hoeffding bound.
    """
    count = _sample_count(samples, epsilon, delta)
    rng = rng or random.Random()
    evaluator = PrefixEvaluator(query, database)
    totals = [0] * len(evaluator.players)
    for _ in range(count):
        # Shuffling ids draws the permutation the facts would get.
        permutation = list(range(len(totals)))
        rng.shuffle(permutation)
        evaluator.credit(permutation, totals, antithetic=False)
    return {
        player: ShapleyEstimate(Fraction(total, count), count, epsilon, delta)
        for player, total in zip(evaluator.players, totals)
    }


def multiplicative_sample_lower_bound(shapley_magnitude: Fraction) -> int:
    """Samples the additive estimator needs to *resolve* a value this small.

    To distinguish a Shapley value of magnitude ``s`` from zero, the
    additive error must drop below ``s``, i.e. ``epsilon < s``, requiring
    ``Omega(1 / s^2)`` samples.  On the Theorem 5.1 family ``s = 2^-Θ(n)``,
    so this is exponential — the quantitative content of "the gap property
    fails".
    """
    if shapley_magnitude <= 0:
        raise ValueError("the bound applies to nonzero magnitudes")
    return math.ceil(1 / float(shapley_magnitude) ** 2)


def gap_property_floor(database: Database) -> Fraction:
    """The 1/poly floor that the gap property would impose for positive CQs.

    For a CQ (no negation) the nonzero Shapley value is at least
    ``1 / (|Dn|! )``-ish; the usable polynomial bound from Livshits et al.
    is ``1 / |Dn|^2`` for facts participating in some minimal support.  We
    expose the weakest form sufficient for the comparison benches:
    ``1 / (|Dn| * (|Dn| + 1))``.
    """
    m = len(database.endogenous)
    if m == 0:
        raise ValueError("database has no endogenous facts")
    return Fraction(1, m * (m + 1))
