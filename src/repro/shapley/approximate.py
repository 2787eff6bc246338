"""Monte-Carlo approximation of the Shapley value (Section 5.1).

The additive FPRAS samples random permutations of the endogenous facts and
averages each fact's marginal contribution.  The estimators here run one
stream of the engine's sampler (:func:`repro.shapley.sampling.run_rounds`):
a round sweeps a shuffled permutation and its reversal, and gives every
fact a round mean in ``[-1, 1]`` (with negation a fact can flip the query
both ways).  Rounds are independent, so the Hoeffding bound gives

    ``n >= 2 * ln(2 / delta) / epsilon^2``

rounds for an ``epsilon``-additive estimate with confidence ``1 - delta``.

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

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import BooleanQuery
from repro.shapley.sampling import hoeffding_sample_count, run_rounds


@dataclass(frozen=True)
class ShapleyEstimate:
    """A sampled estimate with its additive guarantee.

    ``samples`` counts antithetic rounds, two permutation sweeps each.
    """

    value: Fraction
    samples: int
    epsilon: float
    delta: float

    def within(self, exact: Fraction) -> bool:
        """Is the exact value inside the additive ``epsilon`` window?"""
        return abs(self.value - exact) <= self.epsilon


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

    The target's entry of :func:`approximate_shapley_all`.  ``samples``
    overrides the Hoeffding-derived round count when given (useful for
    convergence studies); it must be positive.
    """
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    estimates = approximate_shapley_all(database, query, epsilon, delta, rng, samples)
    return estimates[target]


def approximate_shapley_all(
    database: Database,
    query: BooleanQuery,
    epsilon: float = 0.1,
    delta: float = 0.05,
    rng: random.Random | None = None,
    samples: int | None = None,
) -> dict[Fact, ShapleyEstimate]:
    """Additive estimates for *all* endogenous facts from shared permutations.

    Runs rounds ``0 .. n - 1`` of the engine sampler's stream named by
    a seed drawn from ``rng``, where ``n`` is ``samples`` (it must be
    positive) or the Hoeffding count.  Each fact's estimate is its
    integer total over the ``2n`` sweeps divided by ``2n``, and carries
    the usual per-fact additive ``(epsilon, delta)`` guarantee; the
    samples of different facts are correlated (they come from the same
    permutations), which does not affect the per-fact Hoeffding bound.
    """
    if samples is None:
        samples = hoeffding_sample_count(epsilon, delta)
    elif samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    seed = (rng or random.Random()).getrandbits(64)
    totals, _ = run_rounds(database, query, seed, 0, samples)
    return {
        player: ShapleyEstimate(Fraction(total, 2 * samples), samples, epsilon, delta)
        for player, total in totals.items()
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
