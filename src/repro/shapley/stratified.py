"""Stratified sampling: an additive estimator with a per-size budget.

A uniform permutation puts the target after a uniform number ``k`` of
other facts, which form a uniform ``k``-subset — one stratum per draw.
Since the Shapley value is the *average over sizes* of per-size
expected marginals,

    ``Shapley = (1/m) Σ_k E[marginal | |E| = k]``,

we can instead allocate a fixed budget to every stratum and average the
per-stratum means.  Against plain permutation draws, stratification
never increases variance and helps precisely when pivotality
concentrates on few coalition sizes — e.g. the Theorem 5.1 gap family,
where the single pivotal configuration lives at
``k = n``.  (It cannot repair the exponential *magnitude* of the gap —
nothing can, that is Theorem 5.1's point — but it squeezes real variance
out of moderate instances, which the E7 benchmark quantifies.)

The stratum estimate is exact (variance zero) when a stratum is
deterministic, and the Hoeffding bound applies stratum-wise, giving the
same additive guarantee from the same total budget.

The engine's sampler (:mod:`repro.shapley.sampling`) does not use
this allocation: its rounds are antithetic permutation pairs, which
already mirror the sizes.  This estimator stays beside it because the
allocation wins on some inputs; the E7 ablation compares the two at
equal samples per target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from repro.core.database import Database
from repro.core.evaluation import holds
from repro.core.facts import Fact
from repro.core.query import BooleanQuery


@dataclass(frozen=True)
class StratifiedEstimate:
    """Per-size stratum means and the combined Shapley estimate."""

    value: Fraction
    samples_per_stratum: int
    stratum_means: tuple[Fraction, ...]

    @property
    def total_samples(self) -> int:
        return self.samples_per_stratum * len(self.stratum_means)


def stratified_shapley_estimate(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    samples_per_stratum: int,
    rng: random.Random | None = None,
) -> StratifiedEstimate:
    """Estimate ``Shapley(D, q, f)`` with equal budget per coalition size.

    For each ``k`` in ``0 .. m-1`` the estimator draws
    ``samples_per_stratum`` uniform ``k``-subsets of ``Dn \\ {f}`` and
    averages the marginal contribution of ``f``; the final value is the
    unweighted mean over strata (sizes are equiprobable under a uniform
    permutation).
    """
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    if samples_per_stratum < 1:
        raise ValueError("samples_per_stratum must be positive")
    rng = rng or random.Random()
    others = sorted(database.endogenous - {target}, key=repr)
    exogenous = list(database.exogenous)
    m = len(others) + 1

    means = []
    for size in range(m):
        total = 0
        for _ in range(samples_per_stratum):
            prefix = rng.sample(others, size) if size else []
            without = 1 if holds(query, exogenous + prefix) else 0
            with_target = 1 if holds(query, exogenous + prefix + [target]) else 0
            total += with_target - without
        means.append(Fraction(total, samples_per_stratum))
    value = sum(means, Fraction(0)) / m
    return StratifiedEstimate(value, samples_per_stratum, tuple(means))

