"""IsPosRelevant / IsNegRelevant (Algorithms 2 and 3, Proposition 5.7).

For a *polarity-consistent* CQ¬, relevance is decidable in polynomial
time.  Both algorithms scan the (polynomially many) homomorphisms of the
query's positive part into the database and test a canonical subset per
homomorphism ``h``:

* ``P`` — endogenous facts that are images of positive atoms under ``h``;
* ``N`` — endogenous facts that are images of negative atoms under ``h``;
* the canonical coalition adds *all* endogenous facts of negative-only
  relations except ``N`` (they can only help violate the query), which is
  sound precisely because the query is polarity consistent.

The scan reads the query's witness table
(:class:`repro.core.evaluation.PrefixEvaluator`, the sampler's table):
one ``(P, N)`` pair per homomorphism, without those whose negative
image has an exogenous fact (they can never hold) or meets ``P`` (which
a polarity-consistent query cannot produce).

The argument lifts to a UCQ¬ that is polarity consistent *as a whole*
(every relation occurs only positively or only negatively across all
disjuncts): the table holds the homomorphisms of every disjunct, and the
satisfaction checks run against the whole union.  Per-disjunct polarity
consistency is **not** enough — the paper proves relevance for the UCQ¬
``qSAT`` NP-complete (:mod:`repro.reductions.sat_to_relevance`).

Since for polarity-consistent relations relevance coincides with nonzero
Shapley value, this also decides "is ``Shapley(D, q, f) = 0``" in
polynomial time.
"""

from __future__ import annotations

from repro.core.database import Database
from repro.core.errors import ReproError
from repro.core.evaluation import PrefixEvaluator, holds
from repro.core.facts import Fact
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.relevance.polarity import negative_endogenous_facts


class PolarityError(ReproError):
    """Algorithms 2/3 require a polarity-consistent query."""


def _flips(
    database: Database, query: BooleanQuery, target: Fact, positive: bool
) -> bool:
    """Algorithm 2 (``positive``) or 3: does a canonical coalition flip?

    Algorithm 2 tries each witness whose positive image ``P`` holds
    ``target`` with the coalition ``(P - {f}) | (Negq(Dn) - N)``;
    Algorithm 3 tries the others with ``P | (Negq(Dn) - N) | {f}``.
    Either answers yes when ``q`` fails on ``Dx`` plus a coalition.
    """
    if isinstance(query, ConjunctiveQuery):
        query = query.as_boolean()
    if not query.is_polarity_consistent:
        mixed = sorted(
            name for name in query.relation_names if query.polarity(name) == "both"
        )
        raise PolarityError(
            f"Algorithms 2/3 require a polarity-consistent query; relations"
            f" {mixed} occur both positively and negatively"
        )
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    negq = negative_endogenous_facts(query, database)
    exogenous = list(database.exogenous)
    evaluator = PrefixEvaluator(query, database)
    players = evaluator.players
    for positive_ids, negative_ids in evaluator.witnesses:
        p = {players[i] for i in positive_ids}
        if (target in p) != positive:
            continue
        kept = negq.difference(players[i] for i in negative_ids)
        if positive:
            coalition = (p - {target}) | kept
        else:
            coalition = p | kept | {target}
        if not holds(query, exogenous + list(coalition)):
            return True
    return False


def is_positively_relevant(
    database: Database, query: BooleanQuery, target: Fact
) -> bool:
    """Algorithm 2: can adding ``target`` flip the query false → true?"""
    return _flips(database, query, target, positive=True)


def is_negatively_relevant(
    database: Database, query: BooleanQuery, target: Fact
) -> bool:
    """Algorithm 3: can adding ``target`` flip the query true → false?"""
    return _flips(database, query, target, positive=False)


def is_relevant(database: Database, query: BooleanQuery, target: Fact) -> bool:
    """Definition 5.2 for polarity-consistent CQ¬s and UCQ¬s, in polynomial time."""
    return is_positively_relevant(database, query, target) or is_negatively_relevant(
        database, query, target
    )


def is_shapley_zero(database: Database, query: BooleanQuery, target: Fact) -> bool:
    """Decide ``Shapley(D, q, f) = 0`` via relevance (Proposition 5.7).

    Valid because in a polarity-consistent query every fact is polarity
    consistent, so relevance coincides with nonzero Shapley value.
    """
    return not is_relevant(database, query, target)
