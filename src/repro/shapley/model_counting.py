"""Model counting for queries (the Section 6 connection).

The paper's concluding remarks link the (open) treatment of *endogenous
relations* to model counting for self-join-free CQs, resolved by
Amarilli & Kimelfeld: counting the subsets of the database that satisfy
a query.  The CntSat machinery computes exactly this as a by-product —
the count vector summed over all sizes — so the library exposes it:

    ``model_count(D, q) = #{E ⊆ Dn : Dx ∪ E ⊨ q}``

The engine's planner (:func:`repro.engine.plan.dispatch`) chooses the
method on the query's relevance slice, as it does for the exact
Shapley values: the CntSat forward pass for hierarchical self-join-free
CQ¬s (Theorem 3.1), the same pass after the ExoShap rewrite when the
exogenous relations remove every non-hierarchical path (Theorem 4.3),
and otherwise, with ``allow_brute_force``, enumeration of the slice's
subsets.  Every endogenous fact outside the slice doubles the count.
A uniform-subset satisfaction probability is the convenience on top.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.query import BooleanQuery
from repro.shapley.brute_force import satisfying_subset_counts


def model_count(
    database: Database,
    query: BooleanQuery,
    allow_brute_force: bool = True,
) -> int:
    """Number of endogenous subsets satisfying the query (with ``Dx``).

    Raises :class:`IntractableQueryError` when no polynomial algorithm
    applies and ``allow_brute_force`` is off, or the relevance slice is
    over the brute-force cap.
    """
    from repro.engine.bundles import batch_count_vectors
    from repro.engine.fingerprint import FactIndex, relevant_facts
    from repro.engine.plan import dispatch
    from repro.engine.policy import MethodPolicy

    endogenous, exogenous = relevant_facts(database, query)
    sliced = Database(endogenous=endogenous, exogenous=exogenous)
    endogenous_relations = database.derived(FactIndex).endogenous_relations
    try:
        method, count_database, count_query = dispatch(
            sliced, query, None, MethodPolicy("exact"), endogenous_relations
        )
    except IntractableQueryError:
        if not allow_brute_force:
            raise
        method, count_database, count_query = dispatch(
            sliced, query, None, MethodPolicy("brute-force"), endogenous_relations
        )
    if method == "brute-force":
        counts = satisfying_subset_counts(count_database, count_query)
    else:
        counts = batch_count_vectors(count_database, count_query).baseline
    return sum(counts) << (len(database.endogenous) - len(endogenous))


def satisfaction_probability(
    database: Database,
    query: BooleanQuery,
    allow_brute_force: bool = True,
) -> Fraction:
    """Probability that a uniform random endogenous subset satisfies ``q``.

    Equals the tuple-independent probability at ``p = 1/2`` for every
    endogenous fact — the semantics under which the causal effect is
    defined — and therefore cross-checks the lifted engine.
    """
    m = len(database.endogenous)
    return Fraction(model_count(database, query, allow_brute_force), 2**m)
