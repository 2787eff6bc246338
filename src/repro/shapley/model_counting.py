"""Model counting for queries (the Section 6 connection).

The paper's concluding remarks link the (open) treatment of *endogenous
relations* to model counting for self-join-free CQs, resolved by
Amarilli & Kimelfeld: counting the subsets of the database that satisfy
a query.  The CntSat machinery computes exactly this as a by-product —
the count vector summed over all sizes — so the library exposes it:

    ``model_count(D, q) = #{E ⊆ Dn : Dx ∪ E ⊨ q}``

polynomial for hierarchical self-join-free CQ¬s, with a brute-force
fallback and a uniform-subset satisfaction probability convenience.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.database import Database
from repro.core.errors import IntractableQueryError, NotHierarchicalError, SelfJoinError
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.shapley.brute_force import MAX_BRUTE_FORCE_PLAYERS, satisfying_subset_counts
from repro.shapley.exact import count_satisfying_subsets


def model_count(
    database: Database,
    query: BooleanQuery,
    allow_brute_force: bool = True,
) -> int:
    """Number of endogenous subsets satisfying the query (with ``Dx``)."""
    if isinstance(query, ConjunctiveQuery):
        try:
            return sum(count_satisfying_subsets(database, query))
        except (NotHierarchicalError, SelfJoinError):
            pass
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return sum(satisfying_subset_counts(database, query))
    raise IntractableQueryError(
        f"model counting outside the hierarchical class with {size}"
        " endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large for enumeration")
    )


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
