"""Relevance of facts to queries (Definition 5.2) and its deciders.

Algorithms 2/3 (:mod:`repro.relevance.algorithms`) decide relevance in
polynomial time for polarity-consistent CQ¬s and for UCQ¬s that are
polarity consistent as a whole; the brute-force oracle enumerates
subsets and accepts any Boolean query.
"""

from repro.relevance.algorithms import (
    PolarityError,
    is_negatively_relevant,
    is_positively_relevant,
    is_relevant,
    is_shapley_zero,
)
from repro.relevance.brute_force import (
    RelevanceWitness,
    find_relevance_witness,
    is_negatively_relevant_brute_force,
    is_positively_relevant_brute_force,
    is_relevant_brute_force,
)
from repro.relevance.polarity import (
    fact_is_polarity_consistent,
    is_polarity_consistent,
    negative_endogenous_facts,
    negative_relation_names,
    polarity,
    zero_shapley_iff_irrelevant,
)

__all__ = [
    "PolarityError",
    "RelevanceWitness",
    "fact_is_polarity_consistent",
    "find_relevance_witness",
    "is_negatively_relevant",
    "is_negatively_relevant_brute_force",
    "is_polarity_consistent",
    "is_positively_relevant",
    "is_positively_relevant_brute_force",
    "is_relevant",
    "is_relevant_brute_force",
    "is_shapley_zero",
    "negative_endogenous_facts",
    "negative_relation_names",
    "polarity",
    "zero_shapley_iff_irrelevant",
]
