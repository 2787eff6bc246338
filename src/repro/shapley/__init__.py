"""Shapley value computation: exact (polynomial and brute force) and approximate."""

from repro.shapley.answers import (
    answer_attribution,
    answers_attribution,
    ground_at_answer,
    head_assignment,
    shapley_for_answer,
)
from repro.shapley.model_counting import model_count, satisfaction_probability
from repro.shapley.aggregates import (
    aggregate_attribution,
    candidate_answers,
    shapley_aggregate,
    shapley_count,
    shapley_sum,
)
from repro.shapley.approximate import (
    ShapleyEstimate,
    approximate_shapley,
    approximate_shapley_all,
    gap_property_floor,
    multiplicative_sample_lower_bound,
)
from repro.shapley.banzhaf import (
    banzhaf_all_brute_force,
    banzhaf_all_values,
    banzhaf_brute_force,
    banzhaf_from_counts,
)
from repro.shapley.banzhaf import banzhaf_value as banzhaf_fact_value
from repro.shapley.brute_force import (
    MAX_BRUTE_FORCE_PLAYERS,
    query_game,
    satisfying_subset_counts,
    shapley_all_brute_force,
    shapley_brute_force,
)
from repro.shapley.exact import (
    count_satisfying_subsets,
    shapley_all_values,
    shapley_from_counts,
    shapley_hierarchical,
    shapley_value,
)
from repro.shapley.exoshap import ExoShapRewrite, exo_shapley, rewrite_to_hierarchical
from repro.shapley.sampling import (
    SampleState,
    achieved_epsilon,
    extend_state,
    hoeffding_sample_count,
    merge_totals,
    round_rng,
    rounds_for_contract,
    run_rounds,
    sample_seed,
)
from repro.shapley.stratified import (
    StratifiedEstimate,
    stratified_shapley_estimate,
)
from repro.shapley.games import (
    banzhaf_value,
    efficiency_gap,
    permutation_marginals,
    shapley_all,
    shapley_by_permutations,
    shapley_by_subsets,
)

__all__ = [
    "ExoShapRewrite",
    "MAX_BRUTE_FORCE_PLAYERS",
    "SampleState",
    "ShapleyEstimate",
    "StratifiedEstimate",
    "achieved_epsilon",
    "aggregate_attribution",
    "answer_attribution",
    "answers_attribution",
    "approximate_shapley",
    "approximate_shapley_all",
    "banzhaf_all_brute_force",
    "banzhaf_all_values",
    "banzhaf_brute_force",
    "banzhaf_fact_value",
    "banzhaf_from_counts",
    "banzhaf_value",
    "candidate_answers",
    "count_satisfying_subsets",
    "efficiency_gap",
    "exo_shapley",
    "extend_state",
    "gap_property_floor",
    "ground_at_answer",
    "head_assignment",
    "hoeffding_sample_count",
    "merge_totals",
    "model_count",
    "multiplicative_sample_lower_bound",
    "permutation_marginals",
    "query_game",
    "rewrite_to_hierarchical",
    "round_rng",
    "rounds_for_contract",
    "run_rounds",
    "sample_seed",
    "satisfaction_probability",
    "satisfying_subset_counts",
    "shapley_aggregate",
    "shapley_all",
    "shapley_all_brute_force",
    "shapley_all_values",
    "shapley_brute_force",
    "shapley_by_permutations",
    "shapley_by_subsets",
    "shapley_count",
    "shapley_for_answer",
    "shapley_from_counts",
    "shapley_hierarchical",
    "shapley_sum",
    "shapley_value",
    "stratified_shapley_estimate",
]
