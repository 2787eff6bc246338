"""repro — Shapley values for conjunctive queries with negation.

A full reproduction of *"The Impact of Negation on the Complexity of the
Shapley Value in Conjunctive Queries"* (Reshef, Kimelfeld & Livshits,
PODS 2020): exact and approximate Shapley computation over databases with
endogenous/exogenous facts, the Theorem 3.1 / 4.3 dichotomies and their
algorithms (CntSat, ExoShap), relevance deciders, the paper's hardness
gadgets, and a tuple-independent probabilistic-database engine.

Quickstart::

    from repro import Database, fact, parse_query, shapley_value

    db = Database(
        endogenous=[fact("Reg", "ann", "db")],
        exogenous=[fact("Stud", "ann")],
    )
    q = parse_query("q() :- Stud(x), Reg(x, y)")
    print(shapley_value(db, q, fact("Reg", "ann", "db")))  # 1
"""

from repro.core import (
    Atom,
    Classification,
    Complexity,
    ConjunctiveQuery,
    Database,
    Fact,
    UnionQuery,
    Variable,
    classify,
    fact,
    has_non_hierarchical_path,
    holds,
    is_hierarchical,
    parse_query,
    parse_ucq,
)
from repro.engine import (
    AnswerBatchResult,
    AttributionEstimate,
    BatchAttributionEngine,
    BatchResult,
    MethodPolicy,
    SerialExecutor,
    ShardedExecutor,
    default_engine,
    reset_default_engine,
    resolve_policy,
)
from repro.server import AttributionClient, AttributionDaemon
from repro.shapley import (
    aggregate_attribution,
    answer_attribution,
    answers_attribution,
    approximate_shapley,
    banzhaf_all_values,
    count_satisfying_subsets,
    exo_shapley,
    shapley_aggregate,
    shapley_all_values,
    shapley_brute_force,
    shapley_count,
    shapley_for_answer,
    shapley_hierarchical,
    shapley_sum,
    shapley_value,
)

__version__ = "1.1.0"

__all__ = [
    "AnswerBatchResult",
    "Atom",
    "AttributionClient",
    "AttributionDaemon",
    "AttributionEstimate",
    "BatchAttributionEngine",
    "BatchResult",
    "Classification",
    "Complexity",
    "ConjunctiveQuery",
    "Database",
    "Fact",
    "MethodPolicy",
    "SerialExecutor",
    "ShardedExecutor",
    "UnionQuery",
    "Variable",
    "__version__",
    "aggregate_attribution",
    "answer_attribution",
    "answers_attribution",
    "approximate_shapley",
    "banzhaf_all_values",
    "classify",
    "count_satisfying_subsets",
    "default_engine",
    "exo_shapley",
    "fact",
    "has_non_hierarchical_path",
    "holds",
    "is_hierarchical",
    "parse_query",
    "parse_ucq",
    "reset_default_engine",
    "resolve_policy",
    "shapley_aggregate",
    "shapley_all_values",
    "shapley_brute_force",
    "shapley_count",
    "shapley_for_answer",
    "shapley_hierarchical",
    "shapley_sum",
    "shapley_value",
]
