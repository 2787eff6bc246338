"""Core relational substrate: facts, databases, queries, evaluation, structure."""

from repro.core.classify import Classification, Complexity, classify
from repro.core.database import Database
from repro.core.errors import (
    IntractableQueryError,
    NotHierarchicalError,
    QuerySyntaxError,
    ReproError,
    SchemaError,
    SelfJoinError,
    UnsafeNegationError,
)
from repro.core.evaluation import (
    FactIndex,
    answer_facts,
    answers,
    evaluate_boolean,
    find_homomorphisms,
    holds,
)
from repro.core.facts import Constant, Fact, fact
from repro.core.gaifman import (
    exogenous_atom_graph,
    exogenous_atoms,
    exogenous_components,
    exogenous_variables,
    gaifman_graph,
    infer_exogenous_relations,
    is_positively_connected,
    non_exogenous_atoms,
    positive_gaifman_graph,
)
from repro.core.hierarchy import (
    NonHierarchicalTriplet,
    connected_atom_components,
    find_non_hierarchical_triplet,
    is_hierarchical,
    non_hierarchical_triplets,
    root_variables,
    subquery,
    variable_atom_map,
)
from repro.core.parser import parse_query, parse_ucq
from repro.core.paths import (
    NonHierarchicalPath,
    find_non_hierarchical_path,
    has_non_hierarchical_path,
)
from repro.core.query import (
    Atom,
    BooleanQuery,
    ConjunctiveQuery,
    Term,
    UnionQuery,
    Variable,
)

__all__ = [
    "Atom",
    "BooleanQuery",
    "Classification",
    "Complexity",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "Fact",
    "FactIndex",
    "IntractableQueryError",
    "NonHierarchicalPath",
    "NonHierarchicalTriplet",
    "NotHierarchicalError",
    "QuerySyntaxError",
    "ReproError",
    "SchemaError",
    "SelfJoinError",
    "Term",
    "UnionQuery",
    "UnsafeNegationError",
    "Variable",
    "answer_facts",
    "answers",
    "classify",
    "connected_atom_components",
    "evaluate_boolean",
    "exogenous_atom_graph",
    "exogenous_atoms",
    "exogenous_components",
    "exogenous_variables",
    "fact",
    "find_homomorphisms",
    "find_non_hierarchical_path",
    "find_non_hierarchical_triplet",
    "gaifman_graph",
    "has_non_hierarchical_path",
    "holds",
    "infer_exogenous_relations",
    "is_hierarchical",
    "is_positively_connected",
    "non_exogenous_atoms",
    "non_hierarchical_triplets",
    "parse_query",
    "parse_ucq",
    "positive_gaifman_graph",
    "root_variables",
    "subquery",
    "variable_atom_map",
]
