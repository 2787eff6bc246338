"""The seed CntSat: the standalone reference for the engine's exact path.

This is the per-fact implementation the library started from, kept as
an independent reference for tests and benchmarks.  The library itself
computes every exact value with the engine's forward/backward tape
(:mod:`repro.engine.bundles`); nothing under ``src/`` imports this
module.  It holds:

* :func:`count_satisfying_subsets` — the seed recursion behind the
  positive side of Theorem 3.1.  Given a database ``D`` and a
  hierarchical self-join-free CQ¬ ``q``, it computes the count vector

      ``c[k] = |Sat(D, q, k)| = #{E ⊆ Dn : |E| = k and Dx ∪ E ⊨ q}``

  for all ``k`` at once, following Livshits et al.'s CntSat with the
  paper's modified base case for negation (Lemma 3.2):

  1. **Restriction.** Facts that cannot match their atom's pattern
     (constant mismatch, repeated-variable mismatch) are *free*: they
     never influence satisfaction and contribute a binomial factor.
  2. **Independent components.** Variable-connected components of the
     query touch disjoint relations (self-join-freeness), hence disjoint
     fact sets; their count vectors combine by convolution (logical AND).
  3. **Root variable.** A connected component with variables has, by
     hierarchicality, a variable ``x`` occurring in every atom.  Slicing
     the facts by their ``x``-value yields independent subproblems, of
     which at least one must be satisfied (logical OR): UNSAT vectors
     convolve, and SAT = total - UNSAT.
  4. **Ground base case.** Positive endogenous facts are forced into
     ``E``, negative endogenous facts are forced out; a missing positive
     fact or an exogenous negative fact zeroes the vector.

* :func:`shapley_hierarchical` and :func:`shapley_value` — the seed
  per-fact front door: two count vectors per fact through
  :func:`repro.shapley.exact.shapley_from_counts`, with its own choice of
  CntSat, ExoShap or brute force (capped by ``|Dn|``, not by the
  relevance slice as the planner does);
* :func:`shapley_all_values_per_fact` — the seed fact-at-a-time loop
  that ``benchmarks/bench_engine.py`` measures the engine against.

All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Sequence

from repro.core.database import Database
from repro.core.errors import (
    IntractableQueryError,
    NotHierarchicalError,
    SelfJoinError,
)
from repro.core.facts import Constant, Fact
from repro.core.gaifman import infer_exogenous_relations
from repro.core.hierarchy import is_hierarchical
from repro.core.paths import has_non_hierarchical_path
from repro.core.query import Atom, BooleanQuery, ConjunctiveQuery, UnionQuery
from repro.shapley import count_satisfying_subsets as public_counter
from repro.shapley.brute_force import (
    MAX_BRUTE_FORCE_PLAYERS,
    shapley_all_brute_force,
    shapley_brute_force,
)
from repro.shapley.exact import shapley_from_counts
from repro.shapley.exoshap import rewrite_to_hierarchical
from repro.util.graphs import key_groups
from repro.util.kernels import binomial_row, convolve, convolve_many


@dataclass(frozen=True)
class _ScopedAtom:
    """An atom together with the facts still eligible to match it."""

    atom: Atom
    exogenous: frozenset[Fact]
    endogenous: frozenset[Fact]

    @property
    def endogenous_count(self) -> int:
        return len(self.endogenous)


def count_satisfying_subsets(
    database: Database, query: ConjunctiveQuery
) -> list[int]:
    """The vector ``[|Sat(D, q, 0)|, ..., |Sat(D, q, |Dn|)|]``.

    Raises :class:`SelfJoinError` / :class:`NotHierarchicalError` outside
    the tractable class of Theorem 3.1.
    """
    query = query.as_boolean()
    if not query.is_self_join_free:
        raise SelfJoinError(
            f"CntSat requires a self-join-free query, got {query!r}"
        )
    if not is_hierarchical(query):
        raise NotHierarchicalError(
            f"CntSat requires a hierarchical query, got {query!r}"
        )
    scope = [
        _ScopedAtom(
            atom,
            frozenset(
                item for item in database.relation(atom.relation)
                if database.is_exogenous(item)
            ),
            frozenset(
                item for item in database.relation(atom.relation)
                if database.is_endogenous(item)
            ),
        )
        for atom in query.atoms
    ]
    query_relations = query.relation_names
    unused = sum(
        1 for item in database.endogenous if item.relation not in query_relations
    )
    vector = convolve(_count(scope), binomial_row(unused))
    expected = len(database.endogenous) + 1
    assert len(vector) == expected, (len(vector), expected)
    return vector


def _count(scope: Sequence[_ScopedAtom]) -> list[int]:
    """Count vector over the endogenous facts owned by ``scope``."""
    free = 0
    restricted: list[_ScopedAtom] = []
    for scoped in scope:
        matching_exo = frozenset(
            item for item in scoped.exogenous if scoped.atom.matches(item)
        )
        matching_endo = frozenset(
            item for item in scoped.endogenous if scoped.atom.matches(item)
        )
        free += len(scoped.endogenous) - len(matching_endo)
        restricted.append(_ScopedAtom(scoped.atom, matching_exo, matching_endo))

    vectors = [
        _count_component(component) for component in _components(restricted)
    ]
    vectors.append(binomial_row(free))
    return convolve_many(vectors)


def _components(scope: Sequence[_ScopedAtom]) -> list[list[_ScopedAtom]]:
    """Group scoped atoms into variable-connected components."""
    groups = key_groups([scoped.atom.variables for scoped in scope])
    return [[scope[i] for i in group] for group in groups]


def _count_component(component: list[_ScopedAtom]) -> list[int]:
    """Count vector for one variable-connected component."""
    variables = frozenset(
        var for scoped in component for var in scoped.atom.variables
    )
    if not variables:
        return _count_ground(component)

    roots = None
    for scoped in component:
        atom_vars = scoped.atom.variables
        roots = atom_vars if roots is None else roots & atom_vars
    if not roots:
        # Cannot happen for hierarchical queries; kept as a guard so that a
        # future caller skipping the up-front check still fails loudly.
        raise NotHierarchicalError(
            "connected subquery without a root variable: "
            + ", ".join(repr(scoped.atom) for scoped in component)
        )
    root = min(roots, key=lambda var: var.name)

    slices: dict[Constant, list[_ScopedAtom]] = {}
    candidates: set[Constant] = set()
    positions: dict[int, int] = {}
    for index, scoped in enumerate(component):
        positions[index] = scoped.atom.terms.index(root)
        for item in scoped.exogenous | scoped.endogenous:
            candidates.add(item.args[positions[index]])

    total_endogenous = sum(scoped.endogenous_count for scoped in component)
    unsat_vectors: list[list[int]] = []
    for value in sorted(candidates, key=repr):
        slice_scope = []
        slice_endogenous = 0
        for index, scoped in enumerate(component):
            at = positions[index]
            exo = frozenset(
                item for item in scoped.exogenous if item.args[at] == value
            )
            endo = frozenset(
                item for item in scoped.endogenous if item.args[at] == value
            )
            slice_endogenous += len(endo)
            slice_scope.append(
                _ScopedAtom(scoped.atom.substitute({root: value}), exo, endo)
            )
        sat = _count(slice_scope)
        unsat_vectors.append(
            _subtract(binomial_row(slice_endogenous), sat)
        )
    all_unsat = convolve_many(unsat_vectors)
    return _subtract(binomial_row(total_endogenous), all_unsat)


def _subtract(left: list[int], right: list[int]) -> list[int]:
    """Element-wise ``left - right``, padding the shorter vector with zeros."""
    return [
        (left[k] if k < len(left) else 0) - (right[k] if k < len(right) else 0)
        for k in range(max(len(left), len(right)))
    ]


def _count_ground(component: list[_ScopedAtom]) -> list[int]:
    """Base case of Lemma 3.2: every atom in the component is ground."""
    owned = sum(scoped.endogenous_count for scoped in component)
    needed = 0
    satisfiable = True
    for scoped in component:
        ground = scoped.atom.to_fact()
        in_exogenous = ground in scoped.exogenous
        in_endogenous = ground in scoped.endogenous
        if not scoped.atom.negated:
            if in_exogenous:
                continue
            if in_endogenous:
                needed += 1
            else:
                satisfiable = False
        else:
            if in_exogenous:
                satisfiable = False
            # An endogenous fact of a ground negated atom must stay out of
            # E: it is owned but never selected.
    vector = [0] * (owned + 1)
    if satisfiable:
        vector[needed] = 1
    return vector


def shapley_hierarchical(
    database: Database, query: ConjunctiveQuery, target: Fact
) -> Fraction:
    """Seed Shapley for hierarchical self-join-free CQ¬: two count vectors."""
    return shapley_from_counts(database, query, target, count_satisfying_subsets)


def shapley_value(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> Fraction:
    """Seed per-fact dispatch: CntSat, then ExoShap, then bounded brute force."""
    if isinstance(query, UnionQuery):
        return _fallback(database, query, target, allow_brute_force)
    query = query.as_boolean()
    if exogenous_relations is None:
        exogenous_relations = infer_exogenous_relations(query, database)
    if query.is_self_join_free:
        if is_hierarchical(query):
            return shapley_hierarchical(database, query, target)
        if not has_non_hierarchical_path(query, exogenous_relations):
            if not database.is_endogenous(target):
                raise ValueError(
                    f"{target!r} is not an endogenous fact of the database"
                )
            rewrite = rewrite_to_hierarchical(database, query, exogenous_relations)
            return shapley_hierarchical(rewrite.database, rewrite.query, target)
    return _fallback(database, query, target, allow_brute_force)


def _fallback(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    allow_brute_force: bool,
) -> Fraction:
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return shapley_brute_force(database, query, target)
    raise IntractableQueryError(
        f"no polynomial exact algorithm applies and brute force over {size}"
        " endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large")
    )


def shapley_all_values_per_fact(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> dict[Fact, Fraction]:
    """The seed fact-at-a-time loop: one full dispatch per endogenous fact."""
    if isinstance(query, ConjunctiveQuery):
        boolean = query.as_boolean()
        if exogenous_relations is None:
            exogenous_relations = infer_exogenous_relations(boolean, database)
        tractable = boolean.is_self_join_free and (
            is_hierarchical(boolean)
            or not has_non_hierarchical_path(boolean, exogenous_relations)
        )
        if tractable:
            return {
                fact: shapley_value(database, boolean, fact, exogenous_relations)
                for fact in sorted(database.endogenous, key=repr)
            }
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return shapley_all_brute_force(database, query)
    raise IntractableQueryError(
        f"no polynomial exact algorithm applies and brute force over {size}"
        " endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large")
    )


#: The two counters of ``|Sat(D, q, k)|`` that tests hold against each
#: other and against enumeration: the public one (the engine's forward
#: pass) and the seed recursion above.
COUNTERS = (public_counter, count_satisfying_subsets)


def counts_from_both(database: Database, query: ConjunctiveQuery) -> list[int]:
    """The count vector from both :data:`COUNTERS`, which must agree."""
    public, seed = (counter(database, query) for counter in COUNTERS)
    assert public == seed, (query, public, seed)
    return public
