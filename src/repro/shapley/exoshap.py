"""ExoShap (Algorithm 1): Shapley values with exogenous relations.

For a self-join-free CQ¬ without a *non-hierarchical path* w.r.t. the set
``X`` of exogenous relations, Theorem 4.3 gives a polynomial-time
algorithm.  The algorithm rewrites the instance in three steps, each
preserving every Shapley value, until the query is hierarchical:

1. **Complement** (Lemma C.3): each negated exogenous atom ``¬R(t)`` is
   replaced by a positive atom over the complement relation ``R̄`` taken
   over the active domain (plus the query's constants).
2. **Join** (Lemma 4.6): each connected component of the exogenous atom
   graph ``gx(q)`` is collapsed into a single exogenous atom whose relation
   materializes the join of the component's relations.
3. **Pad** (Lemma 4.8): exogenous variables are projected away and each
   exogenous atom is widened to the variables of a non-exogenous atom that
   covers it (Lemma 4.4), padding the relation with a Cartesian product
   over the active domain.

The resulting query is hierarchical and self-join-free, so the CntSat
pipeline finishes the job.  The engine's planner runs the rewrite once
per request (:mod:`repro.engine.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import AbstractSet

from repro.core.database import Database
from repro.core.errors import NotHierarchicalError, SelfJoinError
from repro.core.evaluation import answers
from repro.core.facts import Fact
from repro.core.gaifman import (
    exogenous_components,
    exogenous_variables,
    non_exogenous_atoms,
)
from repro.core.hierarchy import is_hierarchical
from repro.core.paths import find_non_hierarchical_path
from repro.core.query import Atom, ConjunctiveQuery, Variable


@dataclass(frozen=True)
class ExoShapRewrite:
    """Result of the Algorithm 1 rewriting: equivalent hierarchical instance."""

    database: Database
    query: ConjunctiveQuery
    exogenous_relations: frozenset[str]


def _fresh_relation(base: str, taken: set[str]) -> str:
    """A relation name not colliding with existing ones."""
    candidate = base
    suffix = 1
    while candidate in taken:
        candidate = f"{base}_{suffix}"
        suffix += 1
    taken.add(candidate)
    return candidate


def _ordered_variables(atoms: tuple[Atom, ...]) -> list[Variable]:
    """Variables of ``atoms`` in first-occurrence order (deterministic heads)."""
    seen: list[Variable] = []
    for atom in atoms:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
    return seen


def check_declared_exogenous(
    database: Database, exogenous_relations: AbstractSet[str]
) -> None:
    """Raise ``ValueError`` when a declared exogenous relation has endogenous facts."""
    for name in exogenous_relations:
        if name in database.relation_names and not database.relation_is_exogenous(name):
            raise ValueError(
                f"relation {name} is declared exogenous but contains endogenous facts"
            )


def rewrite_to_hierarchical(
    database: Database,
    query: ConjunctiveQuery,
    exogenous_relations: AbstractSet[str],
) -> ExoShapRewrite:
    """Apply the three Shapley-preserving steps of Algorithm 1.

    Raises :class:`NotHierarchicalError` when the query has a
    non-hierarchical path w.r.t. ``X`` (the FP^#P-hard side of
    Theorem 4.3), and :class:`SelfJoinError` for self-joins.
    """
    query = query.as_boolean()
    if not query.is_self_join_free:
        raise SelfJoinError(f"ExoShap requires a self-join-free query, got {query!r}")
    path = find_non_hierarchical_path(query, exogenous_relations)
    if path is not None:
        raise NotHierarchicalError(
            f"query has a non-hierarchical path w.r.t. X={sorted(exogenous_relations)}:"
            f" {path!r} (FP^#P-complete by Theorem 4.3)"
        )
    check_declared_exogenous(database, exogenous_relations)

    db = database.copy()
    taken = set(db.relation_names) | query.relation_names
    exo: set[str] = set(exogenous_relations) & query.relation_names
    # The query's own constants join Dom(D): a complement ¬R(x, c) must
    # admit the constant c even when no fact of D mentions it.
    constants = {value for atom in query.atoms for value in atom.constants}
    domain = sorted(db.active_domain() | constants, key=repr)

    query, exo = _complement_negated_exogenous(db, query, exo, taken, domain)
    query, exo = _join_exogenous_components(db, query, exo, taken)
    query, exo = _pad_exogenous_atoms(db, query, exo, taken, domain)

    if not is_hierarchical(query):
        raise AssertionError(
            f"ExoShap rewriting failed to produce a hierarchical query: {query!r}"
        )
    return ExoShapRewrite(db, query, frozenset(exo))


def _complement_negated_exogenous(
    db: Database,
    query: ConjunctiveQuery,
    exo: set[str],
    taken: set[str],
    domain: list,
) -> tuple[ConjunctiveQuery, set[str]]:
    """Step 1: replace each negated exogenous atom by its complement relation."""
    new_atoms: list[Atom] = []
    new_exo = set(exo)
    for atom in query.atoms:
        if atom.negated and atom.relation in exo:
            fresh = _fresh_relation(f"{atom.relation}_comp", taken)
            for item in db.complement_relation(atom.relation, atom.arity, domain):
                db.add_exogenous(Fact(fresh, item.args))
            new_atoms.append(Atom(fresh, atom.terms, negated=False))
            new_exo.discard(atom.relation)
            new_exo.add(fresh)
        else:
            new_atoms.append(atom)
    return query.with_atoms(new_atoms), new_exo


def _join_exogenous_components(
    db: Database,
    query: ConjunctiveQuery,
    exo: set[str],
    taken: set[str],
) -> tuple[ConjunctiveQuery, set[str]]:
    """Step 2: collapse each connected component of gx(q) into one joined atom."""
    components = exogenous_components(query, exo)
    replaced: dict[int, Atom | None] = {}
    new_exo = set(exo)
    for component in components:
        if len(component) == 1:
            continue
        atoms = tuple(query.atoms[i] for i in component)
        head = _ordered_variables(atoms)
        fresh = _fresh_relation("_".join(atom.relation for atom in atoms), taken)
        join_query = ConjunctiveQuery(atoms, head=tuple(head), name="qC")
        for row in answers(join_query, db.facts):
            db.add_exogenous(Fact(fresh, row))
        joined_atom = Atom(fresh, tuple(head), negated=False)
        replaced[component[0]] = joined_atom
        for index in component[1:]:
            replaced[index] = None
        for atom in atoms:
            new_exo.discard(atom.relation)
        new_exo.add(fresh)
    if not replaced:
        return query, new_exo
    new_atoms: list[Atom] = []
    for index, atom in enumerate(query.atoms):
        if index in replaced:
            if replaced[index] is not None:
                new_atoms.append(replaced[index])
        else:
            new_atoms.append(atom)
    return query.with_atoms(new_atoms), new_exo


def _pad_exogenous_atoms(
    db: Database,
    query: ConjunctiveQuery,
    exo: set[str],
    taken: set[str],
    domain: list,
) -> tuple[ConjunctiveQuery, set[str]]:
    """Step 3: drop exogenous variables and widen to a covering atom's variables."""
    exo_vars = exogenous_variables(query, exo)
    non_exo_atoms = non_exogenous_atoms(query, exo)
    new_atoms: list[Atom] = []
    new_exo = set(exo)
    for atom in query.atoms:
        if atom.relation not in exo:
            new_atoms.append(atom)
            continue
        kept = [
            term
            for term in _ordered_variables((atom,))
            if term not in exo_vars
        ]
        # With every atom exogenous, the guards stay zero-ary: there is
        # no atom to widen them to, and they share no variable.
        cover_vars = (
            _ordered_variables((_find_cover(kept, non_exo_atoms, atom),))
            if non_exo_atoms
            else []
        )
        missing = [var for var in cover_vars if var not in kept]
        fresh = _fresh_relation(f"{atom.relation}_pad", taken)
        positive_atom = Atom(atom.relation, atom.terms, negated=False)
        if kept:
            projection_query = ConjunctiveQuery(
                (positive_atom,), head=tuple(kept), name="proj"
            )
            projected = answers(projection_query, db.facts)
        else:
            # The atom shares no variable with the rest of the query: it is
            # a Boolean guard.  Its projection is the zero-ary relation
            # {()} when satisfiable and {} otherwise.
            from repro.core.evaluation import holds

            guard = ConjunctiveQuery((positive_atom,), name="guard")
            projected = frozenset({()}) if holds(guard, db.facts) else frozenset()
        for row in projected:
            for padding in product(domain, repeat=len(missing)):
                db.add_exogenous(Fact(fresh, row + padding))
        new_atoms.append(Atom(fresh, tuple(kept) + tuple(missing), negated=False))
        new_exo.discard(atom.relation)
        new_exo.add(fresh)
    return query.with_atoms(new_atoms), new_exo


def _find_cover(
    kept: list[Variable],
    non_exo_atoms: tuple[Atom, ...],
    atom: Atom,
) -> Atom:
    """A non-exogenous atom whose variables cover ``kept`` (Lemma 4.4)."""
    for candidate in non_exo_atoms:
        if set(kept) <= candidate.variables:
            return candidate
    raise AssertionError(
        f"no covering atom for exogenous atom {atom!r}; this contradicts"
        " Lemma 4.4 for queries without a non-hierarchical path"
    )


def exo_shapley(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
) -> Fraction:
    """``Shapley(D, q, f)`` for a query without a non-hierarchical path.

    ``exogenous_relations`` defaults to the relations of ``q`` that contain
    only exogenous facts in ``D``; an explicit ``X`` naming a relation
    with endogenous facts raises ``ValueError``.  The value comes from the
    engine under the ``exact`` policy, whose planner runs this module's
    rewrite; a query with a self-join or a non-hierarchical path w.r.t.
    ``X`` raises :class:`IntractableQueryError`.
    """
    from repro.shapley.exact import shapley_value

    if exogenous_relations is not None:
        check_declared_exogenous(database, exogenous_relations)
    return shapley_value(
        database, query, target, exogenous_relations, allow_brute_force=False
    )
