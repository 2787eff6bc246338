"""Hierarchical structure of CQ¬s (Section 2 of the paper).

A query is *hierarchical* if for every two variables ``x`` and ``y`` the
atom sets ``Ax`` and ``Ay`` (atoms containing the variable) are nested or
disjoint.  Non-hierarchical queries contain a *non-hierarchical triplet*
``(αx, αxy, αy)``: ``x`` occurs in ``αx`` but not ``αy``, ``y`` occurs in
``αy`` but not ``αx``, and both occur in ``αxy``.

This module also provides the pieces the CntSat recursion needs:
*root variables* (occurring in every atom of a connected query) and the
partition of a query into variable-connected components.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.query import Atom, ConjunctiveQuery, Variable
from repro.util.graphs import key_groups


def variable_atom_map(query: ConjunctiveQuery) -> dict[Variable, frozenset[int]]:
    """For each variable, the set of atom indices in which it occurs (``Ax``)."""
    mapping: dict[Variable, set[int]] = {var: set() for var in query.variables}
    for index, atom in enumerate(query.atoms):
        for var in atom.variables:
            mapping[var].add(index)
    return {var: frozenset(indices) for var, indices in mapping.items()}


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """Is the query hierarchical? (``Ax ⊆ Ay``, ``Ay ⊆ Ax`` or disjoint, all pairs)"""
    atom_map = variable_atom_map(query)
    for x, y in combinations(atom_map, 2):
        ax, ay = atom_map[x], atom_map[y]
        if not (ax <= ay or ay <= ax or not (ax & ay)):
            return False
    return True


@dataclass(frozen=True)
class NonHierarchicalTriplet:
    """Witness of non-hierarchicality: atoms ``αx, αxy, αy`` and variables ``x, y``."""

    atom_x: Atom
    atom_xy: Atom
    atom_y: Atom
    x: Variable
    y: Variable

    def __repr__(self) -> str:
        return (
            f"NonHierarchicalTriplet(x={self.x!r}, y={self.y!r}, "
            f"αx={self.atom_x!r}, αxy={self.atom_xy!r}, αy={self.atom_y!r})"
        )


def non_hierarchical_triplets(query: ConjunctiveQuery) -> list[NonHierarchicalTriplet]:
    """All non-hierarchical triplets of ``q`` (empty iff ``q`` is hierarchical)."""
    atom_map = variable_atom_map(query)
    result = []
    for x, y in combinations(atom_map, 2):
        ax, ay = atom_map[x], atom_map[y]
        only_x = ax - ay
        only_y = ay - ax
        both = ax & ay
        if only_x and only_y and both:
            for ix in sorted(only_x):
                for iy in sorted(only_y):
                    for ixy in sorted(both):
                        result.append(
                            NonHierarchicalTriplet(
                                query.atoms[ix], query.atoms[ixy], query.atoms[iy], x, y
                            )
                        )
    return result


def find_non_hierarchical_triplet(
    query: ConjunctiveQuery,
) -> NonHierarchicalTriplet | None:
    """One non-hierarchical triplet, preferring the *reduction-safe* shape.

    The hardness proof of Theorem 3.1 needs a triplet where, if two of the
    atoms are negative, the negative ones are ``αx`` and ``αy`` (this is
    always achievable for safe queries — Lemma B.4).  We therefore prefer
    triplets whose middle atom ``αxy`` is positive, or whose side atoms are
    both positive.
    """
    triplets = non_hierarchical_triplets(query)
    if not triplets:
        return None

    def negatives(triplet: NonHierarchicalTriplet) -> int:
        return sum(
            atom.negated for atom in (triplet.atom_x, triplet.atom_xy, triplet.atom_y)
        )

    def reduction_safe(triplet: NonHierarchicalTriplet) -> bool:
        if negatives(triplet) < 2:
            return True
        return not triplet.atom_xy.negated

    for triplet in triplets:
        if reduction_safe(triplet):
            return triplet
    return triplets[0]


def root_variables(query: ConjunctiveQuery) -> frozenset[Variable]:
    """Variables occurring in *every* atom of ``q``.

    For a connected hierarchical query with at least one variable, a root
    variable is guaranteed to exist; the CntSat recursion branches on it.
    """
    roots = None
    for atom in query.atoms:
        vars_here = atom.variables
        roots = vars_here if roots is None else roots & vars_here
    return frozenset(roots or ())


def connected_atom_components(query: ConjunctiveQuery) -> list[tuple[int, ...]]:
    """Partition of atom indices into variable-connected components.

    Two atoms are connected when they share a variable.  Ground atoms
    (no variables) each form their own singleton component.
    """
    groups = key_groups([atom.variables for atom in query.atoms])
    return [tuple(group) for group in groups]


def subquery(query: ConjunctiveQuery, atom_indices: tuple[int, ...]) -> ConjunctiveQuery:
    """The Boolean subquery induced by a subset of atom indices.

    Safety is preserved whenever the indices form a union of
    variable-connected components (negated atoms travel with the positive
    atoms that bind their variables).
    """
    atoms = tuple(query.atoms[i] for i in atom_indices)
    return ConjunctiveQuery(atoms, name=query.name)
