"""Lifted (extensional) inference for hierarchical self-join-free CQ¬s.

Computes ``P(D ⊨ q)`` over a tuple-independent database in polynomial
time, mirroring the CntSat recursion with probabilities instead of count
vectors (Dalvi-Suciu safe-plan style, extended to safe negation as in
Fink & Olteanu):

* independent components multiply;
* a root variable turns the component into an independent OR over its
  value slices: ``1 - Π_a (1 - P(slice_a))``;
* the ground base case multiplies ``p(f)`` for positive atoms and
  ``1 - p(f)`` for negative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core.errors import NotHierarchicalError, SelfJoinError
from repro.core.facts import Constant, Fact
from repro.core.hierarchy import is_hierarchical
from repro.core.query import Atom, ConjunctiveQuery
from repro.probabilistic.tid import TupleIndependentDatabase
from repro.util.graphs import key_groups


@dataclass(frozen=True)
class _ScopedAtom:
    atom: Atom
    facts: tuple[tuple[Fact, Fraction], ...]


def query_probability_lifted(
    tid: TupleIndependentDatabase, query: ConjunctiveQuery
) -> Fraction:
    """``P(D ⊨ q)`` for a hierarchical self-join-free CQ¬, in polynomial time."""
    query = query.as_boolean()
    if not query.is_self_join_free:
        raise SelfJoinError(
            f"lifted inference requires a self-join-free query, got {query!r}"
        )
    if not is_hierarchical(query):
        raise NotHierarchicalError(
            f"lifted inference requires a hierarchical query, got {query!r}"
        )
    scope = [
        _ScopedAtom(
            atom,
            tuple(sorted(
                ((item, tid.probability(item)) for item in tid.relation(atom.relation)),
                key=lambda pair: repr(pair[0]),
            )),
        )
        for atom in query.atoms
    ]
    return _probability(scope)


def _probability(scope: list[_ScopedAtom]) -> Fraction:
    restricted = [
        _ScopedAtom(
            scoped.atom,
            tuple(
                (item, probability)
                for item, probability in scoped.facts
                if scoped.atom.matches(item)
            ),
        )
        for scoped in scope
    ]
    result = Fraction(1)
    for component in _components(restricted):
        result *= _component_probability(component)
        if result == 0:
            return result
    return result


def _components(scope: list[_ScopedAtom]) -> list[list[_ScopedAtom]]:
    groups = key_groups([scoped.atom.variables for scoped in scope])
    return [[scope[i] for i in group] for group in groups]


def _component_probability(component: list[_ScopedAtom]) -> Fraction:
    variables = frozenset(
        var for scoped in component for var in scoped.atom.variables
    )
    if not variables:
        return _ground_probability(component)

    roots = None
    for scoped in component:
        atom_vars = scoped.atom.variables
        roots = atom_vars if roots is None else roots & atom_vars
    if not roots:
        raise NotHierarchicalError(
            "connected subquery without a root variable: "
            + ", ".join(repr(scoped.atom) for scoped in component)
        )
    root = min(roots, key=lambda var: var.name)

    candidates: set[Constant] = set()
    positions: dict[int, int] = {}
    for index, scoped in enumerate(component):
        positions[index] = scoped.atom.terms.index(root)
        for item, _ in scoped.facts:
            candidates.add(item.args[positions[index]])

    all_slices_fail = Fraction(1)
    for value in sorted(candidates, key=repr):
        slice_scope = []
        for index, scoped in enumerate(component):
            at = positions[index]
            slice_scope.append(
                _ScopedAtom(
                    scoped.atom.substitute({root: value}),
                    tuple(
                        (item, probability)
                        for item, probability in scoped.facts
                        if item.args[at] == value
                    ),
                )
            )
        all_slices_fail *= 1 - _probability(slice_scope)
        if all_slices_fail == 0:
            break
    return 1 - all_slices_fail


def _ground_probability(component: list[_ScopedAtom]) -> Fraction:
    result = Fraction(1)
    for scoped in component:
        ground = scoped.atom.to_fact()
        probability = Fraction(0)
        for item, item_probability in scoped.facts:
            if item == ground:
                probability = item_probability
                break
        result *= (1 - probability) if scoped.atom.negated else probability
        if result == 0:
            return result
    return result
