"""Query evaluation: homomorphism search over fact sets.

The semantics follow Section 2 of the paper: a database ``D`` satisfies a
CQ¬ ``q`` if some assignment of the variables maps every positive atom to a
fact of ``D`` and no negated atom to a fact of ``D``.

The engine is a backtracking join over the positive atoms with greedy
atom ordering (most-bound-variables first, then smallest relation), plus
*early* pruning on negated atoms: as soon as a negated atom becomes fully
ground under the partial assignment it is checked.  Safe negation
guarantees all negated atoms are ground once the positive atoms are
processed.

All entry points accept either a :class:`~repro.core.database.Database`
(evaluated over *all* its facts) or a plain iterable of facts, because the
Shapley game repeatedly evaluates ``q`` on hypothetical fact sets
``Dx ∪ E``.  When those sets grow one fact at a time, as along the
permutation prefixes of the Section 5 samplers,
:class:`PrefixEvaluator` answers each step from a witness table built
once instead of re-running the join.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from repro.core.database import Database
from repro.core.facts import Constant, Fact
from repro.core.query import (
    Atom,
    BooleanQuery,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
)

FactSource = Union[Database, Iterable[Fact]]
Assignment = dict[Variable, Constant]


class FactIndex:
    """Facts grouped by relation, for candidate lookup during joins.

    Building the index once and reusing it across evaluations is the main
    performance lever for the brute-force Shapley oracle, which evaluates
    the same query on exponentially many subsets.
    """

    def __init__(self, facts: FactSource) -> None:
        if isinstance(facts, Database):
            facts = facts.facts
        self._by_relation: dict[str, set[Fact]] = {}
        for item in facts:
            self._by_relation.setdefault(item.relation, set()).add(item)

    def relation(self, name: str) -> set[Fact]:
        return self._by_relation.get(name, set())

    def __contains__(self, item: Fact) -> bool:
        return item in self._by_relation.get(item.relation, ())


def _as_index(facts: FactSource) -> FactIndex:
    return facts if isinstance(facts, FactIndex) else FactIndex(facts)


def _ground_terms(atom: Atom, assignment: Mapping[Variable, Constant]) -> Fact | None:
    """The fact ``atom`` denotes under ``assignment``, or None if not ground yet."""
    values = []
    for term in atom.terms:
        if isinstance(term, Variable):
            if term not in assignment:
                return None
            values.append(assignment[term])
        else:
            values.append(term)
    return Fact(atom.relation, tuple(values))


def _extend(
    atom: Atom, target: Fact, assignment: Assignment
) -> Assignment | None:
    """Extend ``assignment`` so that ``atom`` maps onto ``target``, if possible."""
    extended = dict(assignment)
    for term, value in zip(atom.terms, target.args):
        if isinstance(term, Variable):
            bound = extended.setdefault(term, value)
            if bound != value:
                return None
        elif term != value:
            return None
    return extended


def _order_positive_atoms(
    atoms: tuple[Atom, ...], index: FactIndex
) -> list[Atom]:
    """Greedy join order: repeatedly pick the most-constrained unprocessed atom."""
    remaining = list(atoms)
    ordered: list[Atom] = []
    bound: set[Variable] = set()
    while remaining:
        def rank(atom: Atom) -> tuple[int, int]:
            unbound = len(atom.variables - bound)
            return (unbound, len(index.relation(atom.relation)))

        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables
    return ordered


def find_homomorphisms(
    query: ConjunctiveQuery, facts: FactSource
) -> Iterator[Assignment]:
    """All assignments witnessing ``facts ⊨ query`` (may repeat head tuples).

    Each yielded assignment binds *every* variable of the query, maps all
    positive atoms into ``facts``, and maps no negated atom into ``facts``.
    """
    index = _as_index(facts)
    positives = _order_positive_atoms(query.positive_atoms, index)
    negatives = query.negative_atoms

    def negated_atom_violated(assignment: Assignment) -> bool:
        for atom in negatives:
            ground = _ground_terms(atom, assignment)
            if ground is not None and ground in index:
                return True
        return False

    def search(position: int, assignment: Assignment) -> Iterator[Assignment]:
        if position == len(positives):
            # Safe negation: all variables are now bound, so every negated
            # atom is ground and has been checked along the way.
            yield assignment
            return
        atom = positives[position]
        for candidate in index.relation(atom.relation):
            extended = _extend(atom, candidate, assignment)
            if extended is None:
                continue
            if negated_atom_violated(extended):
                continue
            yield from search(position + 1, extended)

    if not positives:
        # Queries with no positive atoms cannot exist (safety forbids
        # variables) unless all atoms are ground negations.
        empty: Assignment = {}
        if not negated_atom_violated(empty):
            yield empty
        return
    yield from search(0, {})


def holds(query: BooleanQuery, facts: FactSource) -> bool:
    """Does the fact set satisfy the (Boolean) query? (``D ⊨ q``)"""
    index = _as_index(facts)
    if isinstance(query, UnionQuery):
        return any(holds(disjunct, index) for disjunct in query.disjuncts)
    return next(find_homomorphisms(query, index), None) is not None


class PrefixEvaluator:
    """``q(Dx ∪ S)`` along growing coalitions ``S ⊆ Dn``, one fact at a time.

    The permutation samplers of Section 5 evaluate the query on every
    prefix of a random order of ``Dn``; consecutive prefixes differ by
    one fact.  Instead of re-running the join per prefix, the evaluator
    builds the query's *witness table* once: every homomorphism of the
    positive atoms into ``D`` (the union over disjuncts for a UCQ¬),
    kept as its endogenous positive image and its negative image.  Any
    coalition ``S ⊆ Dn`` makes ``Dx ∪ S ⊆ D``, so every homomorphism
    into ``Dx ∪ S`` is in the table, and it witnesses ``q`` exactly when
    its positive image lies in ``S`` and its negative image misses it.

    Witnesses that can never hold — a negative image with an exogenous
    fact, or one meeting its own positive image — are dropped at build
    time.  A sweep keeps, per witness, the number of positive facts
    still missing plus negative facts already present, and a count of
    witnesses at zero: adding a player touches only the witnesses that
    mention it.
    """

    def __init__(self, query: BooleanQuery, database: Database) -> None:
        endogenous = database.endogenous
        exogenous = database.exogenous
        index = FactIndex(database)
        witnesses: set[tuple[frozenset[Fact], frozenset[Fact]]] = set()
        disjuncts = query.disjuncts if isinstance(query, UnionQuery) else (query,)
        for disjunct in disjuncts:
            positives = disjunct.positive_atoms
            assignments: Iterable[Assignment] = (
                find_homomorphisms(disjunct.with_atoms(positives), index)
                if positives
                else ({},)
            )
            for assignment in assignments:
                negative = {
                    _ground_terms(atom, assignment) for atom in disjunct.negative_atoms
                }
                if not negative.isdisjoint(exogenous):
                    continue
                positive = frozenset(
                    image
                    for image in (_ground_terms(atom, assignment) for atom in positives)
                    if image in endogenous
                )
                if negative.isdisjoint(positive):
                    witnesses.add((positive, frozenset(negative & endogenous)))
        self._initial: list[int] = []
        self._positive: dict[Fact, list[int]] = {}
        self._negative: dict[Fact, list[int]] = {}
        for slot, (positive, negative) in enumerate(witnesses):
            self._initial.append(len(positive))
            for player in positive:
                self._positive.setdefault(player, []).append(slot)
            for player in negative:
                self._negative.setdefault(player, []).append(slot)
        self._initial_live = self._initial.count(0)
        #: ``q(Dx)``, the outcome of the empty coalition, as 0 or 1.
        self.empty = 1 if self._initial_live else 0

    def sweep(self, order: Iterable[Fact]) -> list[int]:
        """``q(Dx ∪ order[:i + 1])`` as 0 or 1, for each position ``i``.

        ``order`` lists distinct endogenous facts; each call starts over
        from the empty coalition.
        """
        pending = self._initial[:]
        live = self._initial_live
        positive = self._positive
        negative = self._negative
        outcomes = []
        for player in order:
            for slot in positive.get(player, ()):
                pending[slot] -= 1
                if not pending[slot]:
                    live += 1
            for slot in negative.get(player, ()):
                if not pending[slot]:
                    live -= 1
                pending[slot] += 1
            outcomes.append(1 if live else 0)
        return outcomes


def evaluate_boolean(query: BooleanQuery, facts: FactSource) -> int:
    """Numeric view of a Boolean query: 1 if satisfied else 0 (Section 2)."""
    return 1 if holds(query, facts) else 0


def answers(
    query: ConjunctiveQuery, facts: FactSource
) -> frozenset[tuple[Constant, ...]]:
    """The answer set of a query with head variables (set semantics)."""
    if query.is_boolean:
        raise ValueError("use holds() for Boolean queries")
    index = _as_index(facts)
    result = set()
    for assignment in find_homomorphisms(query, index):
        result.add(tuple(assignment[var] for var in query.head))
    return frozenset(result)


def answer_facts(
    query: ConjunctiveQuery, facts: FactSource, relation: str
) -> frozenset[Fact]:
    """Materialize the answers of ``query`` as facts of a new relation.

    Used by ExoShap to replace a connected component of exogenous atoms by
    a single joined relation.
    """
    return frozenset(Fact(relation, row) for row in answers(query, facts))
