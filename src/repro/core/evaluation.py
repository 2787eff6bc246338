"""Query evaluation: homomorphism search over fact sets.

The semantics follow Section 2 of the paper: a database ``D`` satisfies a
CQ¬ ``q`` if some assignment of the variables maps every positive atom to a
fact of ``D`` and no negated atom to a fact of ``D``.

The engine is a backtracking join over the positive atoms with greedy
atom ordering (most-bound-variables first, then smallest relation, then
query order), plus *early* pruning on negated atoms: as soon as a negated
atom becomes fully ground under the partial assignment it is checked.
Safe negation guarantees all negated atoms are ground once the positive
atoms are processed.

Each join step reads its candidates from the :class:`FactIndex`: when a
position of the atom is fixed before the step runs — a constant, or a
variable an earlier atom binds — the candidates are the facts holding
that value there, read from the lazily built column of the first such
position; otherwise they are the whole relation.  A column keeps the
relation's iteration order, so a lookup yields exactly the candidates,
in the same order, that the filtered scan of the relation would.  A
join whose atoms chain through shared variables (``Stud(x), Reg(x, y)``)
is therefore linear in the facts it touches, not a product of relation
sizes.

All entry points accept either a :class:`~repro.core.database.Database`
(evaluated over *all* its facts) or a plain iterable of facts, because the
Shapley game repeatedly evaluates ``q`` on hypothetical fact sets
``Dx ∪ E``.  When those sets grow one fact at a time, as along the
permutation prefixes of the Section 5 samplers,
:class:`PrefixEvaluator` answers each step from a witness table built
once instead of re-running the join.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

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
    """Facts grouped by relation, and lazily by one position at a time.

    :meth:`relation` is a relation's fact set.  :meth:`column` maps each
    value at one position of a relation to the facts holding it there,
    listed in :meth:`relation`'s iteration order; it is built on first
    use and kept, so a join step reads its candidates by a bound
    position instead of scanning the relation.  Building the index once
    and reusing it across evaluations is the main performance lever for
    the brute-force Shapley oracle, which evaluates the same query on
    exponentially many subsets.

    :class:`repro.engine.FactIndex` is this class with the database's
    endogenous split on top; the engine slices every grounding's
    relevant facts from the same columns.
    """

    __slots__ = ("_by_relation", "_columns")

    def __init__(self, facts: FactSource) -> None:
        if isinstance(facts, Database):
            facts = facts.facts
        self._by_relation: dict[str, set[Fact]] = {}
        for item in facts:
            self._by_relation.setdefault(item.relation, set()).add(item)
        self._columns: dict[tuple[str, int], dict[Constant, list[Fact]]] = {}

    def relation(self, name: str) -> set[Fact]:
        return self._by_relation.get(name, set())

    def column(self, name: str, position: int) -> dict[Constant, list[Fact]]:
        """The facts of relation ``name`` keyed by their value at ``position``.

        Keys are looked up by equality, so ``1`` and ``True`` share one
        list, exactly as the join's equality test treats them.  Facts too
        short to have ``position`` are in no list.  A column is published
        only once complete, so threads sharing one index never read a
        partial one (two threads may both build it; the lists are equal).
        """
        key = (name, position)
        column = self._columns.get(key)
        if column is None:
            column = {}
            for item in self.relation(name):
                if position < len(item.args):
                    column.setdefault(item.args[position], []).append(item)
            self._columns[key] = column
        return column

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
    if len(target.args) != len(atom.terms):
        return None
    extended = dict(assignment)
    for term, value in zip(atom.terms, target.args):
        if isinstance(term, Variable):
            bound = extended.setdefault(term, value)
            if bound != value:
                return None
        elif term != value:
            return None
    return extended


def _join_steps(
    atoms: tuple[Atom, ...], index: FactIndex
) -> list[tuple[Atom, Variable | None, Any]]:
    """The join's steps in greedy order, each with where it reads candidates.

    The order repeatedly picks the most-constrained remaining atom: fewest
    unbound variables, then the smallest relation, then the earlier atom
    of the query.  A step is ``(atom, variable, source)``.  ``variable``
    is None when the candidates are ``source`` itself: the column entry of
    the atom's first constant, or the whole relation when no position is
    fixed before the step.  Otherwise the first fixed position holds
    ``variable``, bound by an earlier step, and the candidates are
    ``source.get(assignment[variable], ())`` on that position's column.
    """
    remaining = [
        (atom.variables, len(index.relation(atom.relation)), atom) for atom in atoms
    ]
    steps: list[tuple[Atom, Variable | None, Any]] = []
    bound: set[Variable] = set()
    while remaining:
        best = min(
            range(len(remaining)),
            key=lambda slot: (len(remaining[slot][0] - bound), remaining[slot][1]),
        )
        variables, _, atom = remaining.pop(best)
        variable: Variable | None = None
        source: Any = index.relation(atom.relation)
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                source = index.column(atom.relation, position).get(term, ())
                break
            if term in bound:
                variable = term
                source = index.column(atom.relation, position)
                break
        steps.append((atom, variable, source))
        bound |= variables
    return steps


def find_homomorphisms(
    query: ConjunctiveQuery, facts: FactSource
) -> Iterator[Assignment]:
    """All assignments witnessing ``facts ⊨ query`` (may repeat head tuples).

    Each yielded assignment binds *every* variable of the query, maps all
    positive atoms into ``facts``, and maps no negated atom into ``facts``.
    """
    index = _as_index(facts)
    steps = _join_steps(query.positive_atoms, index)
    negatives = query.negative_atoms

    def negated_atom_violated(assignment: Assignment) -> bool:
        for atom in negatives:
            ground = _ground_terms(atom, assignment)
            if ground is not None and ground in index:
                return True
        return False

    def search(position: int, assignment: Assignment) -> Iterator[Assignment]:
        if position == len(steps):
            # Safe negation: all variables are now bound, so every negated
            # atom is ground and has been checked along the way.
            yield assignment
            return
        atom, variable, source = steps[position]
        if variable is not None:
            source = source.get(assignment[variable], ())
        for candidate in source:
            extended = _extend(atom, candidate, assignment)
            if extended is None:
                continue
            if negated_atom_violated(extended):
                continue
            yield from search(position + 1, extended)

    if not steps:
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
    """``q(Dx ∪ S)`` along the prefixes ``S`` of an order of ``Dn``.

    The permutation samplers of Section 5 evaluate the query on every
    prefix of a random order of ``Dn``.  Instead of re-running the join
    per prefix, the evaluator builds the query's *witness table* once:
    every homomorphism of the positive atoms into ``D`` (the union over
    disjuncts for a UCQ¬), kept as its endogenous positive image and its
    negative image.  Any coalition ``S ⊆ Dn`` makes ``Dx ∪ S ⊆ D``, so
    every homomorphism into ``Dx ∪ S`` is in the table, and it witnesses
    ``q`` exactly when its positive image lies in ``S`` and its negative
    image misses it.

    Witnesses that can never hold — a negative image with an exogenous
    fact, or one meeting its own positive image — are dropped at build
    time; the rest are kept on player ids (indexes into :attr:`players`).
    Along an order each one holds on an interval of prefixes, so ``q``
    flips only where their union starts or ends, and reversing the
    order reflects every interval: one pass serves a sweep and its mirror.
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
        #: ``Dn`` in ``repr`` order; a player's id is its index here.
        self.players: list[Fact] = sorted(endogenous, key=repr)
        self._ids = ids = {player: slot for slot, player in enumerate(self.players)}
        #: Each witness as its (positive, negative) player ids.
        self.witnesses: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
            (tuple(ids[f] for f in positive), tuple(ids[f] for f in negative))
            for positive, negative in witnesses
        ]
        #: ``q(Dx)``, the outcome of the empty coalition, as 0 or 1.
        self.empty = 1 if any(not positive for positive, _ in self.witnesses) else 0
        # Witnesses of one shape (image sizes) are stored column-wise.
        groups: dict[tuple[int, int], list] = {}
        for positive, negative in self.witnesses:
            shape = len(positive), len(negative)
            groups.setdefault(shape, []).append(positive + negative)
        self._shapes = [(*shape, len(rows)) for shape, rows in groups.items()]
        self._slots = [p for rows in groups.values() for col in zip(*rows) for p in col]

    def credit(
        self, order: Sequence[int], totals: list[int], antithetic: bool = True
    ) -> None:
        """Add each player's marginal contributions along ``order``.

        ``totals[id]`` gains the flip of ``q`` as ``id`` joins the prefix
        before it and, with ``antithetic``, the suffix after it.  A
        witness holds on the prefixes ``order[:j]`` with ``last positive
        place < j <= first negative place``, and on the suffixes
        ``order[t:]`` with ``last negative place < t <= first positive
        place``.  Players missing from ``order`` never join the prefix.
        """
        size = len(order)
        place = [size] * len(self.players)
        for position, player in enumerate(order):
            place[player] = position
        places = map(place.__getitem__, self._slots)
        forward, backward = [], []
        for ins, outs, count in self._shapes:
            columns = [list(islice(places, count)) for _ in range(ins + outs)]
            first_in, last_in = _bounds(columns[:ins], count, size)
            first_out, last_out = _bounds(columns[ins:], count, size)
            forward += [(a + 1, b) for a, b in zip(last_in, first_out) if a < b]
            backward += [(a + 1, b) for a, b in zip(last_out, first_in) if a < b]
        halves = [(forward, 1), (backward, -1)] if antithetic else [(forward, 1)]
        for intervals, sign in halves:
            for lo, hi in _merged(intervals):
                if lo:
                    totals[order[lo - 1]] += sign
                if hi < size:
                    totals[order[hi]] -= sign

    def sweep(self, order: Iterable[Fact]) -> list[int]:
        """``q(Dx ∪ order[:i + 1])`` as 0 or 1, for each position ``i``.

        ``order`` lists distinct endogenous facts; the outcomes add up
        the flips of :meth:`credit`'s forward half from ``q(Dx)``.
        """
        ids = [self._ids[player] for player in order]
        flips = [0] * len(self.players)
        self.credit(ids, flips, antithetic=False)
        return list(accumulate(map(flips.__getitem__, ids), initial=self.empty))[1:]


def _bounds(columns: list[list[int]], count: int, size: int) -> tuple:
    """Each row's first and last place (``size`` and -1 if empty)."""
    if not columns:
        return repeat(size, count), repeat(-1, count)
    if len(columns) == 1:
        return columns[0], columns[0]
    return map(min, *columns), map(max, *columns)


def _merged(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Closed integer intervals as disjoint, non-adjacent runs, in order."""
    intervals.sort()
    runs: list[tuple[int, int]] = []
    for lo, hi in intervals:
        if runs and lo <= runs[-1][1] + 1:
            if hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs


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
