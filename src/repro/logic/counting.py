"""Model counting (#SAT) by DPLL with decomposition and component caching.

Used to cross-check the independent-set counting substrate and for small
ablation studies; exponential in the worst case, but three standard
improvements keep realistic instances fast:

* **iterative unit propagation** — unit clauses are applied to a
  fixpoint in a scan loop instead of one recursion per unit literal
  (each propagated variable is forced, so it never doubles the count);
* **connected-component decomposition** — clause sets sharing no
  variables are counted independently and the counts multiply, with
  unconstrained variables contributing a power of two;
* **component caching** — residual components are memoized in a bounded
  LRU cache (:mod:`repro.engine.cache`) keyed on their canonical clause
  list, so identical subproblems across branches — and across separate
  ``count_models`` calls — are counted once.

Branching prefers a *pure* literal when one exists: its true branch
deletes every clause containing it outright (no residue to rewrite),
which tends to disconnect the remainder and feed the component cache.
Unlike in SAT solving, a pure literal cannot simply be assigned — both
polarities may admit models — so it steers the split rather than
replacing it.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.engine.cache import LRUCache
from repro.logic.cnf import CnfFormula
from repro.obs.counters import Counters
from repro.util.graphs import key_groups

Clauses = tuple[tuple[int, ...], ...]

_component_cache: LRUCache[int] = LRUCache(maxsize=4096)


def counting_cache_stats() -> Counters:
    """Snapshot of the shared component-cache counters."""
    return _component_cache.stats.snapshot()


def clear_counting_cache() -> None:
    """Drop all memoized component counts (statistics are kept)."""
    _component_cache.clear()


def count_models_naive(formula: CnfFormula) -> int:
    """#SAT by enumerating all assignments over the formula's variables."""
    variables = sorted(formula.variables)
    count = 0
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if formula.satisfied_by(assignment):
            count += 1
    return count


def count_models(formula: CnfFormula, use_cache: bool = True) -> int:
    """#SAT by DPLL with propagation, decomposition, and component caching."""
    clauses = []
    for clause in formula.clauses:
        literals = frozenset(clause.literals)
        if any(-literal in literals for literal in literals):
            continue  # tautological clause: satisfied by every assignment
        clauses.append(tuple(sorted(literals)))
    cache = _component_cache if use_cache else LRUCache(0)
    return _count(tuple(clauses), frozenset(formula.variables), cache)


def _propagate(clauses: Clauses) -> tuple[Clauses, int] | None:
    """Apply unit clauses to a fixpoint.

    Returns the residual clause list and the number of variables the
    propagation fixed (each is forced — no doubling), or None on
    conflict.
    """
    assignment: dict[int, bool] = {}
    changed = True
    current = clauses
    while changed:
        changed = False
        residual: list[tuple[int, ...]] = []
        for clause in current:
            satisfied = False
            remaining: list[int] = []
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    remaining.append(literal)
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not remaining:
                return None
            if len(remaining) == 1:
                literal = remaining[0]
                assignment[abs(literal)] = literal > 0
                changed = True
            else:
                residual.append(tuple(remaining))
        current = tuple(residual)
    return current, len(assignment)


def _components(clauses: Clauses) -> list[Clauses]:
    """Partition clauses into variable-connected components."""
    groups = key_groups([[abs(literal) for literal in clause] for clause in clauses])
    return [tuple(clauses[i] for i in group) for group in groups]


def _count(clauses: Clauses, free: frozenset[int], cache: LRUCache[int]) -> int:
    propagated = _propagate(clauses)
    if propagated is None:
        return 0
    residual, fixed = propagated
    unbound = len(free) - fixed
    if not residual:
        return 2**unbound
    total = 1
    constrained = 0
    for component in _components(residual):
        variables = frozenset(
            abs(literal) for clause in component for literal in clause
        )
        constrained += len(variables)
        key = tuple(sorted(component))
        count = cache.get_or_compute(
            key, lambda: _count_component(component, variables, cache)
        )
        if count == 0:
            return 0
        total *= count
    return total * 2 ** (unbound - constrained)


def _count_component(
    clauses: Clauses, variables: frozenset[int], cache: LRUCache[int]
) -> int:
    """Count one variable-connected component by branching on a literal."""
    polarity: Counter[int] = Counter()
    for clause in clauses:
        polarity.update(clause)
    pure = [literal for literal in polarity if -literal not in polarity]
    if pure:
        # True branch drops whole clauses; often disconnects the rest.
        literal = max(pure, key=lambda candidate: polarity[candidate])
    else:
        literal = max(polarity, key=lambda candidate: polarity[candidate])
    variable = abs(literal)
    remaining = variables - {variable}
    total = 0
    for choice in (literal, -literal):
        total += _count(_assign(clauses, choice), remaining, cache)
    return total


def _assign(clauses: Clauses, literal: int) -> Clauses:
    """Residual clause list under ``literal := true``."""
    result = []
    for clause in clauses:
        if literal in clause:
            continue
        result.append(tuple(other for other in clause if other != -literal))
    return tuple(result)
