"""Databases with an endogenous / exogenous split.

Following the paper (Section 2), a database ``D = Dx ∪ Dn`` consists of
*exogenous* facts (taken as given, never hypothesized away) and
*endogenous* facts (the players of the Shapley game).  :class:`Database`
stores both parts, enforces consistent arities per relation, and provides
the operations the algorithms need: relation access, active domain,
complements (used by ExoShap and the qR¬ST reduction), and the
"move fact to exogenous" / "delete fact" edits used by the
Shapley-from-counts reduction.

Databases are mutable builders but cheap to copy; algorithms never mutate
their inputs — they work on copies.  Data that depends only on the
current fact sets (the engine's index, the version fingerprint, the
canonical fact order) is derived once per version through
:meth:`Database.derived` and dropped by the next edit.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.core.errors import SchemaError
from repro.core.facts import Constant, Fact

T = TypeVar("T")


class Database:
    """A relational database split into endogenous and exogenous facts."""

    def __init__(
        self,
        endogenous: Iterable[Fact] = (),
        exogenous: Iterable[Fact] = (),
    ) -> None:
        self._endogenous: set[Fact] = set()
        self._exogenous: set[Fact] = set()
        self._arities: dict[str, int] = {}
        self._memo: dict[Callable, Any] = {}
        for item in exogenous:
            self.add(item, endogenous=False)
        for item in endogenous:
            self.add(item, endogenous=True)

    # ------------------------------------------------------------------
    # Construction and editing
    # ------------------------------------------------------------------
    def add(self, new_fact: Fact, *, endogenous: bool) -> None:
        """Insert a fact; re-inserting an existing fact re-labels it."""
        known_arity = self._arities.get(new_fact.relation)
        if known_arity is None:
            self._arities[new_fact.relation] = new_fact.arity
        elif known_arity != new_fact.arity:
            raise SchemaError(
                f"relation {new_fact.relation} used with arity {new_fact.arity}"
                f" but previously with arity {known_arity}"
            )
        if self._memo:
            self._memo = {}
        self._endogenous.discard(new_fact)
        self._exogenous.discard(new_fact)
        if endogenous:
            self._endogenous.add(new_fact)
        else:
            self._exogenous.add(new_fact)

    def add_endogenous(self, new_fact: Fact) -> None:
        self.add(new_fact, endogenous=True)

    def add_exogenous(self, new_fact: Fact) -> None:
        self.add(new_fact, endogenous=False)

    def remove(self, old_fact: Fact) -> None:
        if self._memo:
            self._memo = {}
        if old_fact in self._endogenous:
            self._endogenous.remove(old_fact)
        elif old_fact in self._exogenous:
            self._exogenous.remove(old_fact)
        else:
            raise KeyError(f"fact {old_fact!r} not in database")

    def copy(self) -> "Database":
        clone = Database()
        clone._endogenous = set(self._endogenous)
        clone._exogenous = set(self._exogenous)
        clone._arities = dict(self._arities)
        return clone

    def with_fact_exogenous(self, target: Fact) -> "Database":
        """A copy in which ``target`` is exogenous (it must be present)."""
        if target not in self:
            raise KeyError(f"fact {target!r} not in database")
        clone = self.copy()
        clone.add(target, endogenous=False)
        return clone

    def without_fact(self, target: Fact) -> "Database":
        """A copy in which ``target`` has been deleted (it must be present)."""
        clone = self.copy()
        clone.remove(target)
        return clone

    def with_endogenous_subset(self, subset: Iterable[Fact]) -> "Database":
        """A copy keeping all exogenous facts but only ``subset`` of the endogenous ones."""
        chosen = set(subset)
        stray = chosen - self._endogenous
        if stray:
            raise KeyError(f"facts not endogenous in this database: {sorted(map(repr, stray))}")
        clone = Database()
        clone._exogenous = set(self._exogenous)
        clone._endogenous = chosen
        clone._arities = dict(self._arities)
        return clone

    # ------------------------------------------------------------------
    # Per-version derived data
    # ------------------------------------------------------------------
    def derived(self, build: Callable[["Database"], T]) -> T:
        """``build(self)``, computed once per version of this database.

        The memo is keyed by ``build`` itself, so each module-level
        builder owns one entry.  :meth:`add` and :meth:`remove` (the only
        mutators) clear it, copies start without it, and pickling drops
        it, so a derived value always describes the current fact sets.
        Values are shared by every caller and must be treated as
        read-only.  Concurrent readers of an unchanging database may
        both build a missing entry; either result is equal and the last
        one is kept.
        """
        memo = self._memo
        try:
            return memo[build]
        except KeyError:
            value = memo[build] = build(self)
            return value

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._memo = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def endogenous(self) -> frozenset[Fact]:
        return frozenset(self._endogenous)

    @property
    def exogenous(self) -> frozenset[Fact]:
        return frozenset(self._exogenous)

    @property
    def facts(self) -> frozenset[Fact]:
        return frozenset(self._endogenous | self._exogenous)

    def __contains__(self, item: Fact) -> bool:
        return item in self._endogenous or item in self._exogenous

    def __len__(self) -> int:
        return len(self._endogenous) + len(self._exogenous)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._endogenous | self._exogenous)

    def is_endogenous(self, item: Fact) -> bool:
        return item in self._endogenous

    def is_exogenous(self, item: Fact) -> bool:
        return item in self._exogenous

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(self._arities)

    def arity(self, relation: str) -> int:
        try:
            return self._arities[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def relation(self, name: str) -> frozenset[Fact]:
        """All facts (endogenous and exogenous) of relation ``name``."""
        return frozenset(
            item for item in itertools.chain(self._endogenous, self._exogenous)
            if item.relation == name
        )

    def relation_is_exogenous(self, name: str) -> bool:
        """Does relation ``name`` contain only exogenous facts?"""
        return all(item.relation != name for item in self._endogenous)

    def active_domain(self) -> frozenset[Constant]:
        """All constants appearing in any fact (``Dom(D)`` in the paper)."""
        return frozenset(
            value
            for item in itertools.chain(self._endogenous, self._exogenous)
            for value in item.args
        )

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------
    def complement_relation(
        self,
        name: str,
        arity: int | None = None,
        domain: Iterable[Constant] | None = None,
    ) -> frozenset[Fact]:
        """The complement of relation ``name`` over the active domain.

        This is the relation written :math:`\\bar R^D` in the paper: every
        tuple over ``Dom(D)`` of the right arity that is *not* a fact of
        ``R``.  ExoShap's complement step (negated exogenous atoms) calls
        it with the query's constants added to ``domain``.  The qR¬ST
        hardness reduction does not: it complements ``S`` over ``dom(R) ×
        dom(T)`` only
        (:func:`repro.reductions.shapley_reductions.complement_s_instance`).
        """
        if arity is None:
            arity = self.arity(name)
        values = sorted(self.active_domain() if domain is None else set(domain), key=repr)
        present = {item.args for item in self.relation(name)}
        return frozenset(
            Fact(name, combo)
            for combo in itertools.product(values, repeat=arity)
            if combo not in present
        )

    def __repr__(self) -> str:
        return (
            f"Database({len(self._endogenous)} endogenous, "
            f"{len(self._exogenous)} exogenous, "
            f"{len(self._arities)} relations)"
        )
