"""Structural database deltas: the diff layer of the delta-aware engine.

The paper's tractability frontier (CntSat/ExoShap over Gaifman
components) means a fact insertion or deletion only perturbs the
components it touches.  This module makes that observation operational:

* :func:`database_delta` computes the structural diff between two
  databases — facts added, facts removed, and endogenous/exogenous
  *flips* (a fact changing sides shows up as an addition on its new
  side); :func:`apply_delta` replays a diff onto a base version.
* :func:`delta_to_dict` / :func:`delta_from_dict` are the wire and CLI
  form of a diff (the ``db_update`` operation of
  :mod:`repro.server.protocol` and ``--update delta.json``), speaking
  the fact-row dialect of :mod:`repro.io`.
* :func:`delta_touches_query` and :func:`dirty_components` map a diff to
  the work it actually invalidates: whether a request's relevant slice
  moved at all, and which top-level Gaifman components of a query are
  *dirty* (own a touched fact) versus reusable as-is.
* :data:`DELTA_COUNTERS` names the engine's cross-version accounting —
  distinct versions served, null players zero-filled at the engine
  boundary, and component lookups that were reused versus recomputed.

Together with the relevance-scoped request fingerprints of
:mod:`repro.engine.fingerprint` this is what lets one warm engine follow
a live, mutating database: an update only re-executes the dirty slice,
everything else is served from the stores across versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import BooleanQuery
from repro.engine.fingerprint import query_atoms
from repro.io import fact_from_row, fact_to_row


@dataclass(frozen=True)
class DatabaseDelta:
    """A fact-level diff between a base database and its successor.

    ``added_endogenous`` / ``added_exogenous`` hold the facts present (on
    that side) in the successor but not on the same side of the base —
    including facts that merely *flipped* sides; ``removed`` holds the
    facts present in the base but absent from the successor entirely.
    Applying a delta is therefore "remove, then add (re-labelling on
    conflict)", which :meth:`repro.core.database.Database.add` already
    implements.
    """

    added_endogenous: frozenset[Fact] = frozenset()
    added_exogenous: frozenset[Fact] = frozenset()
    removed: frozenset[Fact] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.added_endogenous & self.added_exogenous
        if overlap:
            raise ValueError(
                f"facts added as both endogenous and exogenous: "
                f"{sorted(map(repr, overlap))}"
            )

    @property
    def facts(self) -> frozenset[Fact]:
        """Every fact the delta mentions (the touched set)."""
        return self.added_endogenous | self.added_exogenous | self.removed

    def __len__(self) -> int:
        return (
            len(self.added_endogenous)
            + len(self.added_exogenous)
            + len(self.removed)
        )

    def __bool__(self) -> bool:
        return len(self) > 0

    def accounting(self, base: Database) -> dict[str, int]:
        """``{added, removed, flipped}`` counts relative to ``base``.

        A *flip* is a fact the base holds on the **other** side; re-adding
        a fact on its current side is a no-op and counts as neither.
        """
        endo_flips = sum(1 for f in self.added_endogenous if base.is_exogenous(f))
        exo_flips = sum(1 for f in self.added_exogenous if base.is_endogenous(f))
        brand_new = sum(
            1
            for item in self.added_endogenous | self.added_exogenous
            if item not in base
        )
        return {
            "added": brand_new,
            "removed": len(self.removed),
            "flipped": endo_flips + exo_flips,
        }


def database_delta(base: Database, successor: Database) -> DatabaseDelta:
    """The structural diff turning ``base`` into ``successor``.

    ``apply_delta(base, database_delta(base, successor))`` reproduces
    ``successor`` exactly (fact sets and endogenous/exogenous labels).
    """
    return DatabaseDelta(
        added_endogenous=successor.endogenous - base.endogenous,
        added_exogenous=successor.exogenous - base.exogenous,
        removed=base.facts - successor.facts,
    )


def apply_delta(base: Database, delta: DatabaseDelta) -> Database:
    """A new database: ``base`` with ``delta`` replayed onto a copy.

    Removing a fact the base does not hold is a :class:`ValueError`
    (rather than ``KeyError``) so the failure round-trips as a typed
    error frame through the attribution service.
    """
    successor = base.copy()
    for item in sorted(delta.removed, key=repr):
        try:
            successor.remove(item)
        except KeyError:
            raise ValueError(
                f"delta removes {item!r}, which the base database does not hold"
            ) from None
    for item in sorted(delta.added_exogenous, key=repr):
        successor.add(item, endogenous=False)
    for item in sorted(delta.added_endogenous, key=repr):
        successor.add(item, endogenous=True)
    return successor


def delta_to_dict(delta: DatabaseDelta) -> dict[str, Any]:
    """The JSON form of a delta (wire protocol, ``--update`` files)."""

    def rows(facts: Iterable[Fact]) -> list[list[Any]]:
        return [fact_to_row(item) for item in sorted(facts, key=repr)]

    return {
        "add_endogenous": rows(delta.added_endogenous),
        "add_exogenous": rows(delta.added_exogenous),
        "remove": rows(delta.removed),
    }


def delta_from_dict(payload: dict[str, Any]) -> DatabaseDelta:
    """Rebuild a delta from :func:`delta_to_dict` output.

    Malformed rows raise :class:`ValueError` so front ends (CLI, daemon)
    report one clear line instead of a traceback.
    """
    if not isinstance(payload, dict):
        raise ValueError("a delta document must be a JSON object")

    def facts(key: str) -> frozenset[Fact]:
        rows = payload.get(key, [])
        if not isinstance(rows, list):
            raise ValueError(f"delta field {key!r} must be a list of fact rows")
        try:
            return frozenset(fact_from_row(row) for row in rows)
        except (TypeError, ValueError) as error:
            raise ValueError(f"malformed fact row under {key!r}: {error}") from None

    return DatabaseDelta(
        added_endogenous=facts("add_endogenous"),
        added_exogenous=facts("add_exogenous"),
        removed=facts("remove"),
    )


def delta_touches_query(delta: DatabaseDelta, query: BooleanQuery) -> bool:
    """Does any touched fact intersect the query's relevant slice?

    ``False`` means every touched fact is a null player for this query:
    the successor's result is the base result with irrelevant endogenous
    additions zero-filled and removals dropped — exactly what the
    relevance-scoped store key serves without recomputing.
    """
    atoms = query_atoms(query)
    return any(atom.matches(item) for item in delta.facts for atom in atoms)


def dirty_components(
    database: Database, query: BooleanQuery, delta: DatabaseDelta
) -> tuple[list[tuple], list[tuple]]:
    """Split a query's top-level components into ``(dirty, clean)``.

    Components are those of ``database`` (the successor version), keyed
    by the same canonical fingerprints the bundle caches use; a component
    is *dirty* when some touched fact matches one of its atoms, so its
    count bundle cannot be reused from the base version.  Everything in
    the clean list keeps its fingerprint across the delta and is served
    from the component caches.
    """
    from repro.engine.bundles import top_level_components

    touched = delta.facts
    dirty: list[tuple] = []
    clean: list[tuple] = []
    for fingerprint, component in top_level_components(database, query):
        atoms = [scoped.atom for scoped in component]
        if any(atom.matches(item) for item in touched for atom in atoms):
            dirty.append(fingerprint)
        else:
            clean.append(fingerprint)
    return dirty, clean


#: Cross-version accounting of the delta-aware engine: ``versions_seen``
#: counts distinct database fingerprints served; ``facts_zero_filled``
#: counts the endogenous null players the engine zero-filled at its
#: public boundary — once per fact per returned result, for every result
#: (fresh or store-served, exact or sampled, same version or across
#: versions) whose relevance slice misses some of ``D``'s endogenous
#: facts; ``components_reused`` / ``components_dirty`` count memoizable
#: component lookups (top-level and nested) served from the bundle
#: caches versus recomputed during execution.
DELTA_COUNTERS = (
    "versions_seen",
    "facts_zero_filled",
    "components_reused",
    "components_dirty",
)


__all__ = [
    "DELTA_COUNTERS",
    "DatabaseDelta",
    "apply_delta",
    "database_delta",
    "delta_from_dict",
    "delta_to_dict",
    "delta_touches_query",
    "dirty_components",
]
