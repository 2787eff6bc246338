"""Canonical fingerprints for cache keys.

Two batch requests share work exactly when they agree on the *semantics*
of a subproblem, not on its syntax: variable names are irrelevant, and so
is the order in which atoms or facts are listed.  The fingerprints here
canonicalize both:

* variables are renamed to positional markers in first-occurrence order
  over the canonically sorted atom list (alpha-equivalent subqueries
  collide, as they should);
* fact sets are sorted (by ``repr``, ties by type-tagged text), so
  insertion order never splits cache entries and never depends on the
  process's hash seed.

Since the delta-aware refactor (PR 5) the *request* fingerprint is also
**relevance-scoped**: only facts that can match some atom of the query —
same relation and arity, constants agreeing positionally, repeated
variables satisfiable — are key material.  A fact outside that slice is a
*null player* (it can never influence satisfaction under any endogenous
subset, so its Shapley and Banzhaf values are zero and, by dummy
invariance, it does not perturb any other fact's value).  Two database
versions that differ only in irrelevant facts therefore share one store
entry, which is what lets the engine follow a mutating database: a fact
delta only invalidates the requests — and, one level down, the Gaifman
components — it actually touches.

Every fingerprint is a hashable tuple tree, usable directly as an
:class:`repro.engine.cache.LRUCache` key; :func:`digest_key` hashes one
to the stable hex digest that keys durable store rows, daemon database
handles, and sampler seeds.
"""

from __future__ import annotations

import hashlib
import json
import operator
from typing import AbstractSet, Any, Collection, Iterable

from repro.core import evaluation
from repro.core.database import Database
from repro.core.facts import Constant, Fact
from repro.core.query import (
    Atom,
    BooleanQuery,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
)


def _atom_skeleton(atom: Atom) -> tuple:
    """Atom shape with variables replaced by a per-atom occurrence pattern.

    Constants keep their repr here (the skeleton is only a *sort key*);
    the rendered fingerprint below keeps the constants themselves so that
    distinct constants with equal reprs can never collide.
    """
    local: dict[Variable, int] = {}
    terms = []
    for term in atom.terms:
        if isinstance(term, Variable):
            terms.append(("var", str(local.setdefault(term, len(local)))))
        else:
            terms.append(("const", repr(term)))
    return (atom.relation, atom.negated, tuple(terms))


def fingerprint_atoms(atoms: Iterable[Atom]) -> tuple:
    """Order- and alpha-invariant fingerprint of a set of atoms.

    Atoms are sorted by their local skeleton, then variables are numbered
    globally in first-occurrence order over the sorted list.
    """
    ordered = sorted(atoms, key=_atom_skeleton)
    names: dict[Variable, int] = {}
    rendered = []
    for atom in ordered:
        terms = []
        for term in atom.terms:
            if isinstance(term, Variable):
                terms.append(("var", names.setdefault(term, len(names))))
            else:
                terms.append(("const", term))
        rendered.append((atom.relation, atom.negated, tuple(terms)))
    return tuple(rendered)


_cached_repr = operator.attrgetter("_text")


def fingerprint_facts(facts: Iterable[Fact]) -> tuple:
    """Order-invariant fingerprint of a set of facts.

    The facts themselves are the key material (they are hashable), sorted
    by repr only to erase iteration order.  Facts whose reprs tie
    (``R(1)`` and ``R('1')``) are ordered by their type-tagged
    :func:`_render` text, so the order, and every digest of it, is the
    same in every process whatever the hash seed; without a tie the
    order is the repr order alone.  Reprs are read from each fact's
    cached text (:class:`repro.core.facts.Fact`).
    """
    ordered = list(facts)
    try:
        ordered.sort(key=_cached_repr)
    except AttributeError:
        ordered.sort(key=repr)
    if len(set(map(_cached_repr, ordered))) < len(ordered):
        ordered.sort(key=_tie_key)
    return tuple(ordered)


def _tie_key(item: Fact) -> tuple[str, str]:
    return repr(item), _render(item)


def fingerprint_query(query: BooleanQuery) -> tuple:
    """Fingerprint of a Boolean query (CQ¬ or UCQ¬)."""
    if isinstance(query, UnionQuery):
        return (
            "ucq",
            tuple(
                sorted(
                    (fingerprint_atoms(disjunct.atoms) for disjunct in query.disjuncts),
                    key=repr,
                )
            ),
        )
    return ("cq", fingerprint_atoms(query.atoms))


def fingerprint_database(database: Database) -> tuple:
    """Fingerprint of a database's endogenous/exogenous split.

    Derived once per database version (:meth:`Database.derived`).  Its
    endogenous half is also the canonical fact order: the engine's
    zero template and the daemon's wire rows are read from it, so every
    per-version table lists the facts in one order, ties included.
    """
    return database.derived(_fingerprint_database)


def _fingerprint_database(database: Database) -> tuple:
    return (
        fingerprint_facts(database.endogenous),
        fingerprint_facts(database.exogenous),
    )


def fingerprint_component(
    atoms: Iterable[Atom],
    exogenous: Iterable[Fact],
    endogenous: Iterable[Fact],
) -> tuple:
    """Cache key for one variable-connected component with its scoped facts.

    This is the "(component fingerprint, query fingerprint)" key of the
    engine: the atom fingerprint pins down the component's sub-query up to
    renaming, and the fact fingerprints pin down the data slice it owns.
    """
    return (
        fingerprint_atoms(atoms),
        fingerprint_facts(exogenous),
        fingerprint_facts(endogenous),
    )


def fingerprint_grounding(answer: tuple[Constant, ...]) -> tuple:
    """Type-tagged fingerprint of the head constants of a grounded query.

    Two groundings ``q_t`` and ``q_t'`` of the same non-Boolean query can
    substitute into *identical* atom sets (e.g. a repeated head variable,
    or constants that compare equal across Python types such as ``1`` and
    ``True``) while asking about different answer tuples.  The grounding
    fingerprint keeps the answer itself — with each constant tagged by its
    concrete type — so such requests can never collide in the result
    stores.
    """
    return tuple(
        ("ground", type(value).__name__, value) for value in answer
    )


def query_atoms(query: BooleanQuery) -> tuple[Atom, ...]:
    """Every atom a query can map onto facts (all disjuncts for a UCQ)."""
    if isinstance(query, UnionQuery):
        return tuple(atom for disjunct in query.disjuncts for atom in disjunct.atoms)
    return tuple(query.atoms)


def _constants(query: BooleanQuery) -> Iterable[Constant]:
    """The query's constants, atom by atom, in term order."""
    for atom in query_atoms(query):
        for term in atom.terms:
            if not isinstance(term, Variable):
                yield term


class FactIndex(evaluation.FactIndex):
    """One pass over ``D`` that serves the relevant slice of many queries.

    The core join index (:class:`repro.core.evaluation.FactIndex`) with
    the database's endogenous split on top.  :meth:`relevant` takes, for
    every atom, the smallest candidate list among the relation and the
    core columns of its constant positions, and filters it with the
    unchanged :meth:`repro.core.query.Atom.matches`; a column lookup by
    constant finds a superset of the positional matches, so the slice is
    exactly the one a full scan would find.  Slicing every grounding of
    an answer batch then costs ``O(|D| + Σ slice)`` instead of
    ``O(groundings × |D|)``.  One index per database version is kept
    in the database's memo (``database.derived(FactIndex)``), so every
    request against that version reads the same columns.

    ``endogenous`` is the database's endogenous fact set, taken once;
    ``endogenous_relations`` names the relations with at least one
    endogenous fact — the schema-level view from which the planner
    infers ``X`` (every other relation is exogenous, vacuously when it
    has no facts at all).  :meth:`request_key` memoizes each request's
    :func:`fingerprint_request` for the version.
    """

    __slots__ = ("endogenous", "endogenous_relations", "_keys")

    #: Request keys one version remembers; past this the memo starts over.
    REQUEST_KEYS = 256

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self.endogenous = database.endogenous
        self.endogenous_relations = frozenset(
            item.relation for item in self.endogenous
        )
        self._keys: dict[tuple, tuple] = {}

    def request_key(
        self,
        query: BooleanQuery,
        exogenous_relations: AbstractSet[str] | None,
        grounding: tuple[Constant, ...] | None,
    ) -> tuple:
        """:func:`fingerprint_request` of one request against this version.

        Computed once per ``(query, X, grounding)``; a repeat skips the
        relevance slice and the sort of its facts.  The memo key tags
        every constant with its type, as the fingerprint does, so
        constants equal across types (``1 == True``) never share a key.
        The memo holds queries and facts, never the database.
        """
        memo = (
            query,
            tuple(type(term) for term in _constants(query)),
            None if exogenous_relations is None else frozenset(exogenous_relations),
            None if grounding is None else fingerprint_grounding(grounding),
        )
        key = self._keys.get(memo)
        if key is None:
            key = _request_key(
                self.relevant(query), query, exogenous_relations, grounding
            )
            if len(self._keys) >= self.REQUEST_KEYS:
                self._keys = {}
            self._keys[memo] = key
        return key

    def relevant(self, query: BooleanQuery) -> tuple[frozenset[Fact], frozenset[Fact]]:
        """:func:`relevant_facts` of ``query`` against the indexed database."""
        matched = set()
        for atom in query_atoms(query):
            candidates: Collection[Fact] = self.relation(atom.relation)
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    found = self.column(atom.relation, position).get(term, ())
                    if len(found) < len(candidates):
                        candidates = found
            matched.update(item for item in candidates if atom.matches(item))
        endogenous = frozenset(item for item in matched if item in self.endogenous)
        return endogenous, frozenset(matched - endogenous)


def relevant_facts(
    database: Database, query: BooleanQuery
) -> tuple[frozenset[Fact], frozenset[Fact]]:
    """The ``(endogenous, exogenous)`` facts that can influence ``query``.

    A fact is *relevant* when some atom of the query matches it
    (:meth:`repro.core.query.Atom.matches`): same relation and arity,
    constants agreeing positionally, repeated variables satisfiable.
    Everything else is a null player — it can never witness or block an
    atom under any assignment, so satisfaction (and hence every count
    vector and attribution value) is a function of the relevant slice
    alone.  The test is deliberately conservative under cross-type
    equality (``1 == True``): a fact is only ever *included* spuriously,
    which shrinks reuse but can never corrupt a result.  The
    :class:`FactIndex` is derived once per database version and shared
    by every caller.
    """
    return database.derived(FactIndex).relevant(query)


def fingerprint_request(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: Iterable[str] | None,
    grounding: tuple[Constant, ...] | None = None,
) -> tuple:
    """Cache key for a whole batch request, scoped to the relevant slice.

    Only the facts of :func:`relevant_facts` are key material, so two
    database *versions* that differ in irrelevant facts share one store
    entry — the cross-version reuse at the heart of the delta-aware
    engine.  Stored values are accordingly the *projection* of the result
    to the relevant facts (see
    :func:`repro.engine.results.project_result`); the engine zero-fills
    the current version's irrelevant endogenous facts at its boundary.

    ``grounding`` carries the head constants when ``query`` was obtained
    by grounding a non-Boolean query at an answer tuple (see
    :func:`fingerprint_grounding`); ``None`` marks a plain Boolean
    request.  The key is memoized on the version's :class:`FactIndex`
    (:meth:`FactIndex.request_key`).
    """
    return database.derived(FactIndex).request_key(
        query, exogenous_relations, grounding
    )


class RequestKey(tuple):
    """A request key that hashes its facts once.

    A request key holds its relevance slice's facts, so hashing it hashes
    every fact, and the planner and the stores look one key up several
    times per request.  The hash is kept after first use.  A
    ``RequestKey`` equals, and hashes like, the plain tuple, and it
    pickles as a fresh one: the kept hash depends on the process's
    string-hash seed, so it never travels to a worker.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = value = tuple.__hash__(self)
            return value

    def __reduce__(self):
        return (RequestKey, (tuple(self),))


def _request_key(
    relevant: tuple[frozenset[Fact], frozenset[Fact]],
    query: BooleanQuery,
    exogenous_relations: Iterable[str] | None,
    grounding: tuple[Constant, ...] | None,
) -> RequestKey:
    endogenous, exogenous = relevant
    relations = (
        None
        if exogenous_relations is None
        else tuple(sorted(exogenous_relations))
    )
    return RequestKey(
        (
            "relevant",
            (fingerprint_facts(endogenous), fingerprint_facts(exogenous)),
            fingerprint_query(query),
            relations,
            None if grounding is None else fingerprint_grounding(grounding),
        )
    )


def canonical_grounding(
    query: BooleanQuery,
    relevant: tuple[frozenset[Fact], frozenset[Fact]],
    grounding: tuple[Constant, ...] | None = None,
) -> tuple[tuple, tuple[Fact, ...]] | None:
    """A request's grounded query and slice, up to renaming constants.

    Returns ``(key, endogenous)``: two requests with equal keys are
    isomorphic, and ``endogenous`` lists each one's endogenous facts in
    key order, so zipping two such lists pairs every fact with its image
    — equal Shapley and Banzhaf values by the symmetry axiom.

    Constants are renamed by ``==`` classes, as
    :meth:`repro.core.query.Atom.matches` compares them (``1`` and
    ``True`` are one constant): the answer's constants become head
    placeholders, the query's other constants stay fixed (their values
    are key material) and every other constant gets a fresh index, in an
    order read off the facts with those indices masked.  A request with
    isomorphic peers that orders its ties differently only misses an
    alias.  ``None`` means no key: a union query, or a constant unequal
    to itself (NaN), which no ``==`` class can hold.
    """
    if not isinstance(query, ConjunctiveQuery):
        return None
    labels: dict[Constant, int] = {}
    for value in grounding or ():
        if value != value:
            return None
        labels.setdefault(value, len(labels))
    fixed = []
    variables: dict[Variable, int] = {}
    atoms = []
    for atom in query.atoms:
        terms = []
        for term in atom.terms:
            if isinstance(term, Variable):
                terms.append(("var", variables.setdefault(term, len(variables))))
                continue
            if term not in labels:
                if term != term:
                    return None
                labels[term] = len(labels)
                fixed.append((labels[term], term))
            terms.append(labels[term])
        atoms.append((atom.relation, atom.negated, tuple(terms)))
    endogenous, exogenous = relevant
    facts = sorted(
        [(False, item) for item in endogenous] + [(True, item) for item in exogenous],
        key=lambda pair: (
            pair[0],
            pair[1].relation,
            tuple(labels.get(value, -1) for value in pair[1].args),
        ),
    )
    rendered = []
    for exogenous_fact, item in facts:
        args = []
        for value in item.args:
            if value not in labels:
                if value != value:
                    return None
                labels[value] = len(labels)
            args.append(labels[value])
        rendered.append((exogenous_fact, item.relation, tuple(args)))
    key = (tuple(atoms), tuple(fixed), tuple(rendered))
    return key, tuple(item for exogenous_fact, item in facts if not exogenous_fact)


def fingerprint_sampled(base_key: tuple, contract: tuple) -> tuple:
    """The store key of a *sampled* result under one accuracy contract.

    Sampled answers are estimates, so they must never be conflated with
    exact results (which live under the bare request key) nor with
    estimates of a different ``(epsilon, delta)`` class — ``contract``
    is :meth:`repro.engine.policy.MethodPolicy.contract`.  Tightening
    the contract therefore misses here by construction and falls
    through to the policy-independent sample state instead.
    """
    return ("sampled", base_key, contract)


_string = json.encoder.encode_basestring_ascii


def _render(obj: Any) -> str:
    """The canonical JSON text of a fingerprint tuple tree.

    Every value carries a type tag so that Python values that compare
    equal across types (``1 == True == 1.0``) produce distinct digests:
    ``["tuple",[...]]``, ``["fact",relation,[args]]``, ``["bool",b]``,
    ``["int","n"]``, ``["float","repr"]``, ``["str",s]``, ``["none"]``,
    and ``["repr",type name,repr]`` for any other constant.  The text is
    what ``json.dumps(..., separators=(",", ":"))`` prints for those
    lists, byte for byte — durable rows and handles are keyed by its
    digest — rendered directly instead of through an intermediate tree.

    A fact's text (:func:`_render_fact`) is computed once and kept on
    the fact (:class:`repro.core.facts.Fact`), so a digest over facts
    seen before joins strings that already exist: a successor
    version's handle renders only the facts its delta added.
    """
    if isinstance(obj, Fact):
        try:
            return obj._rendered
        except AttributeError:
            text = _render_fact(obj)
            object.__setattr__(obj, "_rendered", text)
            return text
    kind = type(obj)
    if kind is str:
        return '["str",' + _string(obj) + "]"
    if kind is int:
        # A plain int prints digits and a sign: nothing to escape.
        return '["int","' + str(obj) + '"]'
    if isinstance(obj, tuple):
        return '["tuple",[' + ",".join([_render(item) for item in obj]) + "]]"
    if isinstance(obj, bool):
        return '["bool",true]' if obj else '["bool",false]'
    if isinstance(obj, int):
        return '["int",' + _string(str(obj)) + "]"
    if isinstance(obj, float):
        return '["float",' + _string(repr(obj)) + "]"
    if isinstance(obj, str):
        return '["str",' + _string(obj) + "]"
    if obj is None:
        return '["none"]'
    return (
        '["repr",' + _string(type(obj).__name__) + "," + _string(repr(obj)) + "]"
    )


def _render_fact(item: Fact) -> str:
    """The ``["fact",relation,[args]]`` text of one fact, not cached."""
    relation = item.relation
    return (
        '["fact",'
        + (
            _string(relation)
            if isinstance(relation, str)
            else json.dumps(relation, separators=(",", ":"))
        )
        + ",["
        + ",".join([_render(arg) for arg in item.args])
        + "]]"
    )


def digest_key(key: tuple) -> str:
    """Stable SHA-256 hex digest of a fingerprint tuple."""
    return hashlib.sha256(_render(key).encode("utf-8")).hexdigest()


def database_digest(database: Database) -> str:
    """``digest_key(fingerprint_database(database))``, once per version.

    The content address of a database version: daemon handles, fleet
    routing, and the durable store's writer tags all derive from it.
    """
    return database.derived(_database_digest)


def _database_digest(database: Database) -> str:
    return digest_key(fingerprint_database(database))


def fingerprint_sample_state(base_key: tuple) -> tuple:
    """The store key of a request's resumable sampler state.

    Deliberately *policy-independent*: every accuracy contract over the
    same request extends one permutation stream, so a loose first
    request, a tight refinement, and a post-delta repeat all resume the
    same stored state.
    """
    return ("sample-state", base_key)


__all__ = [
    "FactIndex",
    "canonical_grounding",
    "database_digest",
    "digest_key",
    "fingerprint_atoms",
    "fingerprint_component",
    "fingerprint_database",
    "fingerprint_facts",
    "fingerprint_grounding",
    "fingerprint_query",
    "fingerprint_request",
    "fingerprint_sample_state",
    "fingerprint_sampled",
    "query_atoms",
    "relevant_facts",
]
