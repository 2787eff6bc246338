"""Count vectors and per-fact Lemma 3.2 numerators in one shared recursion.

The seed pipeline computes ``Shapley(D, q, f)`` fact-at-a-time: two full
CntSat count vectors per endogenous fact, i.e. ``2m`` complete recursions
for ``m`` facts.  This module computes the same values for *all* facts
with one forward traversal of the CntSat recursion tree and one backward
pass over it.

* **Forward tape.**  The forward pass computes only the baseline count
  vector ``Sat`` of every subproblem, exactly as CntSat does: AND steps
  (variable-connected components of the Gaifman graph, which touch
  disjoint fact sets) convolve their children's vectors and the free
  facts' binomial row; OR steps (slices of a component by its root
  variable's value) convolve the slices' UNSAT vectors; single-atom
  components are the base case.  Each :class:`CountBundle` records its
  step and its children — the *tape* — next to its vector.

* **Backward cotangents.**  Lemma 3.2 needs, per fact ``f``, the vectors
  with ``f`` exogenous (``Sat^{+f}``) and with ``f`` deleted
  (``Sat^{-f}``).  They satisfy the partition identity ``Sat(k + 1) =
  Sat^{+f}(k) + Sat^{-f}(k + 1)`` (a ``(k+1)``-subset either contains
  ``f`` or not), so both the Shapley and the Banzhaf numerator are a
  baseline constant minus a linear functional ``<c, Sat^{-f}>`` of the
  deletion vector alone (:mod:`repro.engine.results` builds ``c``).
  Every CntSat step is affine in the deletion vector of the one child
  that owns ``f``: an AND step convolves it with the product ``rest`` of
  the other factors, an OR step maps it to ``remaining - (players - d) *
  rest``.  The adjoint of convolving with ``rest`` is correlating with it
  (:func:`repro.util.kernels.correlate`), so :func:`pull_back` carries
  ``c`` down the tape once, child by child, and finishes every leaf with
  one dot product against the deletion vector its facts share.  No
  length-``n`` vector is ever built per fact.

* **Bucketed slices.**  An OR step buckets its facts by root value once
  and builds every slice's AND entry straight from the value's buckets.
  The facts reaching a component already match its atoms — the
  top-level restriction checks constants and repeated variables, and a
  bucket keeps them matching the substituted atoms — so a slice frees
  no fact, and how it splits into components depends only on the
  atoms: one memoized *slice layout* per component lists the groups.
  A group of one atom is a closed-form leaf (:func:`_atom_step`): the
  atom holds exactly when one of its facts is present, so its vector
  follows from whether it is negated, whether it has an exogenous fact
  and its endogenous fact count ``k``, and all ``k`` facts share one
  deletion vector.  Every other group is substituted and looked up in
  the bundle cache.

* **Short outputs.**  A child owning ``s`` facts only needs the first
  ``s`` entries of its cotangent.  At an OR step with many slices the
  cotangent correlated with the class representatives before ``b``
  (below) advances one short UNSAT factor at a time, and representative
  ``b`` then takes its ``s`` entries from one short-output correlation
  with the suffix product after it.

* **Shape classes.**  Facts in isomorphic positions have equal values
  (the symmetry axiom), and many slices of an OR step are isomorphic.
  Every tape entry carries a *shape*, a digest of everything the
  backward pass reads below it, with an OR step's slice shapes sorted so
  that constant names do not matter.  Both passes work once per shape
  class.  Forward, an AND or OR entry whose kind and child shapes were
  already seen in the pass reuses that entry's vector and shape instead
  of convolving and hashing again.  Backward, an OR step descends into
  one representative per class: the other members' UNSAT vectors are a
  factor of every representative's all-but-one product, so each
  cotangent is correlated with their product once, up front, and the
  prefix/suffix chain runs over the representatives alone.  The other
  members copy the numerators along a fact walk in shape order.  No
  constant is renamed, nothing is divided, and a shape is a digest
  rather than an object identity, so bundles shipped back from worker
  processes group exactly like local ones.

Facts that can never influence satisfaction — facts of relations the
query does not mention, and facts that fail their atom's constant or
repeated-variable pattern — are recognized up front and reported with a
zero value instead of being dragged through the recursion.

Per-component bundles are memoized in a caller-supplied
:class:`repro.engine.cache.LRUCache` keyed by
:func:`repro.engine.fingerprint.fingerprint_component`, so overlapping
and repeated requests share sub-results across engine calls.  Bundles
hold only baseline vectors, so one cached tape serves every request and
every database size it appears in; the cotangent, which depends on the
request's player count, is never cached.

The integer work runs in :mod:`repro.util.kernels`: products through
``kernels.convolve`` and ``kernels.convolve_many`` and free-fact rows
through ``kernels.binomial_row``, each looked up on the module at the
call, so an instrumented ``kernels.convolve`` sees every product.  The
rows are built per call; the only memo of this module is the slice
layouts, which hold atoms and are bounded.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from operator import mul
from typing import Callable, Collection, Iterable, Iterator, Sequence

from repro.core.database import Database
from repro.core.errors import NotHierarchicalError, SelfJoinError
from repro.core.facts import Constant, Fact
from repro.core.hierarchy import is_hierarchical
from repro.core.query import Atom, ConjunctiveQuery, Variable
from repro.engine.cache import BundlePool, LRUCache
from repro.engine.fingerprint import fingerprint_component
from repro.util import kernels
from repro.util.graphs import key_groups
from repro.util.kernels import correlate

# Anything with get_or_compute(key, thunk): an engine LRU or a call-scoped
# pool layered on top of one (cross-grounding sharing in batch_answers).
BundleCache = LRUCache | BundlePool


@dataclass(frozen=True)
class _Scoped:
    """An atom together with the facts still eligible to match it."""

    atom: Atom
    exogenous: frozenset[Fact]
    endogenous: frozenset[Fact]


#: :attr:`CountBundle.kind` of the three CntSat steps.
AND = "and"
OR = "or"
ATOM = "atom"


@dataclass(frozen=True)
class CountBundle:
    """The baseline count vector of a subproblem and its step on the tape.

    ``sat`` has length ``owned + 1``.  ``kind`` is the CntSat step that
    produced it and ``parts`` that step's inputs: the child bundles of an
    :data:`AND` step (components; the other ``owned - sum(child.owned)``
    facts are free) or an :data:`OR` step (root-variable slices), and for
    an :data:`ATOM` leaf the pair ``(deletion vector, facts)``: all its
    owned facts share one deletion vector.  Facts in ``zero`` provably
    have ``Sat^{+f} == Sat^{-f}`` (their Shapley and Banzhaf values
    vanish); every other owned fact is reached by exactly one path down
    the tape.  A bundle without such a fact is never descended into and
    has no ``parts``.

    ``shape`` is a process-stable digest of everything the backward pass
    reads below this entry (:func:`_shape`): two bundles with equal
    shapes yield equal numerators, position for position along
    :func:`_live_facts`, for equal cotangents.
    """

    owned: int
    sat: tuple[int, ...]
    zero: frozenset[Fact]
    kind: str
    parts: tuple
    shape: bytes

    @property
    def live(self) -> bool:
        """Whether any owned fact has a possibly non-zero value."""
        return self.owned > len(self.zero)


# The first entry of each (kind, child shapes) key in one forward pass
# (:func:`_shared_step`), and of each (ATOM, (negated, exogenous, k)) key
# (:func:`_atom_step`).  Each pass makes its own: engine work runs on
# daemon threads, and a cold engine must stay cold.
StepMemo = dict[tuple[str, tuple], CountBundle]

#: The empty fact set every bundle without zero facts shares.
_NO_FACTS: frozenset[Fact] = frozenset()


def _step(
    owned: int, sat: Sequence[int], zero: set[Fact], kind: str, parts: tuple
) -> CountBundle:
    """One tape entry.

    Cached bundles keep their whole subtree alive, so an entry the
    backward pass never descends into — one without a live fact — keeps
    only its vector, and empty fact sets are shared.
    """
    facts = frozenset(zero) if zero else _NO_FACTS
    if owned == len(facts):
        parts = ()
    sat = tuple(sat)
    return CountBundle(
        owned, sat, facts, kind, parts, _shape(owned, sat, len(facts), kind, parts)
    )


def _shape(
    owned: int, sat: tuple[int, ...], zero: int, kind: str, parts: tuple
) -> bytes:
    """The tape shape of one entry: a digest that survives pickling.

    It covers the step, its counts and vector, the child shapes — in
    order for an AND step, whose children follow the query's atom order,
    and sorted for an OR step, whose slices are ordered by the ``repr``
    of a constant, a naming accident — and a leaf's one shared deletion
    vector.  Flat integer tuples pickle to canonical bytes.
    """
    digest = blake2b(pickle.dumps((kind, owned, zero, sat)), digest_size=16)
    if kind == ATOM:
        if parts:
            digest.update(pickle.dumps(parts[0]))
    else:
        shapes = [child.shape for child in parts]
        digest.update(b"".join(sorted(shapes) if kind == OR else shapes))
    return digest.digest()


@dataclass(frozen=True)
class BatchVectors:
    """The forward pass over a whole database.

    ``baseline[k] == |Sat(D, q, k)|`` (length ``total_players + 1``);
    ``root`` is the tape of the query-relation facts, and the other
    ``total_players - root.owned`` endogenous facts are outside the
    query.  ``zero_facts`` hold every fact with a provably zero value.
    """

    total_players: int
    baseline: tuple[int, ...]
    root: CountBundle
    zero_facts: frozenset[Fact]


def _matching(atom: Atom, facts: frozenset[Fact]) -> frozenset[Fact]:
    """The facts of ``atom``'s relation that :meth:`Atom.matches` keeps.

    An atom of pairwise-distinct variables binds each value once, so it
    keeps every fact of its arity whose values equal themselves (all but
    NaN): when one pass finds that true of every fact, ``facts`` comes
    back as it is, without a per-fact match.
    """
    arity = atom.arity
    if (
        len(atom.variables) == arity
        and all(len(item.args) == arity for item in facts)
        and all(value == value for item in facts for value in item.args)
    ):
        return facts
    return frozenset(item for item in facts if atom.matches(item))


def _restricted_components(
    scope: Sequence[_Scoped],
) -> tuple[list[list[_Scoped]], set[Fact]]:
    """Atom-level restriction, then the variable-connected component split.

    Returns the components of the restricted scope together with the
    *free* facts — endogenous facts that fail their atom's constant or
    repeated-variable pattern and can therefore never influence
    satisfaction.  Both the recursion (:func:`batch_count_vectors`) and
    the planner (:func:`top_level_components`) go through this helper, so
    the component boundaries — and hence the fingerprint cache keys —
    are identical in both layers by construction.
    """
    free_facts: set[Fact] = set()
    restricted: list[_Scoped] = []
    for scoped in scope:
        matching_exo = _matching(scoped.atom, scoped.exogenous)
        matching_endo = _matching(scoped.atom, scoped.endogenous)
        free_facts |= scoped.endogenous - matching_endo
        restricted.append(_Scoped(scoped.atom, matching_exo, matching_endo))
    groups = key_groups([scoped.atom.variables for scoped in restricted])
    return [[restricted[i] for i in group] for group in groups], free_facts


def _component_key(
    atoms: Sequence[Atom],
    exogenous: Sequence[frozenset[Fact]],
    endogenous: Sequence[frozenset[Fact]],
) -> tuple:
    """The bundle-cache key of one component, its facts given per atom."""
    return fingerprint_component(
        atoms,
        (item for facts in exogenous for item in facts),
        (item for facts in endogenous for item in facts),
    )


def _bundle_component(
    atoms: tuple[Atom, ...],
    exogenous: Sequence[frozenset[Fact]],
    endogenous: Sequence[frozenset[Fact]],
    cache: BundleCache,
    memo: StepMemo,
) -> CountBundle:
    """A non-ground component's entry, memoized under its fingerprint.

    A single atom is a leaf in closed form; more atoms are an OR step.
    """

    def compute() -> CountBundle:
        if len(atoms) == 1:
            return _atom_step(atoms[0].negated, exogenous[0], endogenous[0], memo)
        return _bundle_component_fresh(atoms, exogenous, endogenous, cache, memo)

    return cache.get_or_compute(_component_key(atoms, exogenous, endogenous), compute)


@lru_cache(maxsize=1024)
def _slice_layout(
    atoms: tuple[Atom, ...],
) -> tuple[Variable, tuple[int, ...], tuple[tuple[bool, tuple[int, ...]], ...]]:
    """How every slice of a component splits: ``(root, at, groups)``.

    ``root`` is the component's root variable and ``at[i]`` its first
    position in atom ``i``.  Substituting a value for the root removes
    the same variable from every atom whatever the value, so the
    slices' variable-connected components are the same atom-index
    ``groups`` for every value, in :func:`~repro.util.graphs.key_groups`
    order; each is flagged when it is a single atom, a leaf of
    :func:`_atom_step`.
    """
    roots = frozenset.intersection(*(atom.variables for atom in atoms))
    if not roots:
        raise NotHierarchicalError(
            "connected subquery without a root variable: "
            + ", ".join(repr(atom) for atom in atoms)
        )
    root = min(roots, key=lambda var: var.name)
    rest = [atom.variables - {root} for atom in atoms]
    groups = tuple((len(group) == 1, tuple(group)) for group in key_groups(rest))
    return root, tuple(atom.terms.index(root) for atom in atoms), groups


def _bundle_component_fresh(
    atoms: tuple[Atom, ...],
    exogenous: Sequence[frozenset[Fact]],
    endogenous: Sequence[frozenset[Fact]],
    cache: BundleCache,
    memo: StepMemo,
) -> CountBundle:
    """OR step: one AND entry per root value, built from the value's buckets.

    The facts reaching a component already match its atoms (the
    top-level restriction checks constants and repeated variables, and
    bucketing by the root value keeps them matching the substituted
    atoms under the same ``==``), so a slice frees no fact and needs no
    restriction: its groups come from :func:`_slice_layout`.
    """
    root, at, groups = _slice_layout(atoms)
    # One pass buckets every fact of every atom by its root value.
    exo_buckets = [_bucket(facts, position) for facts, position in zip(exogenous, at)]
    endo_buckets = [_bucket(facts, position) for facts, position in zip(endogenous, at)]
    candidates = {
        value
        for pair in zip(exo_buckets, endo_buckets)
        for buckets in pair
        for value in buckets
    }

    slice_bundles: list[CountBundle] = []
    for value in sorted(candidates, key=repr):
        children: list[CountBundle] = []
        for single, group in groups:
            if single:
                (i,) = group
                children.append(
                    _atom_step(
                        atoms[i].negated,
                        exo_buckets[i].get(value, ()),
                        endo_buckets[i].get(value, ()),
                        memo,
                    )
                )
            else:
                binding = {root: value}
                children.append(
                    _bundle_component(
                        tuple(atoms[i].substitute(binding) for i in group),
                        [frozenset(exo_buckets[i].get(value, ())) for i in group],
                        [frozenset(endo_buckets[i].get(value, ())) for i in group],
                        cache,
                        memo,
                    )
                )
        slice_bundles.append(
            _shared_step(
                memo,
                AND,
                tuple(children),
                lambda: kernels.convolve_many([child.sat for child in children]),
            )
        )

    return _shared_step(
        memo,
        OR,
        tuple(slice_bundles),
        lambda: _subtract_vectors(
            kernels.binomial_row(sum(bundle.owned for bundle in slice_bundles)),
            kernels.convolve_many([_unsat(bundle) for bundle in slice_bundles]),
        ),
    )


def _shared_step(
    memo: StepMemo, kind: str, children: tuple, product: Callable[[], list[int]]
) -> CountBundle:
    """An AND or OR entry over ``children``, its vector computed once per pass.

    An entry's counts, vector and shape follow from its kind and its
    children's shapes — in order for AND, sorted for OR, the orders
    :func:`_shape` hashes — since a shape digests its entry's counts and
    vector.  So the first entry of a ``(kind, child shapes)`` key calls
    ``product`` and hashes; the later ones reuse its ``owned``, ``sat``
    and ``shape`` and keep only their own children and zero facts.  A
    slice owns no free fact, so ``owned`` is its children's.
    """
    shapes = tuple(child.shape for child in children)
    key = (kind, tuple(sorted(shapes)) if kind == OR else shapes)
    zero: set[Fact] = set()
    for child in children:
        zero |= child.zero
    known = memo.get(key)
    if known is None:
        known = memo[key] = _step(
            sum(child.owned for child in children), product(), zero, kind, children
        )
        return known
    facts = frozenset(zero) if zero else _NO_FACTS
    parts = () if known.owned == len(facts) else children
    return CountBundle(known.owned, known.sat, facts, kind, parts, known.shape)


def _bucket(facts: Iterable[Fact], position: int) -> dict[Constant, list[Fact]]:
    """``facts`` grouped by their constant at ``position``."""
    buckets: dict[Constant, list[Fact]] = {}
    for item in facts:
        buckets.setdefault(item.args[position], []).append(item)
    return buckets


def _unsat(bundle: CountBundle) -> list[int]:
    """The UNSAT count vector of a slice of an OR step."""
    return _subtract_vectors(kernels.binomial_row(bundle.owned), bundle.sat)


def _subtract_vectors(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Element-wise ``left - right``, padding the shorter vector with zeros."""
    size = max(len(left), len(right))
    return [
        (left[k] if k < len(left) else 0) - (right[k] if k < len(right) else 0)
        for k in range(size)
    ]


def _atom_step(
    negated: bool,
    exogenous: Collection[Fact],
    endogenous: Collection[Fact],
    memo: StepMemo,
) -> CountBundle:
    """A single-atom component, in closed form.

    Every fact reaching the atom matches it, so the atom holds exactly
    when one of them is present.  With ``k`` endogenous facts:

    * positive, with an exogenous fact: it always holds, ``sat = C(k, .)``,
      and every fact is a zero fact;
    * positive, without: ``sat = C(k, .)`` but ``sat[0] = 0``, and every
      fact's deletion vector is ``C(k - 1, .)`` with entry ``0`` set to 0;
    * negated, with an exogenous fact: ``sat`` is all zeros, and every
      fact is a zero fact;
    * negated, without: ``sat = (1, 0, ..., 0)``, and every fact's
      deletion vector is ``(1, 0, ..., 0)`` of length ``k``.

    The entry depends on the facts only through ``k``, so the first leaf
    of each ``(negated, exogenous, k)`` in the pass is built and hashed,
    and the later ones reuse its vectors and shape with their own facts.
    """
    facts = tuple(endogenous)
    key = (ATOM, (negated, bool(exogenous), len(facts)))
    known = memo.get(key)
    if known is None:
        known = memo[key] = _atom_entry(negated, bool(exogenous), facts)
        return known
    if not facts:
        return known
    if known.live:
        zero, parts = _NO_FACTS, (known.parts[0], facts)
    else:
        zero, parts = frozenset(facts), ()
    return CountBundle(known.owned, known.sat, zero, ATOM, parts, known.shape)


def _atom_entry(
    negated: bool, exogenous: bool, facts: tuple[Fact, ...]
) -> CountBundle:
    """The leaf :func:`_atom_step` describes, built and hashed."""
    k = len(facts)
    if exogenous:
        sat = [0] * (k + 1) if negated else kernels.binomial_row(k)
        return _step(k, sat, set(facts), ATOM, ())
    if negated:
        sat, deletion = [1] + [0] * k, [1] + [0] * (k - 1)
    else:
        sat, deletion = kernels.binomial_row(k), kernels.binomial_row(max(k - 1, 0))
        sat[0] = deletion[0] = 0
    return _step(k, sat, set(), ATOM, (tuple(deletion), facts))


def _initial_scope(database: Database, query: ConjunctiveQuery) -> list[_Scoped]:
    """The top-level scope: every query atom with its relation's facts."""
    return [
        _Scoped(
            atom,
            frozenset(
                item
                for item in database.relation(atom.relation)
                if database.is_exogenous(item)
            ),
            frozenset(
                item
                for item in database.relation(atom.relation)
                if database.is_endogenous(item)
            ),
        )
        for atom in query.atoms
    ]


def top_level_components(
    database: Database, query: ConjunctiveQuery
) -> list[tuple[tuple, tuple[_Scoped, ...]]]:
    """The memoizable top-level component tasks of ``(D, q)``.

    Returns ``(fingerprint, scoped component)`` pairs for every non-ground
    variable-connected component of the restricted top-level scope — the
    exact subproblems :func:`batch_count_vectors` will look up in its
    bundle cache, under the exact keys it will use (both sides go through
    :func:`_restricted_components` and :func:`_component_key`).  The
    planner turns each pair into one bundle node of the work DAG, a
    single-atom leaf included, so a delta that leaves it alone reuses
    it; ground components are omitted because the recursion computes
    them inline instead of fingerprinting them.
    """
    query = query.as_boolean()
    components, _ = _restricted_components(_initial_scope(database, query))
    return [
        (
            _component_key(
                [scoped.atom for scoped in component],
                [scoped.exogenous for scoped in component],
                [scoped.endogenous for scoped in component],
            ),
            tuple(component),
        )
        for component in components
        if any(scoped.atom.variables for scoped in component)
    ]


def bundle_for_component(
    component: Sequence[_Scoped], cache: BundleCache | None = None
) -> CountBundle:
    """Compute one restricted top-level component's :class:`CountBundle`.

    This is the executable payload of a bundle plan node: worker
    processes call it with a fresh local cache (sub-slices still share
    within the component), the serial path through the recursion.
    """
    if cache is None:
        cache = LRUCache(128)
    return _bundle_top(component, cache, {})


def _bundle_top(
    component: Sequence[_Scoped], cache: BundleCache, memo: StepMemo
) -> CountBundle:
    """:func:`bundle_for_component` inside a forward pass's step memo."""
    if not any(scoped.atom.variables for scoped in component):
        # Ground components are cheaper to compute than to fingerprint.
        (scoped,) = component
        return _atom_step(
            scoped.atom.negated, scoped.exogenous, scoped.endogenous, memo
        )
    return _bundle_component(
        tuple(scoped.atom for scoped in component),
        [scoped.exogenous for scoped in component],
        [scoped.endogenous for scoped in component],
        cache,
        memo,
    )


def cntsat_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """``query`` as a Boolean CQ¬ inside the tractable class of Theorem 3.1.

    Raises :class:`SelfJoinError` / :class:`NotHierarchicalError` outside it.
    """
    query = query.as_boolean()
    if not query.is_self_join_free:
        raise SelfJoinError(
            f"the batch engine requires a self-join-free query, got {query!r}"
        )
    if not is_hierarchical(query):
        raise NotHierarchicalError(
            f"the batch engine requires a hierarchical query, got {query!r}"
        )
    return query


def batch_count_vectors(
    database: Database,
    query: ConjunctiveQuery,
    cache: BundleCache | None = None,
) -> BatchVectors:
    """The forward pass over ``(D, q)``: the baseline vector and its tape.

    The root entry is the top-level AND step: the atom-level restriction
    frees the facts that fail their atom's pattern, and the components
    of the rest multiply with the free facts' binomial row.
    :func:`pull_back` then runs the backward pass over the tape.  The
    baseline is :func:`repro.shapley.exact.count_satisfying_subsets`.
    Raises like :func:`cntsat_query`.
    """
    query = cntsat_query(query)
    if cache is None:
        cache = LRUCache(0)

    components, free_facts = _restricted_components(_initial_scope(database, query))
    memo: StepMemo = {}
    children = tuple(_bundle_top(component, cache, memo) for component in components)
    sat = kernels.convolve(
        kernels.convolve_many([child.sat for child in children]),
        kernels.binomial_row(len(free_facts)),
    )
    zero = set(free_facts)
    for child in children:
        zero |= child.zero
    owned = sum(child.owned for child in children) + len(free_facts)
    root = _step(owned, sat, zero, AND, children)

    query_relations = query.relation_names
    unused = frozenset(
        item for item in database.endogenous if item.relation not in query_relations
    )
    total = len(database.endogenous)
    baseline = tuple(kernels.convolve(root.sat, kernels.binomial_row(len(unused))))
    assert len(baseline) == total + 1, (len(baseline), total + 1)
    return BatchVectors(total, baseline, root, root.zero | unused)


def pull_back(
    vectors: BatchVectors, cotangents: Sequence[Sequence[int]]
) -> dict[Fact, list[int]]:
    """``<c, Sat^{-f}>`` for every live fact ``f`` and every cotangent ``c``.

    Each cotangent has length ``total_players``, one entry per coalition
    size of the deletion vector ``Sat^{-f}`` over ``Dn ∖ {f}``.  Returns
    one integer per cotangent for every fact outside ``zero_facts``, in
    one backward pass over the tape and without building any ``Sat^{-f}``.
    """
    numerators: dict[Fact, list[int]] = {}
    root = vectors.root
    if root.live:
        outside = kernels.binomial_row(vectors.total_players - root.owned)
        _pull_back(
            root,
            [correlate(c, outside, root.owned) for c in cotangents],
            [0] * len(cotangents),
            numerators,
        )
    return numerators


def _dot(left: Sequence[int], right: Sequence[int]) -> int:
    return sum(map(mul, left, right))


def _pull_back(
    bundle: CountBundle,
    cotangents: list[list[int]],
    offsets: list[int],
    out: dict[Fact, list[int]],
) -> None:
    """Set ``out[f]`` to ``offset + <g, d_f>`` per cotangent ``g``.

    ``f`` ranges over the live facts of ``bundle``, ``d_f`` is the
    fact's deletion vector over the bundle's other ``owned - 1`` facts,
    and every ``g`` has length ``owned``.
    """
    if bundle.kind == ATOM:
        deletion, facts = bundle.parts
        numerators = [o + _dot(g, deletion) for g, o in zip(cotangents, offsets)]
        out.update(dict.fromkeys(facts, numerators))
    elif bundle.kind == AND:
        _pull_back_and(bundle, cotangents, offsets, out)
    else:
        _pull_back_or(bundle, cotangents, offsets, out)


def _pull_back_and(
    bundle: CountBundle,
    cotangents: list[list[int]],
    offsets: list[int],
    out: dict[Fact, list[int]],
) -> None:
    """AND step: ``d_f = d_child * rest``, so ``g`` pulls back to ``corr(g, rest)``.

    The free facts' binomial row is a factor of every child's ``rest``
    and is correlated away once, up front.
    """
    children = bundle.parts
    bound = sum(child.owned for child in children)
    if bound < bundle.owned:
        free = kernels.binomial_row(bundle.owned - bound)
        cotangents = [correlate(g, free, bound) for g in cotangents]
    for j, child in enumerate(children):
        if child.live:
            rest = kernels.convolve_many(
                [other.sat for i, other in enumerate(children) if i != j]
            )
            _pull_back(
                child,
                [correlate(g, rest, child.owned) for g in cotangents],
                offsets,
                out,
            )


def _pull_back_or(
    bundle: CountBundle,
    cotangents: list[list[int]],
    offsets: list[int],
    out: dict[Fact, list[int]],
) -> None:
    """OR step: ``d_f = remaining - (players - d_child) * rest``.

    With ``g_b = corr(g, rest)`` for slice ``b`` (``rest`` the product of
    the other slices' UNSAT vectors), ``<g, d_f> = <g, remaining> -
    <g_b, players> + <g_b, d_child>``: the first two terms join the
    offset and ``g_b`` continues down.

    Slices of one shape share ``rest`` and their numerators, so only one
    representative per shape class is descended into, and the other
    members copy its numerators fact by fact along :func:`_live_facts`.
    Every representative's ``rest`` has the other members' UNSAT vectors
    as a factor, ``Q = prod_c u_c^(m_c - 1)`` over classes ``c`` of
    ``m_c`` members (each power by :func:`_power`), and ``corr(g, A * B)
    == corr(corr(g, A), B)``: each cotangent is correlated with ``Q``
    once, down to the representatives' total ``owned``, with no
    division.  The representatives then form a chain: ``prefix`` holds
    each cotangent correlated with the UNSAT vectors of the
    representatives before ``b``, one short factor at a time;
    ``suffix[b + 1]`` is the product of those after it, and
    representative ``b`` needs only its ``owned`` outputs of their
    correlation.  An all-zero UNSAT vector needs no special case: it
    zeroes every product it is a factor of.
    """
    classes: dict[bytes, list[CountBundle]] = {}
    for child in bundle.parts:
        classes.setdefault(child.shape, []).append(child)
    chain = [members[0] for members in classes.values()]
    live = [b for b, child in enumerate(chain) if child.live]
    if not live:
        return
    remaining = kernels.binomial_row(bundle.owned - 1)
    base = [o + _dot(g, remaining) for g, o in zip(cotangents, offsets)]
    unsat = [_unsat(child) for child in chain]
    prefix = cotangents
    powers = [
        _power(factor, len(members) - 1)
        for members, factor in zip(classes.values(), unsat)
        if len(members) > 1
    ]
    if powers:
        shared = kernels.convolve_many(powers)
        width = sum(child.owned for child in chain)
        prefix = [correlate(g, shared, width) for g in cotangents]
    last = len(chain) - 1
    suffix = [[1]] * (last + 2)
    for b in range(last, live[0], -1):
        suffix[b] = unsat[b] if b == last else kernels.convolve(unsat[b], suffix[b + 1])
    for b in range(live[-1] + 1):
        child = chain[b]
        if child.live:
            local = [correlate(p, suffix[b + 1], child.owned) for p in prefix]
            players = kernels.binomial_row(child.owned - 1)
            _pull_back(
                child, local, [c - _dot(g, players) for c, g in zip(base, local)], out
            )
            members = classes[child.shape]
            if len(members) > 1:
                numerators = [out[item] for item in _live_facts(child)]
                for member in members[1:]:
                    out.update(zip(_live_facts(member), numerators))
        if b < live[-1]:
            prefix = [correlate(p, unsat[b], len(p) - child.owned) for p in prefix]


def _power(vector: list[int], exponent: int) -> list[int]:
    """``vector`` convolved with itself to the power ``exponent >= 1``.

    Square-and-multiply: about ``2 log2(exponent)`` convolutions of
    doubling sizes instead of ``exponent - 1``.
    """
    result = None
    while True:
        if exponent & 1:
            result = vector if result is None else kernels.convolve(result, vector)
        exponent >>= 1
        if not exponent:
            return result
        vector = kernels.convolve(vector, vector)


def _live_facts(bundle: CountBundle) -> Iterator[Fact]:
    """The live facts below ``bundle`` in shape order.

    A leaf's facts all have one numerator, AND children are taken in the
    query's atom order and OR slices sorted by shape — the orders
    :func:`_shape` hashes — so two bundles of one shape list their facts
    with equal numerators at equal positions.
    """
    if bundle.kind == ATOM:
        yield from bundle.parts[1]
        return
    children = bundle.parts
    if bundle.kind == OR:
        children = sorted(children, key=lambda child: child.shape)
    for child in children:
        if child.live:
            yield from _live_facts(child)
