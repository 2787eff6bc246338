"""Synthetic workload generators: random databases and random queries.

The paper has no external datasets (all its objects are synthetic
constructions), so these generators provide the instance families for the
property-based tests and the scaling benchmarks:

* random databases for a fixed query, with controlled domain size and
  endogenous ratio;
* random hierarchical self-join-free CQ¬s (built top-down from the
  hierarchy tree, so hierarchicality holds by construction);
* random arbitrary self-join-free CQ¬s (for the dichotomy classifiers);
* scaling families for the Section 4 exogenous-relation experiments.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import Atom, ConjunctiveQuery, Variable


def random_database_for_query(
    query: ConjunctiveQuery,
    domain_size: int = 4,
    fill_probability: float = 0.45,
    endogenous_probability: float = 0.6,
    exogenous_relations: Sequence[str] = (),
    rng: random.Random | None = None,
) -> Database:
    """A random database over the query's schema.

    Every relation of the query gets each tuple over ``{0..domain_size-1}``
    independently with ``fill_probability``; facts of relations listed in
    ``exogenous_relations`` are exogenous, other facts are endogenous with
    ``endogenous_probability``.  Constants mentioned by the query are
    added to the domain so constant atoms are exercised.
    """
    rng = rng or random.Random()
    domain: list = list(range(domain_size))
    for atom in query.atoms:
        for constant in atom.constants:
            if constant not in domain:
                domain.append(constant)
    arities = {atom.relation: atom.arity for atom in query.atoms}
    db = Database()
    for relation, arity in sorted(arities.items()):
        for combo in itertools.product(domain, repeat=arity):
            if rng.random() >= fill_probability:
                continue
            endogenous = (
                relation not in exogenous_relations
                and rng.random() < endogenous_probability
            )
            db.add(Fact(relation, combo), endogenous=endogenous)
    return db


def _fresh_relation_name(index: int) -> str:
    return f"R{index}"


def random_hierarchical_query(
    max_depth: int = 3,
    max_children: int = 2,
    negation_probability: float = 0.35,
    rng: random.Random | None = None,
) -> ConjunctiveQuery:
    """A random hierarchical self-join-free CQ¬ with safe negation.

    Construction: a hierarchy tree.  Each node owns a variable shared by
    all atoms in its subtree; leaves emit atoms over their ancestor
    variables.  Sibling subtrees share no variables below the common
    ancestors, which is exactly the hierarchical condition.  Negated atoms
    are only emitted alongside a positive sibling over the same variables
    (keeping negation safe).
    """
    rng = rng or random.Random()
    counter = itertools.count()
    atoms: list[Atom] = []

    def grow(ancestors: tuple[Variable, ...], depth: int) -> None:
        var = Variable(f"v{next(counter)}")
        scope = ancestors + (var,)
        children = rng.randint(0, max_children) if depth < max_depth else 0
        if children == 0:
            relation = _fresh_relation_name(len(atoms))
            atoms.append(Atom(relation, scope, negated=False))
            if rng.random() < negation_probability:
                # The negated atom's variable set must be a *prefix* of the
                # root-to-leaf chain, otherwise hierarchicality breaks.
                relation = _fresh_relation_name(len(atoms))
                prefix = scope[: rng.randint(1, len(scope))]
                terms = prefix + ((prefix[-1],) if rng.random() < 0.3 else ())
                atoms.append(Atom(relation, terms, negated=True))
            return
        for _ in range(children):
            grow(scope, depth + 1)
        if rng.random() < 0.5:
            relation = _fresh_relation_name(len(atoms))
            atoms.append(Atom(relation, scope, negated=False))

    roots = rng.randint(1, 2)
    for _ in range(roots):
        grow((), 1)
    return ConjunctiveQuery(tuple(atoms), name="qrand")


def random_self_join_free_query(
    num_variables: int = 4,
    num_atoms: int = 4,
    negation_probability: float = 0.3,
    max_arity: int = 3,
    rng: random.Random | None = None,
) -> ConjunctiveQuery:
    """A random self-join-free CQ¬ (not necessarily hierarchical).

    Safety is enforced by construction: negated atoms draw variables from
    those already used positively.
    """
    rng = rng or random.Random()
    variables = [Variable(f"v{i}") for i in range(num_variables)]
    atoms: list[Atom] = []
    used_positively: list[Variable] = []
    for index in range(num_atoms):
        relation = _fresh_relation_name(index)
        arity = rng.randint(1, max_arity)
        can_negate = bool(used_positively) and index < num_atoms - 1
        negated = can_negate and rng.random() < negation_probability
        pool = used_positively if negated else variables
        terms = tuple(rng.choice(pool) for _ in range(arity))
        atoms.append(Atom(relation, terms, negated=negated))
        if not negated:
            used_positively.extend(
                term for term in terms if term not in used_positively
            )
    # Ensure at least one positive atom covering any stray negated-only case.
    if all(atom.negated for atom in atoms):
        atoms[0] = Atom(atoms[0].relation, atoms[0].terms, negated=False)
    return ConjunctiveQuery(tuple(atoms), name="qrand")


def star_join_database(
    num_students: int,
    num_courses: int,
    registration_probability: float = 0.5,
    ta_probability: float = 0.4,
    rng: random.Random | None = None,
) -> Database:
    """A scaled-up running-example database for the q1/q2 scaling benches.

    ``Stud`` and ``Course`` are exogenous, ``TA`` and ``Reg`` endogenous,
    mirroring Example 2.3's split.
    """
    rng = rng or random.Random()
    db = Database()
    faculties = ("EE", "CS")
    for j in range(num_courses):
        db.add_exogenous(Fact("Course", (f"c{j}", faculties[j % 2])))
    for i in range(num_students):
        name = f"s{i}"
        db.add_exogenous(Fact("Stud", (name,)))
        if rng.random() < ta_probability:
            db.add_endogenous(Fact("TA", (name,)))
        for j in range(num_courses):
            if rng.random() < registration_probability:
                db.add_endogenous(Fact("Reg", (name, f"c{j}")))
    return db


def hard_answers_database(
    num_answers: int,
    core_size: int = 4,
    link_probability: float = 0.6,
    rng: random.Random | None = None,
) -> Database:
    """A multi-answer instance whose groundings are brute-force games.

    ``W`` holds the candidate answers of
    :func:`repro.workloads.queries.audit_query`; ``R``/``S``/``T`` form
    the classic non-hierarchical qRST core (``S`` exogenous, which does
    *not* rescue tractability — the non-hierarchical path between the
    endogenous ``R`` and ``T`` remains), so the engine's dichotomy sends
    every grounding to coalition enumeration over its relevance slice:
    its own ``W`` fact and the core, ``1 + 2 * core_size`` endogenous
    facts (the other answers' ``W`` facts are null players).  Answer
    ``i`` also has ``i + 1`` exogenous ``L`` rows, which hold in every
    coalition but make no two groundings isomorphic.  The groundings
    are independent and CPU-bound — the scaling workload of
    ``benchmarks/bench_parallel.py``.
    """
    rng = rng or random.Random()
    db = Database()
    for index in range(num_answers):
        db.add_endogenous(Fact("W", (f"w{index}",)))
        for row in range(index + 1):
            db.add_exogenous(Fact("L", (f"w{index}", row)))
    for index in range(core_size):
        db.add_endogenous(Fact("R", (index,)))
        db.add_endogenous(Fact("T", (index,)))
    for left in range(core_size):
        for right in range(core_size):
            if rng.random() < link_probability:
                db.add_exogenous(Fact("S", (left, right)))
    return db


def random_delta(
    database: Database,
    rng: random.Random | None = None,
    max_changes: int = 3,
):
    """A random fact-level delta against ``database``.

    Mixes the three edit kinds the delta-aware engine must survive:
    removals of existing facts, endogenous/exogenous *flips*, and
    insertions of (possibly brand-new) facts over the database's own
    schema and active domain.  Used by the incremental property tests
    and benchmarks; always applicable via
    :func:`repro.engine.delta.apply_delta`.
    """
    from repro.engine.delta import DatabaseDelta

    rng = rng or random.Random()
    existing = sorted(database.facts, key=repr)
    relations = sorted(database.relation_names)
    domain = sorted(database.active_domain(), key=repr) or [0]
    removed: set[Fact] = set()
    add_endogenous: set[Fact] = set()
    add_exogenous: set[Fact] = set()
    for _ in range(rng.randint(1, max_changes)):
        choice = rng.random()
        if choice < 0.35 and existing:
            item = rng.choice(existing)
            removed.add(item)
            add_endogenous.discard(item)
            add_exogenous.discard(item)
        elif choice < 0.6 and existing:
            item = rng.choice(existing)  # flip sides
            removed.discard(item)
            if database.is_endogenous(item):
                add_exogenous.add(item)
                add_endogenous.discard(item)
            else:
                add_endogenous.add(item)
                add_exogenous.discard(item)
        elif relations:
            relation = rng.choice(relations)
            arity = database.arity(relation)
            item = Fact(relation, tuple(rng.choice(domain) for _ in range(arity)))
            removed.discard(item)
            if rng.random() < 0.7:
                add_endogenous.add(item)
                add_exogenous.discard(item)
            else:
                add_exogenous.add(item)
                add_endogenous.discard(item)
    return DatabaseDelta(
        added_endogenous=frozenset(add_endogenous),
        added_exogenous=frozenset(add_exogenous),
        removed=frozenset(removed),
    )


def export_database(
    num_farmers: int,
    num_products: int,
    num_countries: int,
    export_probability: float = 0.35,
    grows_probability: float = 0.5,
    rng: random.Random | None = None,
) -> Database:
    """An instance of the introduction's export scenario (query (1)).

    ``Grows`` is exogenous (the paper's motivating use of exogenous
    relations); ``Farmer`` and ``Export`` facts are endogenous.
    """
    rng = rng or random.Random()
    db = Database()
    products = [f"p{j}" for j in range(num_products)]
    countries = [f"c{k}" for k in range(num_countries)]
    for k, country in enumerate(countries):
        for product in products:
            if rng.random() < grows_probability:
                db.add_exogenous(Fact("Grows", (country, product)))
    for i in range(num_farmers):
        farmer = f"m{i}"
        db.add_endogenous(Fact("Farmer", (farmer,)))
        for product in products:
            for country in countries:
                if rng.random() < export_probability:
                    db.add_endogenous(Fact("Export", (farmer, product, country)))
    return db
