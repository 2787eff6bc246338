"""Query ASTs: conjunctive queries with safe negation (CQ¬) and unions (UCQ¬).

Terminology follows Section 2 of the paper:

* An *atom* is ``R(t1, ..., tk)`` or ``¬R(t1, ..., tk)`` where each term is
  a variable or a constant.
* A *CQ¬* is a conjunction of atoms with **safe** negation: every variable
  of a negated atom must also occur in a positive atom.  Construction
  enforces safety eagerly.
* A *UCQ¬* is a disjunction of Boolean CQ¬s.

Queries are immutable.  Head variables are supported (non-Boolean queries
are needed internally by ExoShap, which materializes sub-query answers,
and by the aggregate module); the Shapley operators themselves work on
Boolean queries as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from repro.core.errors import SchemaError, UnsafeNegationError
from repro.core.facts import Constant, Fact


@dataclass(frozen=True, slots=True)
class Variable:
    """A query variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable names must be non-empty")

    def __repr__(self) -> str:
        return self.name


Term = Union[Variable, Constant]


@dataclass(frozen=True, slots=True)
class Atom:
    """A (possibly negated) relational atom ``(¬)R(t1, ..., tk)``."""

    relation: str
    terms: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.relation:
            raise ValueError("an atom needs a non-empty relation name")
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(term for term in self.terms if isinstance(term, Variable))

    @property
    def constants(self) -> frozenset[Constant]:
        return frozenset(term for term in self.terms if not isinstance(term, Variable))

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(term, Variable) for term in self.terms)

    def substitute(self, assignment: Mapping[Variable, Constant]) -> "Atom":
        """Replace variables by constants where the assignment binds them."""
        new_terms = tuple(
            assignment.get(term, term) if isinstance(term, Variable) else term
            for term in self.terms
        )
        return Atom(self.relation, new_terms, self.negated)

    def to_fact(self) -> Fact:
        """Convert a ground atom to a fact (raises if variables remain)."""
        if not self.is_ground:
            raise ValueError(f"atom {self!r} is not ground")
        return Fact(self.relation, self.terms)

    def matches(self, target: Fact) -> bool:
        """Can this atom be mapped onto ``target`` by some variable assignment?

        Requires equal relation and arity, constants to agree positionally,
        and repeated variables to receive equal values.
        """
        if target.relation != self.relation or target.arity != self.arity:
            return False
        bound: dict[Variable, Constant] = {}
        for term, value in zip(self.terms, target.args):
            if isinstance(term, Variable):
                if bound.setdefault(term, value) != value:
                    return False
            elif term != value:
                return False
        return True

    def __repr__(self) -> str:
        rendered = ", ".join(repr(term) for term in self.terms)
        prefix = "¬" if self.negated else ""
        return f"{prefix}{self.relation}({rendered})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query with safe negation (CQ¬), possibly with a head.

    ``head == ()`` means the query is Boolean (the paper's default).
    """

    atoms: tuple[Atom, ...]
    head: tuple[Variable, ...] = ()
    name: str = "q"
    _variables: frozenset[Variable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        self._check_consistent_arities()
        positive_vars = frozenset(
            var for atom in self.atoms if not atom.negated for var in atom.variables
        )
        for atom in self.atoms:
            if atom.negated and not atom.variables <= positive_vars:
                unsafe = sorted(var.name for var in atom.variables - positive_vars)
                raise UnsafeNegationError(
                    f"negated atom {atom!r} uses variables {unsafe} that occur"
                    " in no positive atom (negation must be safe)"
                )
        for var in self.head:
            if var not in positive_vars:
                raise UnsafeNegationError(
                    f"head variable {var!r} does not occur in a positive atom"
                )
        object.__setattr__(
            self,
            "_variables",
            frozenset(var for atom in self.atoms for var in atom.variables),
        )

    def _check_consistent_arities(self) -> None:
        arities: dict[str, int] = {}
        for atom in self.atoms:
            known = arities.setdefault(atom.relation, atom.arity)
            if known != atom.arity:
                raise SchemaError(
                    f"relation {atom.relation} used with arities {known} and {atom.arity}"
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def is_boolean(self) -> bool:
        return not self.head

    @property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(atom for atom in self.atoms if not atom.negated)

    @property
    def negative_atoms(self) -> tuple[Atom, ...]:
        return tuple(atom for atom in self.atoms if atom.negated)

    @property
    def variables(self) -> frozenset[Variable]:
        return self._variables

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(atom.relation for atom in self.atoms)

    @property
    def has_self_joins(self) -> bool:
        """Two distinct atoms over the same relation symbol?"""
        seen: set[str] = set()
        for atom in self.atoms:
            if atom.relation in seen:
                return True
            seen.add(atom.relation)
        return False

    @property
    def is_self_join_free(self) -> bool:
        return not self.has_self_joins

    def atoms_with_variable(self, var: Variable) -> tuple[Atom, ...]:
        """The set :math:`A_x` of the paper: all atoms in which ``var`` occurs."""
        return tuple(atom for atom in self.atoms if var in atom.variables)

    def polarity(self, relation: str) -> str:
        """``"positive"``, ``"negative"``, ``"both"``, or ``"absent"``."""
        appears_positive = any(
            atom.relation == relation and not atom.negated for atom in self.atoms
        )
        appears_negative = any(
            atom.relation == relation and atom.negated for atom in self.atoms
        )
        if appears_positive and appears_negative:
            return "both"
        if appears_positive:
            return "positive"
        if appears_negative:
            return "negative"
        return "absent"

    def relation_is_polarity_consistent(self, relation: str) -> bool:
        """Does ``relation`` occur only positively or only negatively (Section 5.2)?"""
        return self.polarity(relation) != "both"

    @property
    def is_polarity_consistent(self) -> bool:
        """Is every relation symbol polarity consistent?"""
        return all(
            self.relation_is_polarity_consistent(name) for name in self.relation_names
        )

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, assignment: Mapping[Variable, Constant]) -> "ConjunctiveQuery":
        """Ground some variables.  Head variables must not be substituted."""
        if any(var in assignment for var in self.head):
            raise ValueError("cannot substitute a head variable")
        return ConjunctiveQuery(
            tuple(atom.substitute(assignment) for atom in self.atoms),
            head=self.head,
            name=self.name,
        )

    def with_head(self, head: Iterable[Variable]) -> "ConjunctiveQuery":
        return ConjunctiveQuery(self.atoms, head=tuple(head), name=self.name)

    def as_boolean(self) -> "ConjunctiveQuery":
        return self if self.is_boolean else ConjunctiveQuery(self.atoms, name=self.name)

    def with_atoms(self, atoms: Iterable[Atom]) -> "ConjunctiveQuery":
        return ConjunctiveQuery(tuple(atoms), head=self.head, name=self.name)

    def __repr__(self) -> str:
        head = ", ".join(var.name for var in self.head)
        body = ", ".join(repr(atom) for atom in self.atoms)
        return f"{self.name}({head}) :- {body}"


@dataclass(frozen=True)
class UnionQuery:
    """A union of Boolean CQ¬s (UCQ¬), satisfied if any disjunct is."""

    disjuncts: tuple[ConjunctiveQuery, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        if not isinstance(self.disjuncts, tuple):
            object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        if not self.disjuncts:
            raise ValueError("a union query needs at least one disjunct")
        for disjunct in self.disjuncts:
            if not disjunct.is_boolean:
                raise ValueError("UCQ disjuncts must be Boolean queries")

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(
            name for disjunct in self.disjuncts for name in disjunct.relation_names
        )

    def polarity(self, relation: str) -> str:
        """Combined polarity of ``relation`` across all disjuncts."""
        appears_positive = False
        appears_negative = False
        for disjunct in self.disjuncts:
            local = disjunct.polarity(relation)
            appears_positive |= local in ("positive", "both")
            appears_negative |= local in ("negative", "both")
        if appears_positive and appears_negative:
            return "both"
        if appears_positive:
            return "positive"
        if appears_negative:
            return "negative"
        return "absent"

    @property
    def is_polarity_consistent(self) -> bool:
        """Polarity consistency of the *whole* union (Section 5.2).

        Note the paper's subtlety: each disjunct may be polarity consistent
        while the union is not (the qSAT example); this property checks the
        union-level condition under which relevance is tractable.
        """
        return all(self.polarity(name) != "both" for name in self.relation_names)

    def __repr__(self) -> str:
        body = " ∨ ".join(f"({disjunct!r})" for disjunct in self.disjuncts)
        return f"{self.name}() :- {body}"


BooleanQuery = Union[ConjunctiveQuery, UnionQuery]
