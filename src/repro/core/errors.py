"""Exception hierarchy for the library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from one base class, while specific subclasses signal the
usual failure modes: malformed queries, unsafe negation, and requests to run
a polynomial-time algorithm on an input outside its tractable class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class QuerySyntaxError(ReproError):
    """The textual query could not be parsed."""


class UnsafeNegationError(ReproError):
    """A negated atom uses a variable that occurs in no positive atom.

    The paper only considers CQs with *safe* negation (Section 2); query
    construction rejects unsafe queries eagerly so every downstream
    algorithm may assume safety.
    """


class SelfJoinError(ReproError):
    """An algorithm that requires a self-join-free query received one with self-joins."""


class NotHierarchicalError(ReproError):
    """A polynomial-time algorithm was invoked on a query outside its tractable class.

    Raised by :func:`repro.shapley.exact.count_satisfying_subsets` (and
    the engine's forward pass behind it) for non-hierarchical queries and
    by :func:`repro.shapley.exoshap.rewrite_to_hierarchical` for queries
    with a non-hierarchical path (the FP^#P-hard side of Theorems 3.1 and
    4.3).
    """


class IntractableQueryError(ReproError, ValueError):
    """Exact evaluation was requested for a provably intractable query without a fallback.

    Also a :class:`ValueError`: the brute-force size guards historically
    raised ``ValueError``, so callers catching that keep working while
    new code can catch the precise type.
    """


class SchemaError(ReproError):
    """A fact or atom does not match the declared schema (e.g. arity mismatch)."""
