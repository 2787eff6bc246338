"""Facts: ground relational tuples.

A fact is ``R(c1, ..., ck)`` — a relation name plus a tuple of constants.
Constants are arbitrary hashable Python values (strings and integers in
practice).  Facts are immutable and hashable so they can serve as players
of a cooperative game and as set members throughout the library.

A fact keeps its hash, computed once at construction: sets and dicts
of facts hash them thousands of times per request.  It also keeps two
strings it derives from itself, each filled on first use: its ``repr``
text and its canonical digest fragment
(:func:`repro.engine.fingerprint._render`).  Database versions share
their fact objects (:meth:`repro.core.database.Database.copy`), so a
successor version renders only the facts its edit added, and the texts
are freed with the fact.  Neither string takes part in equality,
hashing or pickling: a warm fact equals, hashes like and pickles to the
same bytes as a cold one.  A pickle carries neither string nor the
hash, so an unpickled fact hashes under its own process's hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

Constant = Hashable


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground fact ``relation(args)``.

    >>> Fact("Reg", ("Adam", "OS"))
    Reg(Adam, OS)

    ``_hash`` is ``hash((relation, args))``, set at construction.
    ``_text`` (the ``repr``) and ``_rendered`` (the digest fragment,
    owned by :mod:`repro.engine.fingerprint`) are unset until first
    read; constants are immutable, so all three describe the fact for
    its whole life, and two threads that fill one string at once store
    equal strings.  A pickle carries only ``relation`` and ``args``.
    """

    relation: str
    args: tuple[Constant, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)
    _rendered: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.relation:
            raise ValueError("a fact needs a non-empty relation name")
        if not isinstance(self.args, tuple):
            # Accept any sequence at construction time for convenience.
            object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash((self.relation, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        # Many facts are printed once (a delta off the wire): a miss
        # that raises would cost more than the text itself.
        text = getattr(self, "_text", None)
        if text is None:
            text = f"{self.relation}({', '.join(map(str, self.args))})"
            object.__setattr__(self, "_text", text)
        return text

    def __reduce__(self):
        return (type(self), (self.relation, self.args))


def fact(relation: str, *args: Constant) -> Fact:
    """Convenience constructor: ``fact("R", 1, 2) == Fact("R", (1, 2))``."""
    return Fact(relation, tuple(args))
