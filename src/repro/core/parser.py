"""A small datalog-style parser for CQ¬s and UCQ¬s.

Grammar (whitespace-insensitive)::

    query    :=  [name] "(" head ")" ":-" body
    body     :=  atom ("," atom)*
    atom     :=  ("not" | "!" | "¬" | "~")? relname "(" terms ")"
    terms    :=  term ("," term)*
    term     :=  variable | constant

Conventions (matching the paper's typography):

* identifiers starting with a lowercase letter are **variables**
  (``x``, ``y``, ``name``);
* identifiers starting with an uppercase letter are **constants**
  (``CS``, ``Adam``) — relation names only appear before ``(``;
* integer literals are integer constants; quoted strings
  (``'OS'`` / ``"OS"``) are string constants, allowing lowercase constants.

Unions use ``|`` or ``∨`` between bodies or whole queries::

    q() :- R(x), T(x, 1) | V(x), not T(x, 0)

>>> parse_query("q() :- Stud(x), not TA(x), Reg(x, y)")
q() :- Stud(x), ¬TA(x), Reg(x, y)
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.core.errors import QuerySyntaxError
from repro.core.query import Atom, ConjunctiveQuery, Term, UnionQuery, Variable

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<neg>not\b|¬|!|~)
  | (?P<turnstile>:-|<-)
  | (?P<union>\||∨)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<number>-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[position]!r} at offset {position} in {text!r}"
            )
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, match.group()))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[tuple[str, str]], source: str) -> None:
        self._tokens = tokens
        self._index = 0
        self._source = source

    def _peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError(f"unexpected end of input in {self._source!r}")
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        token_kind, value = self._next()
        if token_kind != kind:
            raise QuerySyntaxError(
                f"expected {kind} but found {value!r} in {self._source!r}"
            )
        return value

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    # ------------------------------------------------------------------
    def parse_query(self) -> ConjunctiveQuery:
        name, head = self._parse_head()
        atoms = [self._parse_atom()]
        while self._peek() == ("comma", ","):
            self._next()
            atoms.append(self._parse_atom())
        return ConjunctiveQuery(tuple(atoms), head=head, name=name)

    def _parse_head(self) -> tuple[str, tuple[Variable, ...]]:
        """Parse ``name(vars) :-`` if present; default to Boolean ``q``.

        The head looks exactly like an atom until the turnstile, so we
        parse terms speculatively, backtrack when no ``:-`` follows, and
        only then enforce that head terms are variables.
        """
        checkpoint = self._index
        token = self._peek()
        if token is not None and token[0] == "ident":
            name = self._next()[1]
            if self._peek() == ("lparen", "("):
                self._next()
                terms: list[Term] = []
                try:
                    while self._peek() != ("rparen", ")"):
                        terms.append(self._parse_term())
                        if self._peek() == ("comma", ","):
                            self._next()
                    self._expect("rparen")
                except QuerySyntaxError:
                    self._index = checkpoint
                    return "q", ()
                next_token = self._peek()
                if next_token is not None and next_token[0] == "turnstile":
                    self._next()
                    bad = [term for term in terms if not isinstance(term, Variable)]
                    if bad:
                        raise QuerySyntaxError(
                            f"head terms must be variables, found {bad[0]!r}"
                        )
                    return name, tuple(terms)
        self._index = checkpoint
        return "q", ()

    def _parse_atom(self) -> Atom:
        negated = False
        token = self._peek()
        if token is not None and token[0] == "neg":
            self._next()
            negated = True
        relation = self._expect("ident")
        self._expect("lparen")
        terms: list[Term] = []
        while self._peek() != ("rparen", ")"):
            terms.append(self._parse_term())
            if self._peek() == ("comma", ","):
                self._next()
        self._expect("rparen")
        return Atom(relation, tuple(terms), negated)

    def _parse_term(self) -> Term:
        kind, value = self._next()
        if kind == "number":
            return int(value)
        if kind == "string":
            return value[1:-1]
        if kind == "ident":
            if value[0].islower() or value[0] == "_":
                return Variable(value)
            return value
        raise QuerySyntaxError(f"expected a term, found {value!r} in {self._source!r}")


#: Query texts whose parse :func:`parse_query` remembers.
PARSED_QUERIES = 256


@lru_cache(maxsize=PARSED_QUERIES)
def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single CQ¬ from its textual form.

    Queries are immutable, so repeated texts share one parsed query (the
    last :data:`PARSED_QUERIES` texts are remembered).
    """
    parser = _Parser(_tokenize(text), text)
    query = parser.parse_query()
    if not parser.at_end():
        raise QuerySyntaxError(f"trailing tokens after query in {text!r}")
    return query


def parse_ucq(text: str, name: str = "q") -> UnionQuery:
    """Parse a UCQ¬; disjunct bodies are separated by ``|`` or ``∨``."""
    parser = _Parser(_tokenize(text), text)
    disjuncts = [parser.parse_query()]
    while not parser.at_end():
        kind, value = parser._next()
        if kind != "union":
            raise QuerySyntaxError(f"expected '|' between disjuncts, found {value!r}")
        disjuncts.append(parser.parse_query())
    numbered = [
        ConjunctiveQuery(q.atoms, head=q.head, name=f"{name}{i}")
        for i, q in enumerate(disjuncts, start=1)
    ]
    return UnionQuery(tuple(numbered), name=name)
