"""A textual surface for combined queries.

The paper argues that "the query could be formulated more precise[ly]"
once conceptual structure is available.  This module gives the combined
query a small concrete language so the demo can accept typed queries::

    SCENES WHERE player.handedness = left
      AND player.gender = female
      AND player.past_winner
      AND event = net_play
      AND text CONTAINS "approach the net"
      LIMIT 10

Grammar (case-insensitive keywords)::

    query      := "SCENES" [ "WHERE" clause ("AND" clause)* ] [ "LIMIT" n ]
    clause     := "player" "." attr "=" value      # handedness/gender/country/name
                | "player" "." "past_winner"        # boolean shorthand
                | "event" "=" label [ "THEN" label [ "WITHIN" n ] ]
                | "text" "CONTAINS" quoted-string

Values with spaces (player names) are quoted.  ``parse_query`` returns a
:class:`~repro.library.query.LibraryQuery`.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.library.query import LibraryQuery

__all__ = ["QuerySyntaxError", "parse_query"]


class QuerySyntaxError(ValueError):
    """Raised for malformed query text."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"[^"]*")
  | (?P<op>=)
  | (?P<dot>\.)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*|\d+)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SCENES", "WHERE", "AND", "LIMIT", "CONTAINS", "THEN", "WITHIN"}

_PLAYER_ATTRS = ("handedness", "gender", "country", "name")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "word" and value.upper() in _KEYWORDS:
            tokens.append(("keyword", value.upper()))
        elif kind == "string":
            tokens.append(("string", value[1:-1]))
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._index = 0

    def _peek(self):
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query")
        self._index += 1
        return token

    def _expect(self, kind, value=None):
        token = self._next()
        if token[0] != kind or (value is not None and token[1] != value):
            raise QuerySyntaxError(f"expected {value or kind}, got {token[1]!r}")
        return token

    def parse(self) -> LibraryQuery:
        self._expect("keyword", "SCENES")
        player: dict[str, object] = {}
        event: str | None = None
        sequence: tuple[str, str] | None = None
        within = 100
        text: str | None = None
        top_n = 20

        if self._peek() == ("keyword", "WHERE"):
            self._next()
            while True:
                kind, value = self._clause()
                if kind == "player":
                    if value[0] in player:
                        raise QuerySyntaxError(f"duplicate player.{value[0]} clause")
                    player[value[0]] = value[1]
                elif kind == "event":
                    if event is not None or sequence is not None:
                        raise QuerySyntaxError("duplicate event clause")
                    event = value
                elif kind == "sequence":
                    if event is not None or sequence is not None:
                        raise QuerySyntaxError("duplicate event clause")
                    sequence = (value[0], value[1])
                    within = value[2]
                else:  # text
                    if text is not None:
                        raise QuerySyntaxError("duplicate text clause")
                    text = value
                if self._peek() == ("keyword", "AND"):
                    self._next()
                    continue
                break
        if self._peek() == ("keyword", "LIMIT"):
            self._next()
            number = self._expect("word")[1]
            if not number.isdigit():
                raise QuerySyntaxError(f"LIMIT expects a number, got {number!r}")
            top_n = int(number)
        if self._peek() is not None:
            raise QuerySyntaxError(f"trailing tokens starting at {self._peek()[1]!r}")
        try:
            return LibraryQuery(
                player=player,
                event=event,
                sequence=sequence,
                within=within,
                text=text,
                top_n=top_n,
            )
        except ValueError as exc:  # e.g. LIMIT 0
            raise QuerySyntaxError(str(exc)) from exc

    def _clause(self) -> tuple[str, object]:
        """One WHERE clause: ('player', (attr, value)) / ('event', label) /
        ('text', string)."""
        token = self._next()
        if token == ("word", "player"):
            self._expect("dot")
            attr = self._expect("word")[1]
            if attr == "past_winner":
                return "player", ("past_winner", True)
            if attr not in _PLAYER_ATTRS:
                raise QuerySyntaxError(f"unknown player attribute {attr!r}")
            self._expect("op", "=")
            kind, value = self._next()
            if kind not in ("word", "string"):
                raise QuerySyntaxError(f"expected a value after player.{attr}")
            return "player", (attr, value)
        if token == ("word", "event"):
            self._expect("op", "=")
            first = self._expect("word")[1]
            if self._peek() == ("keyword", "THEN"):
                self._next()
                then = self._expect("word")[1]
                within = 100
                if self._peek() == ("keyword", "WITHIN"):
                    self._next()
                    number = self._expect("word")[1]
                    if not number.isdigit():
                        raise QuerySyntaxError(
                            f"WITHIN expects a number, got {number!r}"
                        )
                    within = int(number)
                return "sequence", (first, then, within)
            return "event", first
        if token == ("word", "text"):
            self._expect("keyword", "CONTAINS")
            return "text", self._expect("string")[1]
        raise QuerySyntaxError(f"unknown clause starting with {token[1]!r}")


@lru_cache(maxsize=1 << 12)  # a query's parse depends on its text alone
def parse_query(text: str) -> LibraryQuery:
    """Parse query text into a :class:`LibraryQuery`.

    Memoised: a repeated text returns the same (immutable) query object,
    whose :attr:`~LibraryQuery.key` is then serialised only once.
    Exceptions are not cached, so a malformed text raises every time.

    Raises:
        QuerySyntaxError: for any malformed input.
    """
    return _Parser(_tokenize(text)).parse()
