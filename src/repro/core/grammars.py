"""The object/event grammar language.

"The model is extended with object and event grammars.  These grammars
are aimed at formalizing the descriptions of high-level concepts, as
well as facilitating their extraction based on spatio-temporal
reasoning."

The concrete syntax (one rule per statement, ``;``-terminated,
``#`` comments)::

    OBJECT player := area >= 12 AND aspect_ratio >= 0.8 ;

    EVENT net_play := HOLDS zone = net FOR 8 ;
    EVENT service  := HOLDS (zone = baseline AND speed < 0.7) FOR 6 ;
    EVENT rally    := HOLDS (zone != net AND speed >= 0.7) FOR 12 BRIDGE 4
                      REQUIRE mean_speed >= 1.2 AND direction_changes >= 1 ;
    EVENT baseline_play := HOLDS zone = baseline FOR 12 UNLESS rally, service ;
    EVENT attack   := SEQ baseline_play THEN net_play WITHIN 60 ;

Rule forms:

- ``OBJECT name := <predicate>`` — an object-layer concept over blob
  shape features (fields: ``area``, ``aspect_ratio``, ``eccentricity``,
  ``height``, ``width``); parsed and validated, not evaluated by any
  detector.
- ``EVENT name := HOLDS <predicate> FOR n [BRIDGE m] [REQUIRE <aggs>]
  [UNLESS e1, e2]`` — frames satisfying the per-frame predicate
  (fields: ``zone`` / ``side`` (= / != a zone or side name),
  ``speed``, ``row``, ``col``),
  grouped into runs of at least ``n`` frames, with gaps up to ``m``
  bridged; each run must satisfy the aggregate constraints (fields:
  ``mean_speed``, ``max_speed``, ``direction_changes``, ``duration``);
  frames already claimed by the ``UNLESS`` events are excluded.
- ``EVENT name := SEQ a THEN b WITHIN n`` — composite event: an ``a``
  interval followed by a ``b`` interval starting at most ``n`` frames
  after ``a`` ends (Allen ``before``/``meets``), spanning both.

This module owns the syntax: tokeniser, parser and AST.  Evaluation
lives in :mod:`repro.core.inference`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "GrammarError",
    "Comparison",
    "And",
    "Or",
    "Not",
    "AggConstraint",
    "HoldsRule",
    "SeqRule",
    "ObjectRule",
    "ConceptGrammar",
    "parse_grammar",
]


class GrammarError(ValueError):
    """Raised for syntax or semantic errors in a grammar text."""


# --------------------------------------------------------------------- #
# AST
# --------------------------------------------------------------------- #

#: Per-frame predicate fields and their value kinds.
FRAME_FIELDS = {
    "zone": "name",
    "side": "name",
    "speed": "number",
    "row": "number",
    "col": "number",
}
#: Object predicate fields (all numeric).
OBJECT_FIELDS = ("area", "aspect_ratio", "eccentricity", "height", "width")
#: Aggregate fields allowed in REQUIRE clauses.
AGG_FIELDS = ("mean_speed", "max_speed", "direction_changes", "duration")

COMPARATORS = ("=", "!=", ">=", "<=", ">", "<")


@dataclass(frozen=True)
class Comparison:
    """``field <op> value`` — a leaf predicate."""

    fieldname: str
    op: str
    value: float | str

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise GrammarError(f"unknown comparator {self.op!r}")


@dataclass(frozen=True)
class And:
    items: tuple

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise GrammarError("AND needs at least two operands")


@dataclass(frozen=True)
class Or:
    items: tuple

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise GrammarError("OR needs at least two operands")


@dataclass(frozen=True)
class Not:
    item: object


@dataclass(frozen=True)
class AggConstraint:
    """``agg_field <op> value`` over one candidate run."""

    fieldname: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.fieldname not in AGG_FIELDS:
            raise GrammarError(f"unknown aggregate {self.fieldname!r}")
        if self.op not in COMPARATORS:
            raise GrammarError(f"unknown comparator {self.op!r}")


@dataclass(frozen=True)
class HoldsRule:
    """``EVENT name := HOLDS pred FOR n [BRIDGE m] [REQUIRE ...] [UNLESS ...]``"""

    name: str
    predicate: object
    min_frames: int
    bridge: int = 0
    requires: tuple[AggConstraint, ...] = ()
    unless: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.min_frames < 1:
            raise GrammarError(f"FOR must be >= 1, got {self.min_frames}")
        if self.bridge < 0:
            raise GrammarError(f"BRIDGE must be >= 0, got {self.bridge}")


@dataclass(frozen=True)
class SeqRule:
    """``EVENT name := SEQ first THEN then WITHIN n``"""

    name: str
    first: str
    then: str
    within: int

    def __post_init__(self) -> None:
        if self.within < 0:
            raise GrammarError(f"WITHIN must be >= 0, got {self.within}")


@dataclass(frozen=True)
class ObjectRule:
    """``OBJECT name := pred`` over shape-feature fields."""

    name: str
    predicate: object


@dataclass
class ConceptGrammar:
    """A parsed grammar: ordered event rules + object rules."""

    event_rules: list = field(default_factory=list)
    object_rules: list[ObjectRule] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Tokeniser
# --------------------------------------------------------------------- #

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)        # whitespace / comments
  | (?P<assign>:=)
  | (?P<op>!=|>=|<=|=|>|<)
  | (?P<punct>[();,])
  | (?P<number>\d+(\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "EVENT",
    "OBJECT",
    "HOLDS",
    "FOR",
    "BRIDGE",
    "REQUIRE",
    "UNLESS",
    "SEQ",
    "THEN",
    "WITHIN",
    "AND",
    "OR",
    "NOT",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'keyword' | 'ident' | 'number' | 'op' | 'punct' | 'assign'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise GrammarError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        value = match.group()
        if kind == "ident" and value.upper() in KEYWORDS:
            tokens.append(_Token("keyword", value.upper(), match.start()))
        else:
            tokens.append(_Token(kind, value, match.start()))
    return tokens


# --------------------------------------------------------------------- #
# Parser (recursive descent)
# --------------------------------------------------------------------- #


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    # -- token helpers -------------------------------------------------- #

    def _peek(self) -> _Token | None:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise GrammarError("unexpected end of grammar")
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise GrammarError(
                f"expected {wanted!r} at offset {token.position}, got {token.text!r}"
            )
        return token

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "keyword" and token.text == word

    # -- grammar -------------------------------------------------------- #

    def parse(self) -> ConceptGrammar:
        grammar = ConceptGrammar()
        while self._peek() is not None:
            token = self._next()
            if token.kind != "keyword" or token.text not in ("EVENT", "OBJECT"):
                raise GrammarError(
                    f"expected EVENT or OBJECT at offset {token.position}, got {token.text!r}"
                )
            name = self._expect("ident").text
            self._expect("assign")
            if token.text == "OBJECT":
                predicate = self._predicate(OBJECT_FIELDS)
                grammar.object_rules.append(ObjectRule(name=name, predicate=predicate))
            else:
                grammar.event_rules.append(self._event_body(name, grammar))
            self._expect("punct", ";")
        self._check_references(grammar)
        return grammar

    def _event_body(self, name: str, grammar: ConceptGrammar):
        if self._at_keyword("HOLDS"):
            self._next()
            predicate = self._predicate(tuple(FRAME_FIELDS))
            self._expect("keyword", "FOR")
            min_frames = int(float(self._expect("number").text))
            bridge = 0
            requires: list[AggConstraint] = []
            unless: list[str] = []
            if self._at_keyword("BRIDGE"):
                self._next()
                bridge = int(float(self._expect("number").text))
            if self._at_keyword("REQUIRE"):
                self._next()
                requires.append(self._agg_constraint())
                while self._at_keyword("AND"):
                    self._next()
                    requires.append(self._agg_constraint())
            if self._at_keyword("UNLESS"):
                self._next()
                unless.append(self._expect("ident").text)
                while self._peek() is not None and self._peek().text == ",":
                    self._next()
                    unless.append(self._expect("ident").text)
            return HoldsRule(
                name=name,
                predicate=predicate,
                min_frames=min_frames,
                bridge=bridge,
                requires=tuple(requires),
                unless=tuple(unless),
            )
        if self._at_keyword("SEQ"):
            self._next()
            first = self._expect("ident").text
            self._expect("keyword", "THEN")
            then = self._expect("ident").text
            self._expect("keyword", "WITHIN")
            within = int(float(self._expect("number").text))
            return SeqRule(name=name, first=first, then=then, within=within)
        token = self._peek()
        raise GrammarError(
            f"expected HOLDS or SEQ in event rule {name!r}"
            + (f" at offset {token.position}" if token else "")
        )

    def _agg_constraint(self) -> AggConstraint:
        fieldname = self._expect("ident").text
        op = self._expect("op").text
        value = float(self._expect("number").text)
        return AggConstraint(fieldname=fieldname, op=op, value=value)

    # -- predicates ------------------------------------------------------ #

    def _predicate(self, fields: tuple[str, ...]):
        return self._or_expr(fields)

    def _or_expr(self, fields):
        items = [self._and_expr(fields)]
        while self._at_keyword("OR"):
            self._next()
            items.append(self._and_expr(fields))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _and_expr(self, fields):
        items = [self._unary(fields)]
        while self._at_keyword("AND"):
            self._next()
            items.append(self._unary(fields))
        return items[0] if len(items) == 1 else And(tuple(items))

    def _unary(self, fields):
        if self._at_keyword("NOT"):
            self._next()
            return Not(self._unary(fields))
        token = self._peek()
        if token is not None and token.text == "(":
            self._next()
            inner = self._or_expr(fields)
            self._expect("punct", ")")
            return inner
        return self._comparison(fields)

    def _comparison(self, fields) -> Comparison:
        fieldname = self._expect("ident").text
        if fieldname not in fields:
            raise GrammarError(
                f"unknown field {fieldname!r}; expected one of {sorted(fields)}"
            )
        op = self._expect("op").text
        token = self._next()
        if token.kind == "number":
            value: float | str = float(token.text)
        elif token.kind == "ident":
            value = token.text
        else:
            raise GrammarError(f"expected a value at offset {token.position}")
        if fieldname in FRAME_FIELDS and FRAME_FIELDS.get(fieldname) == "name":
            if not isinstance(value, str):
                raise GrammarError(f"field {fieldname!r} compares to a zone name")
            if op not in ("=", "!="):
                raise GrammarError(f"field {fieldname!r} supports only = and !=")
        elif isinstance(value, str):
            raise GrammarError(f"field {fieldname!r} compares to a number")
        return Comparison(fieldname=fieldname, op=op, value=value)

    # -- semantics -------------------------------------------------------- #

    @staticmethod
    def _check_references(grammar: ConceptGrammar) -> None:
        """SEQ/UNLESS may only reference *previously declared* events."""
        seen: set[str] = set()
        for rule in grammar.event_rules:
            if rule.name in seen:
                raise GrammarError(f"duplicate event rule {rule.name!r}")
            if isinstance(rule, SeqRule):
                for ref in (rule.first, rule.then):
                    if ref not in seen:
                        raise GrammarError(
                            f"event {rule.name!r} references {ref!r} before declaration"
                        )
            elif isinstance(rule, HoldsRule):
                for ref in rule.unless:
                    if ref not in seen:
                        raise GrammarError(
                            f"event {rule.name!r} UNLESS references {ref!r} before declaration"
                        )
            seen.add(rule.name)
        names = [r.name for r in grammar.object_rules]
        if len(names) != len(set(names)):
            raise GrammarError("duplicate object rule names")


def parse_grammar(text: str) -> ConceptGrammar:
    """Parse a grammar text into a :class:`ConceptGrammar`.

    Raises:
        GrammarError: on any syntax or semantic problem.
    """
    return _Parser(_tokenize(text)).parse()
