"""The feature grammar language.

A feature grammar names the meta-data *tokens* of a domain and declares
which detector produces which tokens from which inputs::

    FEATURE GRAMMAR tennis ;

    DETECTOR segment BLACK : video -> shot ;
    DETECTOR tennis  BLACK : shot WHEN category = tennis -> player ;
    DETECTOR shape   BLACK : player -> shape ;
    DETECTOR rules   WHITE : player -> event ;

``video`` is the axiom — the raw data every pipeline starts from.  Each
other token must be produced by exactly one detector, and the detector
dependency relation must be acyclic; the FDE derives its execution
schedule from these rules ("managing the meta-index now boils down to
exploiting the dependencies in the feature grammar").

``WHITE`` detectors are rules interpreted by the engine itself (the
COBRA event grammars); ``BLACK`` detectors are opaque registered
functions — the paper's white-/black-box split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["FeatureGrammarError", "DetectorDecl", "FeatureGrammar", "parse_feature_grammar"]

#: The default axiom token: raw video, present before any detector runs.
#: A grammar may override it with an ``AXIOM <token> ;`` declaration —
#: Acoi indexes "multimedia objects" generally, not only video.
AXIOM = "video"


class FeatureGrammarError(ValueError):
    """Raised for feature grammar syntax or consistency errors."""


@dataclass(frozen=True)
class DetectorDecl:
    """One detector declaration.

    Attributes:
        name: detector name (registry key).
        kind: ``"white"`` or ``"black"``.
        inputs: meta-data tokens the detector consumes.
        outputs: tokens it produces.
        guard: optional ``(field, value)`` restriction on which input
            instances the detector processes (e.g. only tennis shots).
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    guard: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("white", "black"):
            raise FeatureGrammarError(f"detector {self.name!r}: kind must be white/black")
        if not self.inputs:
            raise FeatureGrammarError(f"detector {self.name!r} consumes nothing")
        if not self.outputs:
            raise FeatureGrammarError(f"detector {self.name!r} produces nothing")
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise FeatureGrammarError(
                f"detector {self.name!r} both consumes and produces {sorted(overlap)}"
            )


@dataclass
class FeatureGrammar:
    """A parsed feature grammar: named, ordered detector declarations."""

    name: str
    detectors: list[DetectorDecl] = field(default_factory=list)
    axiom: str = AXIOM

    def detector(self, name: str) -> DetectorDecl:
        for decl in self.detectors:
            if decl.name == name:
                return decl
        raise KeyError(f"no detector named {name!r}")

    def producer_of(self, token: str) -> DetectorDecl | None:
        """The detector producing *token* (None for the axiom)."""
        for decl in self.detectors:
            if token in decl.outputs:
                return decl
        return None

    def validate(self) -> None:
        """Check single-producer and acyclicity invariants."""
        producers: dict[str, str] = {}
        for decl in self.detectors:
            for token in decl.outputs:
                if token == self.axiom:
                    raise FeatureGrammarError(
                        f"detector {decl.name!r} claims to produce the axiom"
                    )
                if token in producers:
                    raise FeatureGrammarError(
                        f"token {token!r} produced by both {producers[token]!r} "
                        f"and {decl.name!r}"
                    )
                producers[token] = decl.name
        for decl in self.detectors:
            for token in decl.inputs:
                if token != self.axiom and token not in producers:
                    raise FeatureGrammarError(
                        f"detector {decl.name!r} consumes unproduced token {token!r}"
                    )
        names = [d.name for d in self.detectors]
        if len(names) != len(set(names)):
            raise FeatureGrammarError("duplicate detector names")
        self._check_acyclic(producers)

    def _check_acyclic(self, producers: dict[str, str]) -> None:
        # DFS over detector dependencies (detector -> producers of inputs).
        colors: dict[str, int] = {}

        def visit(name: str) -> None:
            if colors.get(name) == 1:
                raise FeatureGrammarError(f"dependency cycle through {name!r}")
            if colors.get(name) == 2:
                return
            colors[name] = 1
            decl = self.detector(name)
            for token in decl.inputs:
                if token != self.axiom:
                    visit(producers[token])
            colors[name] = 2

        for decl in self.detectors:
            visit(decl.name)


_HEADER_RE = re.compile(r"^\s*FEATURE\s+GRAMMAR\s+(\w+)\s*;\s*", re.IGNORECASE)
_AXIOM_RE = re.compile(r"^\s*AXIOM\s+(\w+)\s*;\s*", re.IGNORECASE)
_DETECTOR_RE = re.compile(
    r"""
    DETECTOR\s+(?P<name>\w+)
    (?:\s+(?P<kind>WHITE|BLACK))?
    \s*:\s*
    (?P<inputs>[\w\s,]+?)
    (?:\s+WHEN\s+(?P<gfield>\w+)\s*=\s*(?P<gvalue>\w+))?
    \s*->\s*
    (?P<outputs>[\w\s,]+?)
    \s*;
    """,
    re.VERBOSE | re.IGNORECASE,
)


def parse_feature_grammar(text: str) -> FeatureGrammar:
    """Parse a feature grammar text and validate its invariants."""
    stripped = re.sub(r"#[^\n]*", "", text)
    header = _HEADER_RE.match(stripped)
    if header is None:
        raise FeatureGrammarError("missing 'FEATURE GRAMMAR <name> ;' header")
    grammar = FeatureGrammar(name=header.group(1))
    body = stripped[header.end() :]
    axiom_match = _AXIOM_RE.match(body)
    if axiom_match is not None:
        grammar.axiom = axiom_match.group(1)
        body = body[axiom_match.end() :]
    consumed_upto = 0
    for match in _DETECTOR_RE.finditer(body):
        between = body[consumed_upto : match.start()].strip()
        if between:
            raise FeatureGrammarError(f"unparseable grammar text: {between!r}")
        consumed_upto = match.end()
        guard = None
        if match.group("gfield"):
            guard = (match.group("gfield"), match.group("gvalue"))
        grammar.detectors.append(
            DetectorDecl(
                name=match.group("name"),
                kind=(match.group("kind") or "black").lower(),
                inputs=tuple(
                    t.strip() for t in match.group("inputs").split(",") if t.strip()
                ),
                outputs=tuple(
                    t.strip() for t in match.group("outputs").split(",") if t.strip()
                ),
                guard=guard,
            )
        )
    trailing = body[consumed_upto:].strip()
    if trailing:
        raise FeatureGrammarError(f"unparseable grammar text: {trailing!r}")
    if not grammar.detectors:
        raise FeatureGrammarError("a feature grammar needs at least one detector")
    grammar.validate()
    return grammar
