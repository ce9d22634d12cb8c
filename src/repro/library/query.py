"""The combined query structure.

A :class:`LibraryQuery` has three optional parts:

- **concept** — attribute constraints on the players involved
  (handedness, gender, past winner...), answered by the webspace;
- **content** — the video event the scenes must show (``net_play``,
  ``rally``...), answered by the COBRA meta-index;
- **text** — free text matched against interview transcripts and pages,
  answered by the IR engine.

The motivating query of the paper's Section 2 is::

    LibraryQuery(
        player={"handedness": "left", "gender": "female", "past_winner": True},
        event="net_play",
    )
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

__all__ = ["LibraryQuery"]

#: Player attribute keys a concept part may constrain.  ``past_winner``
#: is virtual: it maps to ``titles > 0``.
_PLAYER_KEYS = ("handedness", "gender", "country", "past_winner", "name")


@dataclass(frozen=True)
class LibraryQuery:
    """One combined digital-library query — immutable, so it can be shared.

    ``player`` is a read-only copy of the mapping passed in.  Two queries
    are equal, and hash alike, exactly when their :attr:`key` is the same;
    a query pickles with its key, so a shard worker need not recompute it.

    Attributes:
        player: attribute constraints on the players involved.
        event: required video event label (None = any video scene).
        sequence: required event *sequence* ``(first, then)`` — scenes
            where a *first* event is followed by a *then* event within
            ``within`` frames (Allen ``before``/``meets``).  Mutually
            exclusive with ``event``.
        within: maximum gap (frames) between the sequence's two events.
        text: free-text part (None = no text constraint).
        top_n: maximum results returned.
    """

    player: Mapping[str, object] = field(default_factory=dict)
    event: str | None = None
    sequence: tuple[str, str] | None = None
    within: int = 100
    text: str | None = None
    top_n: int = 20

    def __post_init__(self) -> None:
        unknown = set(self.player) - set(_PLAYER_KEYS)
        if unknown:
            raise ValueError(
                f"unknown player constraints {sorted(unknown)}; "
                f"expected keys from {_PLAYER_KEYS}"
            )
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.event is not None and self.sequence is not None:
            raise ValueError("event and sequence parts are mutually exclusive")
        if self.sequence is not None and len(self.sequence) != 2:
            raise ValueError("a sequence is a (first, then) label pair")
        if self.within < 0:
            raise ValueError(f"within must be >= 0, got {self.within}")
        object.__setattr__(self, "player", MappingProxyType(dict(self.player)))

    @cached_property
    def key(self) -> str:
        """A canonical serialization of the query — the cache key.

        Computed once per object.  Semantically identical queries map to
        the same key: the player constraints are sorted, and ``within``
        (which only matters for sequence queries) is normalised away
        when no sequence part exists.
        """
        payload = {
            "player": {key: self.player[key] for key in sorted(self.player)},
            "event": self.event,
            "sequence": list(self.sequence) if self.sequence is not None else None,
            "within": self.within if self.sequence is not None else None,
            "text": self.text,
            "top_n": self.top_n,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LibraryQuery):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "player": dict(self.player)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, player=MappingProxyType(state["player"]))

    @property
    def has_concept_part(self) -> bool:
        return bool(self.player)

    @property
    def has_content_part(self) -> bool:
        return self.event is not None

    @property
    def has_sequence_part(self) -> bool:
        return self.sequence is not None

    @property
    def has_text_part(self) -> bool:
        return self.text is not None
