"""Detector registry and indexing context.

A detector implementation is a callable ``fn(context)`` that reads the
tokens its declaration consumes from ``context.tokens`` and writes the
tokens it produces.  The registry versions each implementation, which is
what incremental revalidation keys on: bumping a version marks the
detector (and its meta-data) stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.model import CobraModel
from repro.grammar.runtime import MissingTokenError

__all__ = ["IndexingContext", "DetectorRegistry"]


@dataclass
class IndexingContext:
    """Everything a detector sees while indexing one multimedia object.

    Attributes:
        name: the object's name (the video the pass indexes).
        source: zero-argument callable reading the raw object — a
            :class:`~repro.video.frames.VideoClip` for video grammars,
            any raw object with ``name``/``fps``/``__len__`` otherwise
            (e.g. an :class:`~repro.audio.signal.AudioSignal`).  The
            axiom token is read on demand: the first :meth:`require` of
            it calls *source*, once per pass, and the pass drops the
            token when it ends, so no context outlives its pass holding
            frames.  ``None`` when the pass was handed the object.
        model: the COBRA meta-index being populated.
        video_id: meta-index id of this object's raw-layer record.
        tokens: meta-data blackboard: token name -> value.
        axiom: the axiom token name (default ``video``).
        invocations: per-detector run counter (benchmark bookkeeping).
        current_detector: name of the detector the registry is currently
            running (set by :meth:`DetectorRegistry.run`), so failures
            raised from shared helpers can be attributed.
        health: the :class:`~repro.grammar.runtime.IndexingHealthReport`
            of the pass that produced this context (set by the FDE).
    """

    name: str
    source: Callable[[], object] | None
    model: CobraModel
    video_id: int
    tokens: dict[str, object] = field(default_factory=dict)
    invocations: dict[str, int] = field(default_factory=dict)
    axiom: str = "video"
    current_detector: str | None = None
    health: object | None = None

    def require(self, token: str):
        """Read an input token, failing loudly when a dependency is missing.

        The axiom is read from :attr:`source` the first time it is
        required in a pass.
        """
        if token == self.axiom and token not in self.tokens and self.source is not None:
            self.tokens[token] = self.source()
        if token not in self.tokens:
            requester = (
                f"detector {self.current_detector!r}"
                if self.current_detector
                else "a detector"
            )
            raise MissingTokenError(
                f"{requester} requires token {token!r}, which is not "
                "available — was its producer run?",
                detector=self.current_detector,
            )
        return self.tokens[token]


@dataclass
class _Registration:
    fn: Callable[[IndexingContext], None]
    kind: str
    version: int


class DetectorRegistry:
    """Named detector implementations with versions."""

    def __init__(self) -> None:
        self._entries: dict[str, _Registration] = {}

    def register(
        self,
        name: str,
        fn: Callable[[IndexingContext], None],
        kind: str = "black",
        version: int = 1,
    ) -> None:
        """Register (or replace) the implementation of *name*.

        Replacing an existing registration bumps the version unless a
        higher one is given explicitly.
        """
        if kind not in ("white", "black"):
            raise ValueError(f"kind must be white/black, got {kind!r}")
        if name in self._entries:
            version = max(version, self._entries[name].version + 1)
        self._entries[name] = _Registration(fn=fn, kind=kind, version=version)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def fn(self, name: str) -> Callable[[IndexingContext], None]:
        if name not in self._entries:
            raise KeyError(f"no detector implementation registered for {name!r}")
        return self._entries[name].fn

    def version(self, name: str) -> int:
        return self._entries[name].version

    def bump_version(self, name: str) -> int:
        """Mark *name* changed (e.g. retuned thresholds); returns new version."""
        if name not in self._entries:
            raise KeyError(f"no detector implementation registered for {name!r}")
        self._entries[name].version += 1
        return self._entries[name].version

    def wrap(self, name: str, wrapper) -> None:
        """Replace *name*'s callable with ``wrapper(current_fn)``.

        Unlike :meth:`register`, the version is untouched: wrapping is
        for instrumentation and fault injection, which must not look
        like an implementation change to the revalidation machinery.
        """
        if name not in self._entries:
            raise KeyError(f"no detector implementation registered for {name!r}")
        self._entries[name].fn = wrapper(self._entries[name].fn)

    def run(self, name: str, context: IndexingContext) -> None:
        """Invoke a detector and count the invocation."""
        previous = context.current_detector
        context.current_detector = name
        try:
            self.fn(name)(context)
        finally:
            context.current_detector = previous
        context.invocations[name] = context.invocations.get(name, 0) + 1
