"""The Feature Detector Engine.

Generated from a feature grammar, the FDE:

1. derives the detector dependency DAG (Figure 1 of the paper) as a
   plain ``(producer, consumer) -> token`` edge table — networkx is
   imported only by :meth:`FeatureDetectorEngine.dependency_graph`,
   the view the tests check the table against,
2. runs detectors in one deterministic topological order (longest
   path from the axiom, then name),
3. caches each detector's token outputs per video, and
4. *revalidates incrementally*: when a detector implementation changes
   (version bump), only that detector and its descendants re-run;
   everything upstream is served from the cache.  This is the Acoi
   pay-off the E8 benchmark quantifies.

Every detector invocation goes through the fault-tolerance runtime
(:mod:`repro.grammar.runtime`): retries with exponential backoff for
transient failures, cooperative per-attempt timeouts, a per-video
deadline budget, and one of three isolation policies.  The default
policy (``fail_fast``, no retries) reproduces the historical
all-or-nothing behaviour exactly; ``skip_subtree`` and ``quarantine``
commit videos *degraded* — upstream meta-data kept, the failing
detector's DAG subtree skipped — so one bad detector no longer erases a
whole video from the library.

One pass body serves every job: a staged clip
(:meth:`FeatureDetectorEngine.stage_video`), a staged stream chunk
(:meth:`FeatureDetectorEngine.stage_chunk`) and a revalidation
(:meth:`FeatureDetectorEngine.revalidate`) all go through it.  It builds
the pass's context, runs the detectors through the runner and records
every OK detector's outputs and version.

Like Acoi, the FDE indexes by reference: it keeps, per video, a
*source* — a zero-argument callable that re-reads the raw object — and
never the object itself.  Only a running pass holds frames, and only
the detectors that read the axiom make it read: an indexing pass reads
the clip it was given, and a revalidation calls the source at the first
stale detector that requires the axiom, once per pass (so a ``rules``
or ``shape`` bump reads nothing).  The pass drops the axiom token when
it ends, and no cached token value references a frame (a ``shot`` entry
is ``(shot, shot_id)``; ``tennis`` reads a shot's frames from the
pass's axiom token).

Every pass is staged: its detectors write only a private scratch model
whose counters start at the live model's next ids, so worker and stream
threads never contend on the shared meta-index.  The scratch first
adopts the pass's *base*, the live rows it works on, with their ids: a
continuing stream's video row, or a revalidated video's row with its
shots, objects and events.  One commit (:meth:`FeatureDetectorEngine
.commit`) lands every pass under the commit lock through one merge: an
id the scratch minted moves by one shift per layer, a base row the
scratch still holds stays, and a base row it dropped leaves the live
model; the live counters advance by every id the pass handed out,
burned ones included — the ids of a pass run at commit time.  A failed
``fail_fast`` pass is re-raised with its scratch dropped: no live row
changes and no id burns.  One cache rule: a commit keeps its pass's
outputs unless another commit landed after staging (the cached token
values would then name scratch ids).
:meth:`FeatureDetectorEngine.index_video` is a stage committed at once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.core.model import CobraModel
from repro.grammar.detectors import DetectorRegistry, IndexingContext
from repro.grammar.grammar import FeatureGrammar, FeatureGrammarError
from repro.grammar.runtime import (
    DeadlineExceededError,
    DetectorOutcome,
    DetectorRunner,
    DetectorStatus,
    IndexingHealthReport,
    IsolationPolicy,
    RunPolicy,
)
from repro.grammar.schedule import execution_order

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FeatureDetectorEngine", "RevalidationReport", "StagedVideo"]


@dataclass
class RevalidationReport:
    """Work accounting of a revalidation pass.

    Attributes:
        executed: detector invocation count (per detector name).
        reused: cache-hit count (per detector name).
        health: per-detector outcomes of the executed subset (``None``
            for merged multi-video reports).
    """

    executed: dict[str, int] = field(default_factory=dict)
    reused: dict[str, int] = field(default_factory=dict)
    health: IndexingHealthReport | None = None

    @property
    def total_executed(self) -> int:
        return sum(self.executed.values())

    @property
    def total_reused(self) -> int:
        return sum(self.reused.values())


@dataclass
class _VideoState:
    """Cached indexing state of one multimedia object, held by reference.

    *source* re-reads the raw object (:meth:`FeatureDetectorEngine
    .revalidate` calls it once per pass that runs a detector requiring
    the axiom); no field holds a frame.  Empty *outputs* and *versions*
    make every detector stale, so the first revalidation runs the whole
    DAG.
    """

    source: Callable[[], object]
    video_id: int  # raw-layer id in the engine's model
    outputs: dict[str, dict[str, object]]  # detector -> {token: value}
    versions: dict[str, int]  # detector -> registry version used
    health: IndexingHealthReport | None = None


@dataclass
class StagedVideo:
    """One indexing pass, run against a private scratch model.

    Produced by :meth:`FeatureDetectorEngine.stage_video` (a clip),
    :meth:`FeatureDetectorEngine.stage_chunk` (a stream chunk) or a
    revalidation on any thread; consumed by
    :meth:`FeatureDetectorEngine.commit` under the commit lock.  Nothing
    here has touched the engine's shared state: ids the pass minted are
    scratch-local (from the live next ids at staging), health accounting
    waits in :attr:`results`, and the quarantine checks the pass made are
    kept in :attr:`decisions` so the committer can detect that another
    commit changed them.  A clip's stage holds no frame (the video is
    held by its source); a chunk's stage holds the chunk until its
    commit.

    Attributes:
        model: the scratch :class:`~repro.core.model.CobraModel` holding
            the pass's base rows (live ids) and the rows it minted.
        first_ids: the scratch model's per-layer next ids before the
            pass (:meth:`~repro.core.model.CobraModel.high_water` order).
        context: the pass's indexing context: the video's ``name``,
            ``source``, scratch ``video_id`` and ``health`` report.
        state: the per-video FDE state the commit remembers: source,
            per-detector token outputs (values may embed scratch-local
            identifiers — see :meth:`FeatureDetectorEngine.commit`) and
            registry versions; ``None`` for a chunk (a stream is
            remembered once it ends).
        results: deferred ``record_video_result`` calls as
            ``(detector, failed)`` pairs, in canonical order.
        decisions: quarantine state observed per preflighted detector;
            the committer revalidates these against the live runner.
        failure: the first non-OK outcome under ``fail_fast``, else
            ``None``.
        dropped: per layer the ids of base rows the pass removed.
        restage: stages the same pass again, against the live model.
    """

    model: CobraModel
    first_ids: tuple[int, ...]
    context: IndexingContext
    state: _VideoState | None
    results: list[tuple[str, bool]]
    decisions: dict[str, bool]
    failure: DetectorOutcome | None
    dropped: tuple[list[int], ...]
    restage: Callable[[], StagedVideo]


def _shifter(first: int, by: int) -> Callable[[int], int]:
    """The id rule of one layer: ids from *first* on move by *by*."""
    return lambda entity_id: entity_id if entity_id < first else entity_id + by


def _reachable(consumers: dict[str, list[str]], node: str) -> frozenset[str]:
    """Every node downstream of *node* (itself excluded) in the DAG."""
    seen: set[str] = set()
    stack = list(consumers[node])
    while stack:
        below = stack.pop()
        if below not in seen:
            seen.add(below)
            stack.extend(consumers[below])
    return frozenset(seen)


class FeatureDetectorEngine:
    """The parser the feature grammar generates.

    Args:
        grammar: the validated feature grammar.
        registry: detector implementations; every grammar detector must
            be registered before indexing.
        model: the COBRA meta-index to populate (a fresh one by default).
        policy: fault-tolerance configuration (default: ``fail_fast``
            with no retries — the historical behaviour).
        runner: full :class:`~repro.grammar.runtime.DetectorRunner`
            override (injectable clock/sleep for tests); *policy* is
            ignored when given.

    ``segmenter`` is the segment detector configuration behind the
    ``shot`` producer, when the factory names one (``build_tennis_fde``
    does): a stream keeps its incremental state across
    :meth:`stage_chunk` calls.
    """

    def __init__(
        self,
        grammar: FeatureGrammar,
        registry: DetectorRegistry,
        model: CobraModel | None = None,
        policy: RunPolicy | None = None,
        runner: DetectorRunner | None = None,
    ):
        grammar.validate()
        self.grammar = grammar
        self.registry = registry
        self.model = model if model is not None else CobraModel()
        self.runner = runner if runner is not None else DetectorRunner(registry, policy)
        if self.runner.registry is not registry:
            raise ValueError("runner must wrap the engine's registry")
        self.segmenter = None
        self.last_health: IndexingHealthReport | None = None
        self._states: dict[str, _VideoState] = {}
        # The grammar is validated here and never mutated after, so the
        # DAG, its order and every node's downstream set are derived once.
        #: The DAG as a read-only ``(producer, consumer) -> token`` table.
        self.edges = self._build_edges()
        nodes = [grammar.axiom, *(d.name for d in grammar.detectors)]
        self._order = execution_order(nodes, self.edges, grammar.axiom)
        consumers: dict[str, list[str]] = {node: [] for node in nodes}
        for source, target in self.edges:
            consumers[source].append(target)
        self._downstream = {node: _reachable(consumers, node) for node in nodes}

    @property
    def policy(self) -> RunPolicy:
        return self.runner.policy

    # ------------------------------------------------------------------ #
    # The dependency DAG (Figure 1)
    # ------------------------------------------------------------------ #

    def dependency_graph(self) -> nx.DiGraph:
        """Detector dependency DAG as a fresh ``networkx.DiGraph``.

        Nodes are detectors plus the ``video`` axiom; an edge ``a -> b``
        means b consumes a token a produces.  Edges carry the token as
        the ``token`` attribute; nodes carry ``kind`` and ``guard``.
        The engine keeps only the edge table (:attr:`edges`), so
        networkx, a development dependency, is imported here, for tests.
        """
        import networkx

        graph = networkx.DiGraph()
        graph.add_node(self.grammar.axiom, kind="axiom", guard=None)
        for decl in self.grammar.detectors:
            graph.add_node(decl.name, kind=decl.kind, guard=decl.guard)
        for (source, target), token in self.edges.items():
            graph.add_edge(source, target, token=token)
        return graph

    def _build_edges(self) -> dict[tuple[str, str], str]:
        """``(producer, consumer) -> token``; a pair joined by several
        tokens keeps the last, in first-seen order."""
        edges: dict[tuple[str, str], str] = {}
        for decl in self.grammar.detectors:
            for token in decl.inputs:
                producer = self.grammar.producer_of(token)
                source = self.grammar.axiom if producer is None else producer.name
                edges[source, decl.name] = token
        return edges

    def execution_order(self) -> list[str]:
        """Deterministic topological order of the detectors: by longest
        path from the axiom, then by name."""
        return list(self._order)

    def descendants_of(self, names: set[str]) -> set[str]:
        """The given detectors plus everything downstream of them."""
        out = set(names)
        for name in names:
            if name not in self._downstream:
                raise FeatureGrammarError(f"unknown detector {name!r}")
            out.update(self._downstream[name])
        out.discard(self.grammar.axiom)
        return out

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #

    def _check_registry(self) -> None:
        missing = [d.name for d in self.grammar.detectors if d.name not in self.registry]
        if missing:
            raise FeatureGrammarError(
                f"unregistered detector implementations: {missing}"
            )

    def _preflight(
        self,
        name: str,
        deadline_at: float | None,
        skipped: dict[str, str],
        decisions: dict[str, bool],
    ) -> DetectorOutcome | None:
        """Decide whether *name* runs at all, without invoking it.

        Checks the skip map, then quarantine, then the deadline, and
        returns the terminal outcome when the detector must not run, or
        ``None`` when it is runnable.  Quarantine checks are recorded in
        *decisions* so the commit can prove they still match the live
        runner.
        """
        runner = self.runner
        if name in skipped:
            return DetectorOutcome(
                name=name, status=DetectorStatus.SKIPPED, skipped_because=skipped[name]
            )
        decisions[name] = runner.is_quarantined(name)
        if decisions[name]:
            return DetectorOutcome(name=name, status=DetectorStatus.QUARANTINED)
        if deadline_at is not None and runner.clock() >= deadline_at:
            return DetectorOutcome(
                name=name, status=DetectorStatus.SKIPPED, skipped_because="deadline"
            )
        return None

    def _parse(
        self,
        name: str,
        source: Callable[[], object] | None,
        model: CobraModel,
        video_id: int,
        results: list[tuple[str, bool]],
        decisions: dict[str, bool],
        *,
        token=None,
        names=None,
        cached: _VideoState | None = None,
        prune_empty: bool = False,
    ) -> tuple[IndexingContext, _VideoState, DetectorOutcome | None]:
        """The one pass body: *names* (default: every detector) over the
        object *name*, in execution order, under one deadline budget,
        against the scratch *model* of :meth:`_stage`.

        Builds the pass's context.  Its axiom token is *token* when the
        caller holds the object already; otherwise the first detector
        that requires the axiom calls *source*, once.  The pass drops
        the token when it ends.  With *cached*, every detector outside
        *names* is served from that state up front; each token has a
        unique producer, so cached values cannot collide with tokens the
        pass (re)produces.

        Every detector goes through the runner; *results* gets one
        ``(detector, failed)`` pair per detector that ran, *decisions*
        every quarantine check.  A failed or quarantined
        detector skips its DAG subtree.  With *prune_empty*, an OK
        detector whose outputs are all empty drops its subtree from the
        pass (no outcome rows): nothing new reached it.  Returns the
        context (its ``health`` is the pass's report); the pass's state,
        holding the outputs and registry version of every OK detector
        (cached ones included; a non-OK detector has no entry, so it
        stays stale); and the fatal outcome under ``fail_fast``, else
        ``None``.
        """
        policy = self.policy
        context = IndexingContext(
            name=name, source=source, model=model, video_id=video_id, axiom=self.grammar.axiom
        )
        if token is not None:
            context.tokens[context.axiom] = token
        health = IndexingHealthReport(video_name=name)
        state = _VideoState(source, video_id, outputs={}, versions={}, health=health)
        names = self._order if names is None else names
        if cached is not None:
            for detector in self._order:
                if detector not in names:
                    state.outputs[detector] = cached.outputs[detector]
                    state.versions[detector] = cached.versions[detector]
                    context.tokens.update(cached.outputs[detector])
        started = self.runner.clock()
        deadline_at = started + policy.deadline if policy.deadline is not None else None
        skipped: dict[str, str] = {}
        pruned: set[str] = set()
        failure = None
        for detector in self._order:
            if detector not in names or detector in pruned:
                continue
            outcome = self._preflight(detector, deadline_at, skipped, decisions)
            if outcome is None:
                outcome = self.runner.run(detector, context, deadline_at=deadline_at)
                results.append((detector, outcome.status is not DetectorStatus.OK))
            health.outcomes[detector] = outcome
            if outcome.status is DetectorStatus.OK:
                outputs = {
                    out: context.tokens.get(out) for out in self.grammar.detector(detector).outputs
                }
                state.outputs[detector] = outputs
                state.versions[detector] = self.registry.version(detector)
                if prune_empty and not any(outputs.values()):
                    pruned |= self._downstream[detector]
                continue
            if outcome.status in (DetectorStatus.FAILED, DetectorStatus.QUARANTINED):
                for descendant in self._downstream[detector]:
                    skipped.setdefault(descendant, detector)
            if policy.isolation is IsolationPolicy.FAIL_FAST:
                failure = outcome
                break
        context.tokens.pop(context.axiom, None)
        health.elapsed = self.runner.clock() - started
        health.degraded = failure is not None or len(health.ok) < len(health.outcomes)
        context.health = health
        return context, state, failure

    def _check_new(self, name: str) -> None:
        if name in self._states:
            raise ValueError(
                f"video {name!r} already indexed; use revalidate() for updates"
            )

    def index_video(self, clip, *, source: Callable[[], object] | None = None) -> IndexingContext:
        """Run the full pipeline over *clip* and cache all outputs.

        *clip* is any raw multimedia object exposing ``name``, ``fps``
        and ``__len__`` — a video clip, or an audio signal for grammars
        declaring ``AXIOM audio``.  *source* is a zero-argument callable
        returning the same object again; the engine keeps it, not the
        clip, and :meth:`revalidate` calls it.  Omitted, the clip is its
        own source (and stays referenced for as long as the engine).

        ``commit(stage_video(...))``: nothing lands between the two, so
        the cached outputs are kept for :meth:`revalidate`.  Under
        ``fail_fast`` a failing detector leaves no trace in the
        meta-index (no row, no burned id) and re-raises; under
        ``skip_subtree``/``quarantine`` the video is committed with the
        failing subtree's meta-data missing and its raw-layer record
        flagged degraded.  The pass's health report is available as
        ``context.health``, :attr:`last_health` and :meth:`health_of`.
        """
        return self.commit(self.stage_video(clip, source=source), self.runner.record_video_result)

    # ------------------------------------------------------------------ #
    # Staged passes and their one commit
    # ------------------------------------------------------------------ #

    def _stage(self, restage, name, source, base, *, fps=None, n_frames=0, **pass_args):
        """The one scratch setup, then the pass (:meth:`_parse` with
        *pass_args*).  The scratch's counters start at the live next ids
        and it adopts *base*, the live rows the pass works on per layer
        (videos, shots, objects, events), with their ids; a base with no
        video adds one from *name*, *fps* and *n_frames*.  *restage*
        stages the same pass again."""
        first_ids = self.model.high_water()[:4]
        model = CobraModel()
        model.adopt(*base, next_ids=first_ids)
        held = [list(ids) for ids in model.ids()]
        video = base[0][0] if base else model.add_video(name, fps=fps, n_frames=n_frames)
        results: list[tuple[str, bool]] = []
        decisions: dict[str, bool] = {}
        context, state, failure = self._parse(
            name, source, model, video.video_id, results, decisions, **pass_args
        )
        dropped = tuple([i for i in ids if i not in now] for ids, now in zip(held, model.ids()))
        return StagedVideo(
            model, first_ids, context, state, results, decisions, failure, dropped, restage
        )

    def stage_video(self, clip, *, source: Callable[[], object] | None = None) -> StagedVideo:
        """Run a full pass over *clip* against a fresh scratch model.

        *source* is as for :meth:`index_video`.  The scratch counters
        start at the live model's next ids, so a stage committed before
        any other commit lands keeps its ids and its cache.

        Safe to call from any worker thread: nothing engine-shared is
        mutated.  Quarantine checks go against the live runner but the
        observed answers are recorded (:attr:`StagedVideo.decisions`)
        and re-validated at commit; health accounting is deferred into
        :attr:`StagedVideo.results`.  Commit stages in plan order via
        :meth:`commit` to reproduce a sequential run exactly.
        """
        self._check_registry()
        self._check_new(clip.name)
        source = source if source is not None else lambda: clip
        return self._stage(
            lambda: self.stage_video(source(), source=source),
            clip.name,
            source,
            (),
            token=clip,
            fps=clip.fps,
            n_frames=len(clip),
        )

    def stage_chunk(self, chunk, fps: float, video_id: int | None) -> StagedVideo:
        """The incremental parse, staged as :meth:`stage_video` stages a
        clip, and as safe outside the commit lock.

        *chunk* is the axiom token (its ``name`` is the stream's);
        *video_id* is the stream's live raw-layer id — the pass's base —
        ``None`` before its first chunk commits (the scratch then adds
        the video at *fps*).  The deadline budget applies per chunk.  A
        non-final chunk runs nothing below a detector whose outputs are
        all empty (a chunk that closes no shot runs ``segment`` alone); a
        final chunk runs the whole DAG, as a clip does.  Land it with
        :meth:`commit`; its state is not kept (:meth:`register_stream`
        remembers a finished stream).
        """
        base = () if video_id is None else ((self.model.video(video_id),),)
        staged = self._stage(
            partial(self.stage_chunk, chunk, fps, video_id),
            chunk.name,
            lambda: chunk,
            base,
            token=chunk,
            fps=fps,
            prune_empty=not chunk.final,
        )
        staged.state = None
        return staged

    def _stage_revalidation(self, video_name: str, affected: set[str]) -> StagedVideo:
        """Stage *affected* over an indexed video, every other detector
        served from its cache.  The base is the video's live row with
        its shots, objects and events (one scan of the live model)."""
        state, live = self._states[video_name], self.model
        shots = [s for s in live.shots if s.video_id == state.video_id]
        shot_ids = {s.shot_id for s in shots}
        base = (
            (live.video(state.video_id),),
            shots,
            [o for o in live.objects if o.shot_id in shot_ids],
            [e for e in live.events if e.shot_id in shot_ids],
        )
        return self._stage(
            partial(self._stage_revalidation, video_name, affected),
            video_name,
            state.source,
            base,
            names=affected,
            cached=state,
        )

    def commit(self, staged: StagedVideo, record_result) -> IndexingContext:
        """Land a staged pass — clip, chunk or revalidation — in the live
        model (committer thread, under the commit lock).

        If another commit since staging changed a quarantine decision
        the pass checked (:attr:`StagedVideo.decisions`), the pass is
        staged again first (:attr:`StagedVideo.restage`), which at this
        point is exactly what a sequential run would do.  Under
        ``fail_fast`` a failure is re-raised with the scratch dropped: no
        live row changes, no id burns and the cache stays.  Otherwise
        the deferred results go to *record_result*
        (``runner.record_video_result``, or a stream's per-video fold),
        the scratch merges (:meth:`_merge_model`), the context is
        re-pointed at the live model and video id, and the video's
        degraded flag is set from the pass's report — cleared only by a
        whole-video pass, never by a chunk.

        A clip or revalidation is remembered by its state.  The one
        cache rule: its detector outputs are kept unless another commit
        landed after staging — then a layer shifted, the token values
        embed scratch-local identifiers, and the cache is reset so the
        next :meth:`revalidate` re-runs every detector rather than
        serving poisoned values.  Returns the pass's context; its token
        values keep the scratch ids unless nothing shifted.
        """
        if any(self.runner.is_quarantined(d) != q for d, q in staged.decisions.items()):
            staged = staged.restage()
        context, state, failure = staged.context, staged.state, staged.failure
        if context.video_id >= staged.first_ids[0]:
            self._check_new(context.name)
        self.last_health = health = context.health
        if failure is not None:
            if failure.error is not None:
                raise failure.error
            raise DeadlineExceededError(
                f"deadline budget exhausted at detector {failure.name!r}",
                detector=failure.name,
            )
        for detector, failed in staged.results:
            record_result(detector, failed)
        shift = self._merge_model(staged)
        context.model = self.model
        context.video_id = _shifter(staged.first_ids[0], shift[0])(context.video_id)
        if health.degraded or state is not None:
            self.model.mark_degraded(context.video_id, degraded=health.degraded)
        if state is not None:
            state.video_id = context.video_id
            if any(shift):
                state.outputs, state.versions = {}, {}
            self._states[context.name] = state
        return context

    def register_stream(
        self, name: str, video_id: int, source: Callable[[], object], health
    ) -> None:
        """Put a finished stream's video under revalidation.

        A stream's chunks are staged (:meth:`stage_chunk`) but never
        cached: the video is remembered by *source* with an empty
        cache, so its first :meth:`revalidate` runs the whole DAG over
        the re-read object — as after a staged commit whose ids
        shifted.  *health* is the stream's merged report.
        """
        self._states[name] = _VideoState(source, video_id, outputs={}, versions={}, health=health)

    def _merge_model(self, staged: StagedVideo) -> tuple[int, ...]:
        """Adopt *staged*'s scratch into the shared model: the one write
        of every pass into the live model, O(rows of the pass).

        The one id rule: an id below the stage's first id of its layer
        names a live row, the pass's base; one the scratch still holds
        stays as it is and one it dropped (:attr:`StagedVideo.dropped`)
        is removed from the live model.  An id the scratch minted moves
        by its layer's shift — the live next id minus the scratch
        model's first — and so does every parent id a row names.  The
        live counters advance by the ids the pass handed out, not by the
        rows it kept.  Returns the per-layer shifts.
        """
        scratch, first = staged.model, staged.first_ids
        shift = tuple(live - at for live, at in zip(self.model.high_water()[:4], first))
        video_at, shot_at, object_at, event_at = map(_shifter, first, shift)
        self.model.discard(*staged.dropped)
        self.model.adopt(
            videos=[
                replace(v, video_id=video_at(v.video_id))
                for v in scratch.videos
                if v.video_id >= first[0]
            ],
            shots=[
                replace(s, shot_id=shot_at(s.shot_id), video_id=video_at(s.video_id))
                for s in scratch.shots
                if s.shot_id >= first[1]
            ],
            objects=[
                replace(o, object_id=object_at(o.object_id), shot_id=shot_at(o.shot_id))
                for o in scratch.objects
                if o.object_id >= first[2]
            ],
            events=[
                replace(
                    e,
                    event_id=event_at(e.event_id),
                    shot_id=shot_at(e.shot_id),
                    object_id=None if e.object_id is None else object_at(e.object_id),
                )
                for e in scratch.events
                if e.event_id >= first[3]
            ],
            next_ids=tuple(end + by for end, by in zip(scratch.high_water()[:4], shift)),
        )
        return shift

    @property
    def indexed_videos(self) -> list[str]:
        return sorted(self._states)

    def health_of(self, video_name: str) -> IndexingHealthReport | None:
        """Health report of the last pass over *video_name*."""
        return self._states[video_name].health

    # ------------------------------------------------------------------ #
    # Incremental revalidation
    # ------------------------------------------------------------------ #

    def stale_detectors(self, video_name: str) -> set[str]:
        """Detectors whose cached output cannot be served.

        Either the registry version is newer than the cached one, or the
        detector has no cached output at all — it failed or was skipped
        when the video was (degraded-)indexed, so revalidation retries
        it.
        """
        state = self._states[video_name]
        return {
            decl.name
            for decl in self.grammar.detectors
            if state.versions.get(decl.name) != self.registry.version(decl.name)
        }

    def revalidate(self, video_name: str) -> RevalidationReport:
        """Re-run only stale detectors (and descendants) for one video.

        Unaffected detectors contribute their cached token outputs, so
        downstream detectors see exactly the inputs a full run would.
        The raw object is re-read from the video's source only when a
        re-run detector requires the axiom, once per pass, and the pass
        drops it on return: a ``rules`` or ``shape`` bump reads nothing.

        The pass is staged and committed like any other (:meth:`commit`):
        its detectors rewrite the video's rows in a scratch model, and
        the commit lands them.  Under ``fail_fast`` a failing detector
        changes no live row and leaves the cached outputs and versions
        exactly as they were; under the skip policies the pass commits,
        the failing subtree stays stale (so a later revalidation retries
        it) and the video's degraded flag tracks whether every detector
        now has meta-data.
        """
        self._check_registry()
        if video_name not in self._states:
            raise KeyError(f"video {video_name!r} was never indexed")
        state = self._states[video_name]
        affected = self.descendants_of(self.stale_detectors(video_name))
        if not affected:
            return RevalidationReport(reused={name: 1 for name in state.versions})
        staged = self._stage_revalidation(video_name, affected)
        health = self.commit(staged, self.runner.record_video_result).health
        return RevalidationReport(
            executed={name: 1 for name in health.ok},
            reused={name: 1 for name in self._order if name not in affected},
            health=health,
        )

    def revalidate_all(self) -> RevalidationReport:
        """Revalidate every indexed video; reports are merged."""
        merged = RevalidationReport()
        for video_name in self.indexed_videos:
            report = self.revalidate(video_name)
            for name, count in report.executed.items():
                merged.executed[name] = merged.executed.get(name, 0) + count
            for name, count in report.reused.items():
                merged.reused[name] = merged.reused.get(name, 0) + count
        return merged
