"""The Feature Detector Engine.

Generated from a feature grammar, the FDE:

1. derives the detector dependency DAG (Figure 1 of the paper),
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

One parse serves both ingest paths: a clip is parsed whole
(:meth:`FeatureDetectorEngine.index_video`), a stream chunk by chunk
(:meth:`FeatureDetectorEngine.parse_chunk`), through the same runner.

Like Acoi, the FDE indexes by reference: it keeps, per video, a
*source* — a zero-argument callable that re-reads the raw object — and
never the object itself.  Only a running pass holds frames: the
indexing pass reads the clip it was given, and :meth:`revalidate` calls
the source again, once, and only when a detector is stale.  No cached
token value references a frame (a ``shot`` entry is ``(shot,
shot_id)``; ``tennis`` reads a shot's frames from the pass's axiom
token).

Every whole-clip pass is staged: it runs against a private scratch
model (:meth:`FeatureDetectorEngine.stage_video`), so worker threads
never contend on the shared meta-index, and a single committer adopts
stages in plan order (:meth:`FeatureDetectorEngine.commit_staged`).  An
entity keeps the id its pass gave it, moved by one shift per layer, and
the live counters advance by every id the pass handed out, burned ones
included — so a staged commit assigns exactly the ids of a sequential
one.  :meth:`FeatureDetectorEngine.index_video` is that sequential one:
a stage whose scratch counters start at the live model's, committed at
once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import networkx as nx

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
    .revalidate` calls it once per pass that runs a detector); no field
    holds a frame.  Empty *outputs* and *versions* make every detector
    stale, so the first revalidation runs the whole DAG.
    """

    source: Callable[[], object]
    video_id: int  # raw-layer id in the engine's model
    outputs: dict[str, dict[str, object]]  # detector -> {token: value}
    versions: dict[str, int]  # detector -> registry version used
    health: IndexingHealthReport | None = None


@dataclass
class StagedVideo:
    """One full indexing pass, run against a private scratch model.

    Produced by :meth:`FeatureDetectorEngine.stage_video` on any worker
    thread; consumed by :meth:`FeatureDetectorEngine.commit_staged` on
    the committer.  Nothing here has touched the engine's shared state:
    entity identifiers are scratch-local, health accounting is recorded
    in :attr:`results` instead of applied to the runner, and the
    quarantine checks the pass made are remembered in
    :attr:`decisions` so the committer can detect that another video's
    commit changed them in the meantime.

    Attributes:
        clip: the raw multimedia object the pass indexed; held only
            until the commit (a re-index after a quarantine shift reads
            it again).
        source: zero-argument callable re-reading the raw object; the
            committed video keeps this, not :attr:`clip`.
        model: the scratch :class:`~repro.core.model.CobraModel` holding
            the pass's entities (scratch-local identifiers).
        first_ids: the scratch model's per-layer next ids before the
            pass (:meth:`~repro.core.model.CobraModel.high_water` order).
        video_id: the raw-layer id inside the scratch model.
        context: the pass's indexing context (scratch model, scratch id).
        health: the pass's health report.
        outputs: per-detector token outputs (values may embed
            scratch-local identifiers — see :meth:`commit_staged`).
        versions: per-detector registry versions used.
        results: deferred ``record_video_result`` calls as
            ``(detector, failed)`` pairs, in canonical order.
        decisions: quarantine state observed per preflighted detector;
            the committer revalidates these against the live runner.
        failure: the first non-OK outcome under ``fail_fast``, else
            ``None``.
    """

    clip: object
    source: Callable[[], object]
    model: CobraModel
    first_ids: tuple[int, ...]
    video_id: int
    context: IndexingContext
    health: IndexingHealthReport
    outputs: dict[str, dict[str, object]]
    versions: dict[str, int]
    results: list[tuple[str, bool]]
    decisions: dict[str, bool]
    failure: DetectorOutcome | None


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
    :meth:`parse_chunk` calls.
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
        self._graph = self._build_graph()
        self._order = execution_order(self._graph, grammar.axiom)
        self._downstream = {
            node: frozenset(nx.descendants(self._graph, node)) for node in self._graph
        }

    @property
    def policy(self) -> RunPolicy:
        return self.runner.policy

    # ------------------------------------------------------------------ #
    # The dependency DAG (Figure 1)
    # ------------------------------------------------------------------ #

    def dependency_graph(self) -> nx.DiGraph:
        """Detector dependency DAG (a copy the caller may mutate).

        Nodes are detectors plus the ``video`` axiom; an edge ``a -> b``
        means b consumes a token a produces.  Edges carry the token as
        the ``token`` attribute; nodes carry ``kind`` and ``guard``.
        """
        return self._graph.copy()

    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        axiom = self.grammar.axiom
        graph.add_node(axiom, kind="axiom", guard=None)
        for decl in self.grammar.detectors:
            graph.add_node(decl.name, kind=decl.kind, guard=decl.guard)
        for decl in self.grammar.detectors:
            for token in decl.inputs:
                producer = self.grammar.producer_of(token)
                source = axiom if producer is None else producer.name
                graph.add_edge(source, decl.name, token=token)
        return graph

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
        decisions: dict[str, bool] | None,
    ) -> DetectorOutcome | None:
        """Decide whether *name* runs at all, without invoking it.

        Checks the skip map, then quarantine, then the deadline, and
        returns the terminal outcome when the detector must not run, or
        ``None`` when it is runnable.  Quarantine checks are recorded in
        *decisions* (when given) so a staged pass can later prove its
        checks still match the live runner.
        """
        runner = self.runner
        if name in skipped:
            return DetectorOutcome(
                name=name, status=DetectorStatus.SKIPPED, skipped_because=skipped[name]
            )
        quarantined = runner.is_quarantined(name)
        if decisions is not None:
            decisions[name] = quarantined
        if quarantined:
            return DetectorOutcome(name=name, status=DetectorStatus.QUARANTINED)
        if deadline_at is not None and runner.clock() >= deadline_at:
            return DetectorOutcome(
                name=name, status=DetectorStatus.SKIPPED, skipped_because="deadline"
            )
        return None

    def _parse(
        self,
        context: IndexingContext,
        names,
        record_result,
        decisions: dict[str, bool] | None = None,
        on_ok=None,
        prune_empty: bool = False,
    ) -> tuple[IndexingHealthReport, DetectorOutcome | None]:
        """Run *names* over *context* in execution order, under one deadline budget.

        Every detector goes through the runner; ``record_result`` gets
        one call per detector that ran.  A failed or quarantined
        detector skips its DAG subtree.  With *prune_empty*, an OK
        detector whose outputs are all empty drops its subtree from the
        pass (no outcome rows): nothing new reached it.  Returns the
        pass's health report (also set as ``context.health``) and the
        fatal outcome under ``fail_fast``, else ``None``.
        """
        policy = self.policy
        health = IndexingHealthReport(video_name=context.clip.name)
        started = self.runner.clock()
        deadline_at = started + policy.deadline if policy.deadline is not None else None
        skipped: dict[str, str] = {}
        pruned: set[str] = set()
        failure = None
        for name in self._order:
            if name not in names or name in pruned:
                continue
            outcome = self._preflight(name, deadline_at, skipped, decisions)
            if outcome is None:
                outcome = self.runner.run(name, context, deadline_at=deadline_at)
                record_result(name, outcome.status is not DetectorStatus.OK)
            health.outcomes[name] = outcome
            if outcome.status is DetectorStatus.OK:
                if on_ok is not None:
                    on_ok(name)
                outputs = self.grammar.detector(name).outputs
                if prune_empty and not any(context.tokens.get(token) for token in outputs):
                    pruned |= self._downstream[name]
                continue
            if outcome.status in (DetectorStatus.FAILED, DetectorStatus.QUARANTINED):
                for descendant in self._downstream[name]:
                    skipped.setdefault(descendant, name)
            if policy.isolation is IsolationPolicy.FAIL_FAST:
                failure = outcome
                break
        health.elapsed = self.runner.clock() - started
        health.degraded = failure is not None or len(health.ok) < len(health.outcomes)
        context.health = health
        return health, failure

    def parse_chunk(self, chunk, video_id: int, record_result, final: bool) -> IndexingContext:
        """The incremental parse: every detector over one chunk of a stream.

        *chunk* is the axiom token (its ``name`` is the stream's) and
        *video_id* the stream's raw-layer record in the live model.  The
        chunk runs through the same runner, retries, isolation policy
        and fault injection as :meth:`index_video`; the deadline budget
        applies per call.  A non-final chunk runs nothing below a
        detector whose outputs are all empty (a chunk that closes no
        shot runs ``segment`` alone); a *final* chunk runs the whole
        DAG, as a clip does.  *record_result* receives the
        ``record_video_result`` calls, deferred to the caller.  Under
        ``fail_fast`` a failure is re-raised once the pass stops
        (rolling back is the caller's).  Returns the chunk's context;
        its ``health`` is the chunk's report.
        """
        context = IndexingContext(
            clip=chunk, model=self.model, video_id=video_id, axiom=self.grammar.axiom
        )
        _, failure = self._parse(context, self._order, record_result, prune_empty=not final)
        if failure is not None:
            self._raise_outcome(failure)
        return context

    def _run_video_pass(self, clip, model: CobraModel, source) -> StagedVideo:
        """One full indexing pass over *clip* against the scratch *model*.

        *source* re-reads the clip later; ``None`` makes the clip its
        own source.  The ``record_video_result`` calls are deferred into
        the stage's :attr:`~StagedVideo.results` and the quarantine
        checks recorded in its :attr:`~StagedVideo.decisions`, for
        :meth:`commit_staged`.
        """
        self._check_registry()
        self._check_new(clip.name)
        first_ids = model.high_water()[:4]
        results: list[tuple[str, bool]] = []
        decisions: dict[str, bool] = {}
        video = model.add_video(clip.name, fps=clip.fps, n_frames=len(clip))
        context = IndexingContext(
            clip=clip,
            model=model,
            video_id=video.video_id,
            axiom=self.grammar.axiom,
        )
        outputs: dict[str, dict[str, object]] = {}
        versions: dict[str, int] = {}

        def on_ok(name: str) -> None:
            decl = self.grammar.detector(name)
            outputs[name] = {
                token: context.tokens.get(token) for token in decl.outputs
            }
            versions[name] = self.registry.version(name)

        health, failure = self._parse(
            context,
            self._order,
            lambda name, failed: results.append((name, failed)),
            decisions,
            on_ok,
        )
        return StagedVideo(
            clip=clip,
            source=source if source is not None else lambda: clip,
            model=model,
            first_ids=first_ids,
            video_id=video.video_id,
            context=context,
            health=health,
            outputs=outputs,
            versions=versions,
            results=results,
            decisions=decisions,
            failure=failure,
        )

    def _check_new(self, name: str) -> None:
        if name in self._states:
            raise ValueError(
                f"video {name!r} already indexed; use revalidate() for updates"
            )

    def _raise_outcome(self, outcome: DetectorOutcome):
        """Re-raise the failure behind *outcome* (``fail_fast`` path)."""
        if outcome.error is not None:
            raise outcome.error
        raise DeadlineExceededError(
            f"deadline budget exhausted at detector {outcome.name!r}",
            detector=outcome.name,
        )

    def index_video(self, clip, *, source: Callable[[], object] | None = None) -> IndexingContext:
        """Run the full pipeline over *clip* and cache all outputs.

        *clip* is any raw multimedia object exposing ``name``, ``fps``
        and ``__len__`` — a video clip, or an audio signal for grammars
        declaring ``AXIOM audio``.  *source* is a zero-argument callable
        returning the same object again; the engine keeps it, not the
        clip, and :meth:`revalidate` calls it.  Omitted, the clip is its
        own source (and stays referenced for as long as the engine).

        A stage whose scratch counters start at the live model's,
        committed at once (:meth:`commit_staged`): nothing shifts, so
        the cached outputs are kept for :meth:`revalidate`.  Under
        ``fail_fast`` a failing detector rolls the whole video back (no
        trace in the meta-index) and re-raises; under
        ``skip_subtree``/``quarantine`` the video is committed with the
        failing subtree's meta-data missing and its raw-layer record
        flagged degraded.  The pass's health report is available as
        ``context.health``, :attr:`last_health` and :meth:`health_of`.
        """
        scratch = CobraModel()
        scratch.adopt(next_ids=self.model.high_water()[:4])
        return self.commit_staged(self._run_video_pass(clip, scratch, source))

    # ------------------------------------------------------------------ #
    # Staged indexing (per-video parallelism)
    # ------------------------------------------------------------------ #

    def stage_video(self, clip, *, source: Callable[[], object] | None = None) -> StagedVideo:
        """Run a full pass over *clip* against a fresh scratch model.

        *source* is as for :meth:`index_video`.

        Safe to call from any worker thread: nothing engine-shared is
        mutated.  Quarantine checks go against the live runner but the
        observed answers are recorded (:attr:`StagedVideo.decisions`)
        and re-validated at commit; health accounting is deferred into
        :attr:`StagedVideo.results`.  Commit stages in plan order via
        :meth:`commit_staged` to reproduce a sequential run exactly.
        """
        return self._run_video_pass(clip, CobraModel(), source)

    def commit_staged(self, staged: StagedVideo) -> IndexingContext:
        """Adopt a staged pass into the engine (committer thread only).

        Moves the scratch entities into the shared model with their ids
        shifted (:meth:`_merge_model`): the ids a sequential
        :meth:`index_video` call at this point would assign, burned
        ones included.  Then applies the deferred health accounting in
        canonical order.

        If another video's commit changed the quarantine state a staged
        pass relied on (:attr:`StagedVideo.decisions` no longer match
        the live runner), the stage is discarded and the video is
        re-indexed in place, which at this plan position is exactly what
        a sequential run would have produced.

        The video is remembered by its :attr:`StagedVideo.source`.  Its
        cached detector outputs are kept when no layer shifted (as in
        :meth:`index_video`) and reset otherwise (their token values
        embed scratch-local identifiers), so the first :meth:`revalidate`
        then re-runs every detector rather than serving poisoned caches.

        Under ``fail_fast`` a staged failure is re-raised here, after
        merging and removing the video, so it burns the same identifier
        ranges a sequential failing pass would and later videos keep
        byte-identical ids.

        Returns the pass's context, re-pointed at the shared model and
        the committed video id; its token values keep the scratch ids
        unless nothing shifted.
        """
        self._check_new(staged.clip.name)
        moved = any(
            self.runner.is_quarantined(detector) != quarantined
            for detector, quarantined in staged.decisions.items()
        )
        if moved:
            return self.index_video(staged.clip, source=staged.source)
        for detector, failed in staged.results:
            self.runner.record_video_result(detector, failed=failed)
        self.last_health = staged.health
        shift = self._merge_model(staged)
        video_id = staged.video_id + shift[0]
        if staged.failure is not None:
            self.model.remove_video(video_id)
            self._raise_outcome(staged.failure)
        if staged.health.degraded:
            self.model.mark_degraded(video_id)
        context = staged.context
        context.model = self.model
        context.video_id = video_id
        kept = not any(shift)
        self._remember(
            staged.clip.name,
            staged.source,
            video_id,
            staged.health,
            outputs=staged.outputs if kept else {},
            versions=staged.versions if kept else {},
        )
        return context

    def register_stream(
        self, name: str, video_id: int, source: Callable[[], object], health
    ) -> None:
        """Put a finished stream's video under revalidation.

        A stream's chunks are parsed (:meth:`parse_chunk`) but never
        cached: the video is remembered by *source* with an empty
        cache, so its first :meth:`revalidate` runs the whole DAG over
        the re-read object — as after a staged commit whose ids
        shifted.  *health* is the stream's merged report.
        """
        self._remember(name, source, video_id, health, outputs={}, versions={})

    def _remember(self, name: str, source, video_id: int, health, *, outputs, versions) -> None:
        """The one writer of per-video FDE state: *name* is remembered
        by *source*, never by its frames."""
        self._states[name] = _VideoState(
            source=source, video_id=video_id, outputs=outputs, versions=versions, health=health
        )

    def _merge_model(self, staged: StagedVideo) -> tuple[int, ...]:
        """Adopt *staged*'s scratch entities into the shared model.

        Every id moves by its layer's shift — the live next id minus the
        scratch model's first — and so does every parent id a row names.
        The live counters advance by the ids the pass handed out, not by
        the rows it kept.  Returns the per-layer shifts.
        """
        scratch = staged.model
        shift = tuple(
            live - first for live, first in zip(self.model.high_water()[:4], staged.first_ids)
        )
        videos, shots, objects, events = shift
        self.model.adopt(
            videos=[replace(v, video_id=v.video_id + videos) for v in scratch.videos],
            shots=[
                replace(s, shot_id=s.shot_id + shots, video_id=s.video_id + videos)
                for s in scratch.shots
            ],
            objects=[
                replace(o, object_id=o.object_id + objects, shot_id=o.shot_id + shots)
                for o in scratch.objects
            ],
            events=[
                replace(
                    e,
                    event_id=e.event_id + events,
                    shot_id=e.shot_id + shots,
                    object_id=None if e.object_id is None else e.object_id + objects,
                )
                for e in scratch.events
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
        The raw object is re-read from the video's source, once, and
        only when some detector is stale; the pass drops it on return.

        The pass is *crash-consistent*: re-runs are staged and committed
        to the cached state only when the pass completes.  Under
        ``fail_fast`` a failing detector leaves the cached outputs and
        versions exactly as they were; under the skip policies the pass
        commits, the failing subtree stays stale (so a later
        revalidation retries it) and the video's degraded flag tracks
        whether every detector now has meta-data.
        """
        self._check_registry()
        if video_name not in self._states:
            raise KeyError(f"video {video_name!r} was never indexed")
        state = self._states[video_name]
        affected = self.descendants_of(self.stale_detectors(video_name))
        report = RevalidationReport()
        if not affected:
            report.reused = {name: 1 for name in state.versions}
            return report

        context = IndexingContext(
            clip=state.source(),
            model=self.model,
            video_id=state.video_id,
            axiom=self.grammar.axiom,
        )
        staged_outputs: dict[str, dict[str, object]] = {}
        staged_versions: dict[str, int] = {}
        # Serve every unaffected detector from the cache up front; each
        # token has a unique producer, so cached values cannot collide
        # with tokens the affected subset will (re)produce.
        for name in self._order:
            if name in affected:
                continue
            staged_outputs[name] = state.outputs[name]
            staged_versions[name] = state.versions[name]
            for token, value in state.outputs[name].items():
                context.tokens[token] = value
            report.reused[name] = report.reused.get(name, 0) + 1

        def on_ok(name: str) -> None:
            decl = self.grammar.detector(name)
            staged_outputs[name] = {
                token: context.tokens.get(token) for token in decl.outputs
            }
            staged_versions[name] = self.registry.version(name)
            report.executed[name] = report.executed.get(name, 0) + 1

        # Skip policies: a non-OK detector keeps no staged entry, so it
        # stays stale and a later revalidation retries it.
        health, failure = self._parse(
            context, affected, self.runner.record_video_result, None, on_ok
        )
        report.health = health
        self.last_health = health
        if failure is not None:
            # Crash consistency: nothing staged is committed, the
            # cached outputs/versions are untouched.
            self._raise_outcome(failure)
        state.outputs = staged_outputs
        state.versions = staged_versions
        state.health = health
        self.model.mark_degraded(state.video_id, degraded=health.degraded)
        return report

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
