"""The digital library engine facade.

Combines the three query facilities of the demo:

- conceptual (webspace) constraints resolve to players and the matches
  and videos connected to them;
- content constraints resolve to event scenes in those videos via the
  COBRA meta-index;
- text constraints score the players' interview transcripts by an
  exact full scan of the text index.

``search`` evaluates a :class:`~repro.library.query.LibraryQuery` by
intersecting the three; ``keyword_search`` is the crawler-style baseline
that only sees page text (the E7/E10 comparison point).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.budget import QueryBudget
from repro.dataset.build import TournamentDataset
from repro.grammar.fde import FeatureDetectorEngine
from repro.ir.inverted_index import InvertedIndex
from repro.ir.ranking import RankedHit, rank_full_scan
from repro.ir.topn import full_scan_postings
from repro.library.indexing import LibraryIndexer
from repro.library.persistence import model_to_catalog
from repro.library.query import LibraryQuery
from repro.library.results import SceneResult, fuse_scores, scene_order
from repro.library.service import QueryTrace
from repro.webspace.instances import WebspaceObject
from repro.webspace.schema import SchemaViolation

__all__ = ["DigitalLibraryEngine"]


class DigitalLibraryEngine:
    """One engine over the tournament's concepts, text and video content.

    Args:
        dataset: the tournament dataset (concept graph + pages + plans).
        fde: optional FDE override for video indexing.

    Text queries are scored by an exact full scan of :attr:`text_index`;
    the engine maintains no fragmented top-N index.
    """

    def __init__(
        self,
        dataset: TournamentDataset,
        fde: FeatureDetectorEngine | None = None,
    ):
        self.dataset = dataset
        self.indexer = LibraryIndexer(dataset, fde=fde)
        self.text_index = InvertedIndex(dataset.pages)
        self._text_generation = 0
        #: ``(interviewed_in link count, doc id -> interviewee names)``:
        #: the access path :meth:`_text_scores_per_video` reads.
        self._interviewees: tuple[int, dict[int, tuple[str, ...]]] = (0, {})
        #: Query-by-example state: the IVF index over shot feature
        #: vectors, its per-ann-id provenance rows, and the vectorizer
        #: that embeds query clips.  Built by :meth:`build_ann_index`
        #: or adopted from a snapshot via :meth:`adopt_ann`.
        self.ann_index = None
        self.ann_meta: list[dict] = []
        self.ann_vectorizer = None
        #: Chaos-injection hook fired at every stage entry (see
        #: :class:`repro.faults.QueryFaultInjector`); ``None`` in
        #: production.
        self.stage_hook = None

    def _enter_stage(self, name: str, budget: QueryBudget | None) -> None:
        """Stage-boundary bookkeeping: chaos hook first, then the budget check.

        The ordering is deliberate — injected latency is *spent* before
        the deadline check runs, so a hung stage is charged to the stage
        that hung, exactly as a real slow stage would be.
        """
        hook = self.stage_hook
        if hook is not None:
            hook(name)
        if budget is not None:
            budget.check(name)

    @property
    def generation(self) -> int:
        """Monotone index generation: video commits + text refreshes.

        Bumped on every meta-index commit (video registered or snapshot
        restored) and on every *effective* text-index refresh.  The
        query-serving layer (:mod:`repro.library.service`) keys its
        result cache on it, which makes serving a stale result
        impossible by construction.
        """
        return self.indexer.generation + self._text_generation

    # ------------------------------------------------------------------ #
    # Build steps
    # ------------------------------------------------------------------ #

    def index_videos(self, limit: int | None = None) -> int:
        """Index the dataset's planned videos; returns how many.

        Fault tolerance follows the FDE's run policy: under the skip or
        quarantine isolation policies, videos whose detectors partially
        failed are committed *degraded* and the batch continues; consult
        :meth:`indexing_health` / :meth:`degraded_videos` afterwards.
        """
        return len(self.indexer.index_all(limit=limit))

    def indexing_health(self):
        """Per-video FDE health reports (see :mod:`repro.grammar.runtime`)."""
        return self.indexer.health_reports()

    def degraded_videos(self) -> list[str]:
        """Names of videos whose indexing was degraded by failures."""
        return self.indexer.degraded_videos()

    def refresh_text_index(self) -> None:
        """Re-index pages added since construction.

        A no-op when no pages were added: the generation does not move,
        so warm caches stay warm.
        """
        if len(self.dataset.pages) == self.text_index.n_documents:
            return
        self.text_index.refresh()
        self._text_generation += 1

    # ------------------------------------------------------------------ #
    # Query parts
    # ------------------------------------------------------------------ #

    def concept_players(self, constraints: dict[str, object]) -> list[WebspaceObject]:
        """Players matching the concept constraints, in creation order.

        Equality constraints resolve through the webspace's value index;
        the virtual ``past_winner`` (``titles > 0``) filters the survivors.
        """
        equals = {k: v for k, v in constraints.items() if k != "past_winner"}
        try:
            players = self.dataset.instance.objects_where("Player", equals)
        except SchemaViolation as exc:
            raise KeyError(str(exc)) from exc
        if "past_winner" in constraints:
            wanted = bool(constraints["past_winner"])
            players = [p for p in players if (p.get("titles") > 0) == wanted]
        return players

    def videos_of_players(self, players: list[WebspaceObject]) -> dict[str, set[str]]:
        """video name -> names of the given players appearing in it.

        Walks back from the recorded videos (only an indexed video has a
        ``Video`` object), so the cost follows the catalog, not the
        players' match histories.
        """
        instance = self.dataset.instance
        wanted = {player.oid for player in players}
        out: dict[str, set[str]] = {}
        for video in instance.objects("Video"):
            name = video.get("name")
            for match in instance.sources_of("recorded_in", video):
                for player in instance.sources_of("played", match):
                    if player.oid in wanted:
                        out.setdefault(name, set()).add(player.get("name"))
        return out

    def text_scores(
        self,
        text: str,
        n: int = 50,
        trace: QueryTrace | None = None,
        budget: QueryBudget | None = None,
    ) -> dict[int, float]:
        """doc id -> score for the free-text part (full evaluation).

        With a *budget*, the wall clock is re-checked after ranking.
        """
        terms = self.dataset.pages.query_terms(text)
        if trace is not None:
            trace.add_postings(full_scan_postings(self.text_index, terms))
        hits = rank_full_scan(self.text_index, terms, n)
        if budget is not None:
            budget.check("text_topn")
        return {hit.doc_id: hit.score for hit in hits}

    # ------------------------------------------------------------------ #
    # Combined search
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: LibraryQuery,
        trace: QueryTrace | None = None,
        budget: QueryBudget | None = None,
        skip_stages: frozenset[str] = frozenset(),
    ) -> list[SceneResult]:
        """Evaluate a combined query; results best-first.

        Args:
            query: the combined query.
            trace: optional :class:`~repro.library.service.QueryTrace`
                recording per-stage wall time (``concept_filter``,
                ``text_topn``, ``scene_scan`` with ``sequence_match`` as
                its sub-stage, ``rank_merge``) and postings accounting.
            budget: optional :class:`~repro.budget.QueryBudget` checked
                cooperatively at every stage boundary and inside the
                scan loops; expiry raises
                :class:`~repro.budget.DeadlineExceeded` naming the stage.
            skip_stages: degradable stages (``text_topn``,
                ``sequence_match``) to leave out — the concept-only
                evaluation the degradation ladder serves.  A skipped
                text part simply drops text evidence from the scores; a
                skipped sequence part falls back to whole-video scenes.
        """
        if trace is None:
            trace = QueryTrace()
        model = self.indexer.model
        use_text = query.has_text_part and "text_topn" not in skip_stages
        use_sequence = query.has_sequence_part and "sequence_match" not in skip_stages

        results: list[SceneResult] = []
        with trace.stage("concept_filter"):
            self._enter_stage("concept_filter", budget)
            if query.has_concept_part:
                players = self.concept_players(query.player)
                if not players:
                    return []
                video_players = self.videos_of_players(players)
            else:
                video_players = {video.name: set() for video in model.videos}

        text_by_video: dict[str, float] = {}
        if use_text:
            with trace.stage("text_topn"):
                self._enter_stage("text_topn", budget)
                scores = self.text_scores(query.text, trace=trace, budget=budget)
                text_by_video = self._text_scores_per_video(scores, video_players)

        with trace.stage("scene_scan"):
            self._enter_stage("scene_scan", budget)
            for video in model.videos:
                if budget is not None:
                    budget.check("scene_scan")
                if video.name not in video_players:
                    continue
                match_title = self._match_title_of(video.name)
                names = tuple(sorted(video_players[video.name]))
                text_score = text_by_video.get(video.name)
                if query.has_content_part:
                    for event in model.events_of(video_id=video.video_id, label=query.event):
                        if budget is not None:
                            budget.tick("scene_scan")
                        results.append(
                            SceneResult(
                                video_name=video.name,
                                start=event.start,
                                stop=event.stop,
                                event_label=event.label,
                                match_title=match_title,
                                players=names,
                                score=fuse_scores(event.confidence, text_score),
                            )
                        )
                elif use_sequence:
                    with trace.stage("sequence_match"):
                        self._enter_stage("sequence_match", budget)
                        pairs = self._event_sequences(
                            video.video_id,
                            query.sequence,
                            query.within,
                            budget=budget,
                        )
                    for first, then in pairs:
                        results.append(
                            SceneResult(
                                video_name=video.name,
                                start=first.start,
                                stop=then.stop,
                                event_label=f"{first.label}->{then.label}",
                                match_title=match_title,
                                players=names,
                                score=fuse_scores(
                                    min(first.confidence, then.confidence),
                                    text_score,
                                ),
                            )
                        )
                else:
                    results.append(
                        SceneResult(
                            video_name=video.name,
                            start=0,
                            stop=video.n_frames,
                            event_label=None,
                            match_title=match_title,
                            players=names,
                            score=fuse_scores(1.0, text_score),
                        )
                    )
        with trace.stage("rank_merge"):
            self._enter_stage("rank_merge", budget)
            results.sort(key=scene_order)
            return results[: query.top_n]

    def _event_sequences(
        self,
        video_id: int,
        sequence: tuple[str, str],
        within: int,
        budget: QueryBudget | None = None,
    ) -> list[tuple]:
        """Event pairs realising ``first THEN then WITHIN n`` in one video.

        Temporal reasoning via Allen's algebra: the first event must be
        ``before`` or ``meets`` the second, with at most *within* frames
        of gap.
        """
        from repro.core.temporal import allen_relation

        model = self.indexer.model
        first_label, then_label = sequence
        firsts = model.events_of(video_id=video_id, label=first_label)
        thens = model.events_of(video_id=video_id, label=then_label)
        pairs = []
        for first in firsts:
            for then in thens:
                if budget is not None:
                    budget.tick("sequence_match")
                relation = allen_relation(first.interval, then.interval)
                if relation in ("before", "meets") and first.interval.gap_to(
                    then.interval
                ) <= within:
                    pairs.append((first, then))
        return pairs

    def _match_title_of(self, video_name: str) -> str:
        record = self.indexer.indexed.get(video_name)
        return record.plan.match_title if record else ""

    def _text_scores_per_video(
        self, doc_scores: dict[int, float], video_players: dict[str, set[str]]
    ) -> dict[str, float]:
        """Aggregate document text scores to videos via the match winners.

        A video inherits the best score among the interview transcripts
        of the players appearing in it — the simple evidence-propagation
        rule a demo engine needs.
        """
        links = self.dataset.instance.link_counts.get("interviewed_in", 0)
        stamp, names_of = self._interviewees
        if stamp != links:
            names_of = {}
            self._interviewees = (links, names_of)
        by_player: dict[str, float] = {}
        for doc_id, score in doc_scores.items():
            names = names_of.get(doc_id)
            if names is None:
                names = names_of[doc_id] = self._interviewed_in(doc_id)
            for name in names:
                by_player[name] = max(by_player.get(name, 0.0), score)
        out: dict[str, float] = {}
        for video_name, names in video_players.items():
            scores = [by_player[n] for n in names if n in by_player]
            if scores:
                out[video_name] = max(scores)
        return out

    def _interviewed_in(self, doc_id: int) -> tuple[str, ...]:
        """Names of the players interviewed in one document (``()`` if none).

        The graph walk behind the doc id -> names access path.  An entry
        depends only on the document (pages are append-only and keep
        their ids) and on the ``interviewed_in`` links, so the path is
        dropped exactly when ``link()`` moves that association's count.
        """
        metadata = self.dataset.pages.document(doc_id).metadata
        oid = metadata.get("oid")
        if metadata.get("class") != "Interview" or oid is None:
            return ()
        instance = self.dataset.instance
        interview = instance.object(oid)
        return tuple(p.get("name") for p in instance.sources_of("interviewed_in", interview))

    # ------------------------------------------------------------------ #
    # The relational path — "the database approach"
    # ------------------------------------------------------------------ #

    def build_relational(self) -> None:
        """Snapshot the meta-index and the webspace into the column store.

        The paper's engines run inside a main-memory DBMS; this
        materialises the same state as tables so ``search_relational``
        can answer combined queries with scans, hash joins and index
        lookups.  Call after indexing; re-call to refresh the snapshot.
        """
        from repro.webspace.relational import RelationalConceptEvaluator

        meta = model_to_catalog(self.indexer.model)
        meta.create_hash_index("events", "label")
        meta.create_hash_index("shots", "video_id")
        self._meta_catalog = meta
        self._ws_evaluator = RelationalConceptEvaluator(self.dataset.instance)

    def search_relational(
        self,
        query: LibraryQuery,
        trace: QueryTrace | None = None,
        budget: QueryBudget | None = None,
    ) -> list[SceneResult]:
        """Evaluate a combined query against the relational snapshot.

        Produces exactly the results of :meth:`search` (asserted by the
        test suite); requires :meth:`build_relational` first.  *trace*
        records the same stages as :meth:`search`; *budget* is checked
        at the same stage boundaries.
        """
        if trace is None:
            trace = QueryTrace()
        meta = getattr(self, "_meta_catalog", None)
        ws = getattr(self, "_ws_evaluator", None)
        if meta is None or ws is None:
            raise RuntimeError("call build_relational() before search_relational()")

        # Concept part: filter ws_Player, then walk the link tables
        # played -> recorded_in to the videos.
        with trace.stage("concept_filter"):
            self._enter_stage("concept_filter", budget)
            if query.has_concept_part:
                players = [
                    row
                    for row in ws.catalog.table("ws_Player").scan()
                    if self._player_row_matches(row, query.player)
                ]
                if not players:
                    return []
                video_players = self._videos_of_player_rows(ws, players)
            else:
                video_players = {
                    row["name"]: set() for row in meta.table("videos").scan()
                }

        text_by_video: dict[str, float] = {}
        if query.has_text_part:
            with trace.stage("text_topn"):
                self._enter_stage("text_topn", budget)
                scores = self.text_scores(query.text, trace=trace, budget=budget)
                text_by_video = self._text_scores_per_video(scores, video_players)

        # Content part: events (by label index) joined to shots to videos.
        with trace.stage("scene_scan"):
            self._enter_stage("scene_scan", budget)
            shots_by_id = {row["shot_id"]: row for row in meta.table("shots").scan()}
            videos_by_id = {row["video_id"]: row for row in meta.table("videos").scan()}
            results: list[SceneResult] = []
            if query.has_content_part:
                events_table = meta.table("events")
                for row_id in meta.hash_index("events", "label").lookup(query.event):
                    event = events_table.row(int(row_id))
                    shot = shots_by_id[event["shot_id"]]
                    video = videos_by_id[shot["video_id"]]
                    if video["name"] not in video_players:
                        continue
                    names = tuple(sorted(video_players[video["name"]]))
                    results.append(
                        SceneResult(
                            video_name=video["name"],
                            start=event["start"],
                            stop=event["stop"],
                            event_label=event["label"],
                            match_title=self._match_title_of(video["name"]),
                            players=names,
                            score=fuse_scores(
                                event["confidence"], text_by_video.get(video["name"])
                            ),
                        )
                    )
            elif query.has_sequence_part:
                with trace.stage("sequence_match"):
                    self._enter_stage("sequence_match", budget)
                    first_label, then_label = query.sequence
                    events_table = meta.table("events")
                    index = meta.hash_index("events", "label")

                    def rows_of(label):
                        by_video: dict[int, list[dict]] = {}
                        for row_id in index.lookup(label):
                            event = events_table.row(int(row_id))
                            video_id = shots_by_id[event["shot_id"]]["video_id"]
                            by_video.setdefault(video_id, []).append(event)
                        return by_video

                    firsts = rows_of(first_label)
                    thens = rows_of(then_label)
                    for video_id, first_events in firsts.items():
                        video = videos_by_id[video_id]
                        if video["name"] not in video_players:
                            continue
                        names = tuple(sorted(video_players[video["name"]]))
                        for first in first_events:
                            for then in thens.get(video_id, []):
                                gap = then["start"] - first["stop"]
                                if 0 <= gap <= query.within:
                                    results.append(
                                        SceneResult(
                                            video_name=video["name"],
                                            start=first["start"],
                                            stop=then["stop"],
                                            event_label=(
                                                f"{first['label']}->{then['label']}"
                                            ),
                                            match_title=self._match_title_of(
                                                video["name"]
                                            ),
                                            players=names,
                                            score=fuse_scores(
                                                min(
                                                    first["confidence"],
                                                    then["confidence"],
                                                ),
                                                text_by_video.get(video["name"]),
                                            ),
                                        )
                                    )
            else:
                for video in videos_by_id.values():
                    if video["name"] not in video_players:
                        continue
                    names = tuple(sorted(video_players[video["name"]]))
                    results.append(
                        SceneResult(
                            video_name=video["name"],
                            start=0,
                            stop=video["n_frames"],
                            event_label=None,
                            match_title=self._match_title_of(video["name"]),
                            players=names,
                            score=fuse_scores(1.0, text_by_video.get(video["name"])),
                        )
                    )
        with trace.stage("rank_merge"):
            self._enter_stage("rank_merge", budget)
            results.sort(key=scene_order)
            return results[: query.top_n]

    @staticmethod
    def _player_row_matches(row: dict, constraints: dict[str, object]) -> bool:
        for key, wanted in constraints.items():
            if key == "past_winner":
                if bool(row["titles"] > 0) != bool(wanted):
                    return False
            elif row.get(key) != wanted:
                return False
        return True

    def _videos_of_player_rows(self, ws, players: list[dict]) -> dict[str, set[str]]:
        """video name -> player names, via the ws_link_* tables."""
        catalog = ws.catalog
        played = catalog.table("ws_link_played")
        played_index = catalog.hash_index("ws_link_played", "source_oid")
        recorded = catalog.table("ws_link_recorded_in")
        recorded_index = catalog.hash_index("ws_link_recorded_in", "source_oid")
        video_names = {
            row["oid"]: row["name"] for row in catalog.table("ws_Video").scan()
        }
        out: dict[str, set[str]] = {}
        for player in players:
            for played_row_id in played_index.lookup(player["oid"]):
                match_oid = played.row(int(played_row_id))["target_oid"]
                for recorded_row_id in recorded_index.lookup(match_oid):
                    video_oid = recorded.row(int(recorded_row_id))["target_oid"]
                    name = video_names.get(video_oid)
                    if name is not None:
                        out.setdefault(name, set()).add(player["name"])
        return out

    # ------------------------------------------------------------------ #
    # Presentation: scene keyframes
    # ------------------------------------------------------------------ #

    def export_scene_keyframes(self, scenes: list[SceneResult], out_dir) -> list:
        """Write one keyframe image (PPM) per result scene.

        The demo front end shows retrieved scenes as thumbnails; this
        re-reads each result video's clip (:meth:`LibraryIndexer
        .read_clip`, deterministic in the plan), one video at a time,
        and writes each of its scenes' histogram-medoid keyframe.  An
        unknown video is a ``KeyError`` before anything is written.

        Returns:
            The written file paths, aligned with *scenes*.
        """
        from pathlib import Path

        from repro.shots.keyframes import keyframe_index
        from repro.vision.io import write_ppm

        indexed = self.indexer.indexed
        by_video: dict[str, list[int]] = {}
        for index, scene in enumerate(scenes):
            if scene.video_name not in indexed:
                raise KeyError(f"video {scene.video_name!r} is not indexed here")
            by_video.setdefault(scene.video_name, []).append(index)
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: list = [None] * len(scenes)
        for name, indices in by_video.items():
            clip = self.indexer.read_clip(indexed[name].plan)
            for index in indices:
                scene = scenes[index]
                frame = keyframe_index(clip, scene.start, min(scene.stop, len(clip)))
                path = out_dir / f"scene_{index:02d}_{name[:40]}_f{frame}.ppm"
                write_ppm(clip[frame], path)
                paths[index] = path
            del clip  # one video's frames at a time
        return paths

    # ------------------------------------------------------------------ #
    # Query by example (ANN over shot feature vectors)
    # ------------------------------------------------------------------ #

    def build_ann_index(self, n_cells: int = 8, seed: int = 0, samples: int = 3):
        """Embed every indexed shot and build the IVF ANN index.

        Each indexed video's clip is re-read (:meth:`LibraryIndexer
        .read_clip`, deterministic in the plan, one video at a time) and
        every shot is embedded by :class:`~repro.ir.ann.ShotVectorizer`.
        The k-means quantizer is seeded from *seed* through an explicit
        generator, so the build is reproducible regardless of worker
        count or call order.  Returns the built
        :class:`~repro.ir.ann.AnnIndex`.
        """
        from repro.ir.ann import AnnIndex, ShotVectorizer

        vectorizer = ShotVectorizer(samples=samples)
        model = self.indexer.model
        vectors: list[np.ndarray] = []
        meta: list[dict] = []
        for record in sorted(self.indexer.indexed.values(), key=lambda r: r.video_id):
            video = model.video(record.video_id)
            clip = self.indexer.read_clip(record.plan)
            for shot in model.shots_of(record.video_id):
                stop = min(shot.stop, len(clip))
                if stop <= shot.start:
                    continue
                vectors.append(vectorizer.vectorize_clip(clip, shot.start, stop))
                meta.append(
                    {
                        "shot_id": str(shot.shot_id),
                        "video_name": video.name,
                        "start": int(shot.start),
                        "stop": int(stop),
                        "category": shot.category,
                    }
                )
            del clip  # one video's frames at a time
        array = (
            np.stack(vectors) if vectors else np.zeros((0, vectorizer.dim), dtype=np.float64)
        )
        rng = np.random.default_rng(seed) if vectors else None
        self.ann_index = AnnIndex.build(
            array, n_cells=n_cells, rng=rng, generation=self.generation
        )
        self.ann_meta = meta
        self.ann_vectorizer = vectorizer
        return self.ann_index

    def adopt_ann(self, index, meta: list[dict], samples: int = 3) -> None:
        """Install an ANN index restored from a catalog snapshot.

        The index keeps the generation tag it was built at; if the
        catalog has moved past it (e.g. streaming commits landed since
        the snapshot), :attr:`ann_stale` turns true and query-by-example
        results are labeled accordingly.
        """
        from repro.ir.ann import ShotVectorizer

        self.ann_index = index
        self.ann_meta = list(meta)
        self.ann_vectorizer = ShotVectorizer(samples=samples)

    @property
    def ann_stale(self) -> bool:
        """The ANN index predates the current catalog generation.

        Shots committed since the build (batch or streaming) are missing
        from the candidate pool; ``search_like`` labels its results
        ``ann_stale`` and ``repro fsck`` reports the drift.  An untagged
        index (generation ``-1``, pre-tag snapshots) counts as stale
        only when the catalog has any generation at all.
        """
        if self.ann_index is None:
            return False
        return self.ann_index.generation < self.generation

    def search_like(
        self,
        clip=None,
        *,
        query: LibraryQuery | None = None,
        query_vector: np.ndarray | None = None,
        weights: tuple[float, float] = (0.5, 0.5),
        k: int = 10,
        nprobe: int | None = None,
        trace: QueryTrace | None = None,
        budget: QueryBudget | None = None,
        top_n: int = 20,
    ) -> list[SceneResult]:
        """Query by example, optionally fused with a text/concept query.

        The example *clip* (possibly noisy or truncated) is embedded by
        the same vectorizer that indexed the corpus, the ANN index
        returns its *k* nearest shots over *nprobe* cells, and the shot
        distances become similarities ``1 / (1 + d)``.  With a *query*,
        the ANN evidence is fused with :meth:`search`'s ranking by
        weighted late fusion (Yu et al.):

        ``score = w_text * text_score + w_ann * best_shot_similarity``

        per video, where a video found only by ANN contributes its best
        hit shot as the scene.  Weights ``(1.0, 0.0)`` return the text ranking
        *exactly* (same objects, same scores); ``(0.0, 1.0)`` — or no
        *query* — is pure ANN ranking.  Stages ``ann_query``,
        ``ann_search`` and ``rank_fuse`` are traced and budget-checked
        like every other stage, so ANN respects deadlines and shows up
        in per-stage stats.
        """
        w_text, w_ann = float(weights[0]), float(weights[1])
        if w_text < 0.0 or w_ann < 0.0 or (w_text == 0.0 and w_ann == 0.0):
            raise ValueError(f"fusion weights must be >= 0 and not both zero: {weights}")
        if trace is None:
            trace = QueryTrace()
        if w_ann == 0.0:
            if query is None:
                raise ValueError("weights give all mass to text but no query was passed")
            return self.search(query, trace=trace, budget=budget)
        if self.ann_index is None or self.ann_vectorizer is None:
            raise RuntimeError("call build_ann_index() or adopt_ann() before search_like()")
        if clip is None and query_vector is None:
            raise ValueError("pass an example clip or a precomputed query_vector")

        if query_vector is None:
            with trace.stage("ann_query"):
                self._enter_stage("ann_query", budget)
                query_vector = self.ann_vectorizer.vectorize_clip(clip)

        with trace.stage("ann_search"):
            self._enter_stage("ann_search", budget)
            ids, distances = self.ann_index.search(query_vector, k=k, nprobe=nprobe, budget=budget)

        # Best similarity per video, plus each hit shot's provenance.
        similarities = 1.0 / (1.0 + distances)
        video_best: dict[str, float] = {}
        hits: list[tuple[dict, float]] = []
        for ann_id, similarity in zip(ids.tolist(), similarities.tolist()):
            row = self.ann_meta[ann_id]
            hits.append((row, similarity))
            name = row["video_name"]
            if similarity > video_best.get(name, -1.0):
                video_best[name] = similarity

        text_results: list[SceneResult] = []
        if query is not None and w_text > 0.0:
            text_results = self.search(query, trace=trace, budget=budget)

        with trace.stage("rank_fuse"):
            self._enter_stage("rank_fuse", budget)
            stale = self.ann_stale
            text_videos = {r.video_name for r in text_results}
            results: list[SceneResult] = []
            for r in text_results:
                fused = w_text * r.score + w_ann * video_best.get(r.video_name, 0.0)
                results.append(replace(r, score=fused, ann_stale=stale))
            seen: set[str] = set()
            for row, similarity in hits:
                name = row["video_name"]
                if name in text_videos or name in seen:
                    continue
                seen.add(name)
                results.append(
                    SceneResult(
                        video_name=name,
                        start=int(row["start"]),
                        stop=int(row["stop"]),
                        event_label=None,
                        match_title=self._match_title_of(name),
                        players=(),
                        score=w_ann * similarity,
                        ann_stale=stale,
                    )
                )
            return sorted(results, key=scene_order)[:top_n]

    # ------------------------------------------------------------------ #
    # The keyword baseline
    # ------------------------------------------------------------------ #

    def keyword_search(self, text: str, n: int = 20) -> list[RankedHit]:
        """Pure keyword search over the rendered pages (crawler view)."""
        terms = self.dataset.pages.query_terms(text)
        return rank_full_scan(self.text_index, terms, n)
