"""Assemble the full Australian Open dataset.

:func:`build_australian_open` wires everything together: players,
simulated tournament history, the webspace object graph, the rendered
(lossy) HTML pages, interview transcripts, and video plans — one
coherent library keyed by a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.annotations import VideoPlan, plan_match_video
from repro.dataset.interviews import interview_text
from repro.dataset.matches import MatchRecord, simulate_tournaments
from repro.dataset.players import PlayerRecord, generate_players
from repro.ir.collection import DocumentCollection
from repro.video.generator import BroadcastConfig
from repro.webspace.html import page_text, render_page
from repro.webspace.instances import WebspaceInstance, WebspaceObject
from repro.webspace.schema import WebspaceSchema

__all__ = ["tennis_schema", "TournamentDataset", "build_australian_open"]


def tennis_schema() -> WebspaceSchema:
    """The webspace schema of the tournament site."""
    schema = WebspaceSchema("australian_open")
    schema.add_class(
        "Player",
        name="str",
        gender="str",
        handedness="str",
        country="str",
        seed="int",
        titles="int",
    )
    schema.add_class(
        "Match",
        title="str",
        year="int",
        round="str",
        sets="int",
        score="str",
        gender="str",
    )
    schema.add_class("Video", name="str", n_frames="int")
    schema.add_class("Interview", text="str")
    schema.add_association("played", "Player", "Match")
    schema.add_association("won", "Player", "Match")
    schema.add_association("recorded_in", "Match", "Video")
    schema.add_association("interviewed_in", "Player", "Interview")
    return schema


@dataclass
class TournamentDataset:
    """Everything the digital library engine builds on.

    Attributes:
        schema: the webspace schema.
        instance: the populated object graph.
        pages: document collection of rendered site pages + transcripts.
        players: the raw player records.
        matches: the raw match records.
        video_plans: deferred broadcasts, one per *recorded* match.
        match_objects: match title -> webspace Match object.
        player_objects: player name -> webspace Player object.
    """

    schema: WebspaceSchema
    instance: WebspaceInstance
    pages: DocumentCollection
    players: list[PlayerRecord]
    matches: list[MatchRecord]
    video_plans: list[VideoPlan]
    match_objects: dict[str, WebspaceObject] = field(default_factory=dict)
    player_objects: dict[str, WebspaceObject] = field(default_factory=dict)


def build_australian_open(
    seed: int = 0,
    n_per_gender: int = 16,
    years: list[int] | None = None,
    recorded_rounds: tuple[str, ...] = ("final", "semifinal"),
    video_shots: int = 10,
    video_config: BroadcastConfig | None = None,
) -> TournamentDataset:
    """Build the complete synthetic tournament library.

    Args:
        seed: master seed; everything derives from it.
        n_per_gender: players per singles draw.
        years: tournament editions to simulate (default 1998..2001 —
            "the past" relative to the paper's 2002 demo).
        recorded_rounds: which rounds get broadcast videos.
        video_shots: shots per broadcast.
        video_config: broadcast configuration for all planned videos.

    Returns:
        A fully-populated :class:`TournamentDataset`.
    """
    rng = np.random.default_rng(seed)
    years = list(years) if years is not None else [1998, 1999, 2000, 2001]

    players = generate_players(rng, n_per_gender=n_per_gender)
    matches = simulate_tournaments(players, years, rng)

    # The paper's motivating query asks for "left-handed female players who
    # have won the Australian Open in the past" — on the real 2002 site the
    # answer was non-empty (Monica Seles).  Guarantee the synthetic library
    # supports the demo: if chance produced no such champion, the most
    # titled female champion is made left-handed.
    female_champions = [p for p in players if p.gender == "female" and p.titles > 0]
    if female_champions and not any(p.handedness == "left" for p in female_champions):
        max(female_champions, key=lambda p: p.titles).handedness = "left"

    schema = tennis_schema()
    instance = WebspaceInstance(schema)
    pages = DocumentCollection()

    player_objects: dict[str, WebspaceObject] = {}
    for player in players:
        obj = instance.create(
            "Player",
            name=player.name,
            gender=player.gender,
            handedness=player.handedness,
            country=player.country,
            seed=player.seed,
            titles=player.titles,
        )
        player_objects[player.name] = obj
        pages.add(
            f"players/{player.name.lower().replace(' ', '_')}.html",
            page_text(render_page(obj)),
            metadata={"class": "Player", "oid": obj.oid},
        )

    match_objects: dict[str, WebspaceObject] = {}
    video_plans: list[VideoPlan] = []
    for index, match in enumerate(matches):
        match_obj = instance.create(
            "Match",
            title=match.title,
            year=match.year,
            round=match.round_name,
            sets=match.sets,
            score=match.score,
            gender=match.gender,
        )
        match_objects[match.title] = match_obj
        instance.link("played", player_objects[match.player_a], match_obj)
        instance.link("played", player_objects[match.player_b], match_obj)
        instance.link("won", player_objects[match.winner], match_obj)
        pages.add(
            f"matches/{index:03d}.html",
            page_text(render_page(match_obj)),
            metadata={"class": "Match", "oid": match_obj.oid},
        )

        transcript = interview_text(match, rng)
        interview_obj = instance.create("Interview", text=transcript)
        instance.link(
            "interviewed_in", player_objects[match.winner], interview_obj
        )
        pages.add(
            f"interviews/{index:03d}.html",
            page_text(render_page(interview_obj)),
            metadata={"class": "Interview", "oid": interview_obj.oid},
        )

        if match.round_name in recorded_rounds:
            video_plans.append(
                plan_match_video(
                    match, index, n_shots=video_shots, config=video_config
                )
            )

    return TournamentDataset(
        schema=schema,
        instance=instance,
        pages=pages,
        players=players,
        matches=matches,
        video_plans=video_plans,
        match_objects=match_objects,
        player_objects=player_objects,
    )
