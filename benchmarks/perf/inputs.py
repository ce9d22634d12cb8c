"""Seeded inputs: sites, pre-rendered clips, query pools, request streams.

Everything the program receives is generated here from ``--seed``; the
same seed gives the same inputs.  Synthetic rendering
(``BroadcastGenerator``) is input generation, not the system, so clips
are rendered once in set-up and handed to the indexer through
:class:`CachedPlan`, whose ``materialise()`` returns the cached pixels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.grammar.tennis import build_tennis_fde
from repro.library import DigitalLibraryEngine, LibrarySearchService
from repro.video.frames import VideoClip

__all__ = [
    "CachedPlan",
    "LARGE_SITE",
    "QUERY_MIX",
    "QueryPool",
    "SMALL_SITE",
    "balanced_stream",
    "build_library",
    "build_query_pool",
    "like_excerpts",
    "render_plans",
    "rng_for",
    "zipf_stream",
]

#: The default tournament site: 272 pages, 32 players, 24 recorded matches.
SMALL_SITE = {"video_shots": 6}
#: The large site: 6 352 pages, 256 players, 3 048 matches, 72 recorded —
#: text, concept and scene-scan stages cost milliseconds here, not tenths.
LARGE_SITE = {"video_shots": 6, "n_per_gender": 128, "years": list(range(1990, 2002))}

#: Request shares of the ``serve-cold`` stream (the paper's motivating
#: query is the ``combined`` shape).  Streams without by-example requests
#: renormalise the other four.
QUERY_MIX = {"text": 0.30, "concept": 0.20, "content": 0.15, "combined": 0.25, "like": 0.10}

_EVENTS = ("net_play", "rally", "service", "baseline_play", "attack")
_WITHIN = (50, 100, 200)
_LIMITS = (5, 10, 15, 20, 30, 50)
#: Phrases over the interview templates' vocabulary, so every text query
#: scores real postings on every seed.
_PHRASES = (
    "approach the net",
    "serve volley",
    "long rallies",
    "tough battle baseline",
    "crowd melbourne",
    "aggressive return game",
    "patience footwork",
    "net play decided",
    "dream winning australia",
    "first serve percentage",
    "heat brutal rally tempo",
    "next round",
    "press conference",
    "second set",
    "approach shots",
    "volley felt natural",
    "final",
    "semifinal",
    "australian open",
    "match",
    "rally tempo suited",
    "struggled first serve",
    "coming back second set",
    "keep winning",
    "tough battle",
    "amazing crowd",
    "prepares next round",
    "return game",
)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator per (seed, purpose) — streams never share state."""
    return np.random.default_rng([seed, *tags])


# ---------------------------------------------------------------------- #
# Videos
# ---------------------------------------------------------------------- #


@dataclass
class CachedPlan(VideoPlan):
    """A video plan whose pixels were rendered during set-up.

    ``materialise()`` is the first thing the indexer does with a video,
    so each call also stamps ``offered`` — the instant the librarian
    handed that video over — which is how batch freshness is measured
    without touching the program.
    """

    rendered: tuple | None = None
    offered: list = field(default_factory=list, repr=False)

    def materialise(self):
        self.offered.append(time.perf_counter())
        return self.rendered


def render_plans(plans: list[VideoPlan], offered: list) -> list[CachedPlan]:
    """Pre-render *plans*; every ``materialise()`` later stamps *offered*."""
    return [
        CachedPlan(
            name=plan.name,
            match_title=plan.match_title,
            n_shots=plan.n_shots,
            seed=plan.seed,
            config=plan.config,
            rendered=plan.materialise(),
            offered=offered,
        )
        for plan in plans
    ]


def build_library(seed: int, site: dict, plans: list[CachedPlan], cache_size: int = 256):
    """A fresh site, engine and service whose catalog-to-be is *plans*."""
    dataset = build_australian_open(seed=seed, **site)
    dataset.video_plans = list(plans)
    engine = DigitalLibraryEngine(dataset, fde=build_tennis_fde())
    return engine, LibrarySearchService(engine, cache_size=cache_size)


# ---------------------------------------------------------------------- #
# Queries
# ---------------------------------------------------------------------- #


@dataclass
class QueryPool:
    """Distinct query-language texts, each tagged with its shape."""

    texts: list[str]
    shapes: list[str]

    def __len__(self) -> int:
        return len(self.texts)

    def of_shape(self, shape: str) -> list[int]:
        return [i for i, s in enumerate(self.shapes) if s == shape]


#: Which optional player constraints a concept part carries, cycled through
#: as the pool is built: how many players a concept part matches decides a
#: query's cost, so every seed gets the same share of broad and narrow ones.
#: Two of seven are gender-only — the costliest class is then ~8% of a
#: mixed stream, so its p95 falls inside that class, not on its edge.
_PLAYER_VARIANTS = (
    ("handedness",),
    (),
    ("handedness", "past_winner"),
    ("country",),
    (),
    ("past_winner",),
    ("handedness", "country"),
)


def _player_clause(rng, countries, variant: int) -> str:
    parts = [f"player.gender = {rng.choice(('female', 'male'))}"]
    for key in _PLAYER_VARIANTS[variant % len(_PLAYER_VARIANTS)]:
        if key == "handedness":
            parts.append(f"player.handedness = {rng.choice(('left', 'right'))}")
        elif key == "country":
            parts.append(f'player.country = "{rng.choice(countries)}"')
        else:
            parts.append("player.past_winner")
    return " AND ".join(parts)


def _text_clause(rng, variant: int) -> str:
    picks = rng.choice(len(_PHRASES), size=1 + variant % 2, replace=False)
    return 'text CONTAINS "' + " ".join(_PHRASES[int(i)] for i in picks) + '"'


def _event_clause(rng) -> str:
    return f"event = {rng.choice(_EVENTS)}"


def _query_text(rng, shape: str, countries, variant: int) -> str:
    if shape == "text":
        clauses = [_text_clause(rng, variant)]
    elif shape == "concept":
        clauses = [_player_clause(rng, countries, variant), _event_clause(rng)]
    elif shape == "content":
        first, then = rng.choice(_EVENTS, size=2, replace=False)
        sequence = f"event = {first} THEN {then} WITHIN {rng.choice(_WITHIN)}"
        clauses = [sequence if variant % 2 else _event_clause(rng)]
    elif shape == "combined":
        clauses = [
            _player_clause(rng, countries, variant),
            _event_clause(rng),
            _text_clause(rng, variant // len(_PLAYER_VARIANTS)),
        ]
    else:
        raise ValueError(f"no query text for shape {shape!r}")
    limit = f" LIMIT {rng.choice(_LIMITS)}" if rng.random() < 0.5 else ""
    return "SCENES WHERE " + " AND ".join(clauses) + limit


def build_query_pool(rng, dataset, size: int, shapes=("text", "concept", "content", "combined")):
    """*size* distinct queries, split across *shapes* by :data:`QUERY_MIX`."""
    countries = sorted({player.country for player in dataset.players})
    total_share = sum(QUERY_MIX[shape] for shape in shapes)
    texts: list[str] = []
    tags: list[str] = []
    seen: set[str] = set()
    for position, shape in enumerate(shapes):
        wanted = round(size * QUERY_MIX[shape] / total_share)
        if position == len(shapes) - 1:
            wanted = size - len(texts)
        attempts = 0
        made = 0
        while made < wanted:
            attempts += 1
            if attempts > 200 * wanted:
                raise RuntimeError(f"cannot make {wanted} distinct {shape!r} queries")
            text = _query_text(rng, shape, countries, variant=attempts)
            if text in seen:
                continue
            seen.add(text)
            texts.append(text)
            tags.append(shape)
            made += 1
    # Every shape spread evenly over the ranks, the same way for every seed:
    # a rank (what Zipf draws by) then says the same about a query's shape
    # and breadth whatever the seed, which only picks the values.
    spread = {shape: tags.count(shape) for shape in shapes}
    seen_of = dict.fromkeys(shapes, 0)
    position = []
    for tag in tags:
        position.append((seen_of[tag] + 0.5) / spread[tag])
        seen_of[tag] += 1
    order = sorted(range(len(texts)), key=lambda i: (position[i], shapes.index(tags[i])))
    return QueryPool([texts[i] for i in order], [tags[i] for i in order])


def balanced_stream(rng, pool: QueryPool, repeats: int, n_like: int = 0) -> list[int]:
    """Every pool query *repeats* times, in seeded order.

    The stream's shape shares are then the pool's exactly (no sampling
    noise on top).  With ``n_like`` by-example excerpts, requests for them
    are mixed in at their :data:`QUERY_MIX` share; entry ``-1 - k`` asks
    for excerpt *k*, entries ``>= 0`` index the pool.
    """
    stream = list(range(len(pool))) * repeats
    if n_like:
        share = QUERY_MIX["like"]
        wanted = round(len(stream) * share / (1.0 - share))
        stream += [-1 - (k % n_like) for k in range(wanted)]
    return [stream[i] for i in rng.permutation(len(stream)).tolist()]


def zipf_stream(rng, n_items: int, length: int, s: float = 1.0) -> list[int]:
    """*length* requests over ``range(n_items)``, item *i* with weight ``1/(i+1)^s``.

    Every item is asked its expected number of times (largest remainders
    make up the total) and the seed picks the order — so the share of each
    rank, and the number of distinct queries, is the same for every seed.
    """
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** s
    expected = length * weights / weights.sum()
    counts = np.floor(expected).astype(np.int64)
    remainders = np.argsort(counts - expected, kind="stable")
    counts[remainders[: length - int(counts.sum())]] += 1
    stream = np.repeat(np.arange(n_items), counts)
    return stream[rng.permutation(length)].tolist()


def like_excerpts(rng, plans: list[CachedPlan], count: int, frames: int = 30) -> list[VideoClip]:
    """Noisy *frames*-frame excerpts of indexed clips — by-example queries."""
    excerpts = []
    for k in range(count):
        clip = plans[int(rng.integers(len(plans)))].rendered[0]
        start = int(rng.integers(0, max(1, len(clip) - frames)))
        noisy = []
        for index in range(start, min(start + frames, len(clip))):
            noise = rng.normal(0.0, 6.0, size=clip[index].shape)
            noisy.append(np.clip(clip[index] + noise, 0, 255).astype(np.uint8))
        excerpts.append(VideoClip(noisy, fps=clip.fps, name=f"like_{k:03d}"))
    return excerpts
