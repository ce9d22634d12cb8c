"""Prepared queries: an immutable, keyed ``LibraryQuery``, a memoised
parser, and the doc id -> interviewees access path of the text stage."""

import json
import pickle
import sys
import threading
import types
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.library.parser as parser_module
import repro.library.query as query_module
from repro.dataset import build_australian_open
from repro.library import DigitalLibraryEngine, LibraryQuery, LibrarySearchService
from repro.library.parser import QuerySyntaxError, parse_query

# ---------------------------------------------------------------------- #
# Query texts
# ---------------------------------------------------------------------- #

_WORDS = st.sampled_from(["left", "right", "female", "male", "AUS", "rally", "x1"])
_QUOTED = st.sampled_from(['"Iva Demcourt"', '"approach the net"', '""', '"a b c"'])
_LABELS = st.sampled_from(["rally", "net_play", "service", "baseline_play"])


def _keyword(word: str):
    return st.sampled_from([word, word.lower(), word.capitalize()])


@st.composite
def _clause(draw) -> str:
    kind = draw(st.sampled_from(["player", "past_winner", "event", "sequence", "text"]))
    if kind == "player":
        attr = draw(st.sampled_from(["handedness", "gender", "country", "name", "shoe"]))
        value = draw(st.one_of(_WORDS, _QUOTED))
        return f"player.{attr} = {value}"
    if kind == "past_winner":
        return "player.past_winner"
    if kind == "event":
        return f"event = {draw(_LABELS)}"
    if kind == "sequence":
        within = draw(st.one_of(st.just(""), st.integers(0, 500).map(lambda n: f" WITHIN {n}")))
        return f"event = {draw(_LABELS)} {draw(_keyword('THEN'))} {draw(_LABELS)}{within}"
    return f"text {draw(_keyword('CONTAINS'))} {draw(_QUOTED)}"


@st.composite
def query_texts(draw) -> str:
    """Texts of the query language, valid or not (duplicates, LIMIT 0, junk)."""
    parts = [draw(_keyword("SCENES"))]
    clauses = draw(st.lists(_clause(), max_size=4))
    if clauses:
        parts.append(draw(_keyword("WHERE")))
        parts.append(f" {draw(_keyword('AND'))} ".join(clauses))
    if draw(st.booleans()):
        parts.append(f"{draw(_keyword('LIMIT'))} {draw(st.integers(0, 30))}")
    parts.append(draw(st.sampled_from(["", "", "garbage", ";"])))
    return " ".join(part for part in parts if part)


def _fields(query: LibraryQuery) -> tuple:
    return (
        dict(query.player),
        query.event,
        query.sequence,
        query.within,
        query.text,
        query.top_n,
        query.key,
    )


def _outcome(parse, text: str):
    try:
        return _fields(parse(text))
    except QuerySyntaxError as exc:
        return ("error", str(exc))


class TestMemoisedParser:
    @given(query_texts())
    @settings(max_examples=300, deadline=None)
    def test_memo_equals_the_parser(self, text):
        assert _outcome(parse_query, text) == _outcome(parse_query.__wrapped__, text)
        assert _outcome(parse_query, text) == _outcome(parse_query.__wrapped__, text)

    def test_repeated_text_returns_the_same_object(self):
        text = "SCENES WHERE player.gender = female AND event = rally LIMIT 4"
        assert parse_query(text) is parse_query(text)

    def test_memo_is_bounded(self):
        assert parse_query.cache_info().maxsize == 1 << 12


# ---------------------------------------------------------------------- #
# The immutable, keyed query
# ---------------------------------------------------------------------- #


def _parent_key(query: LibraryQuery) -> str:
    """The cache key as the service spelled it before the query owned it."""
    payload = {
        "player": {key: query.player[key] for key in sorted(query.player)},
        "event": query.event,
        "sequence": list(query.sequence) if query.sequence is not None else None,
        "within": query.within if query.sequence is not None else None,
        "text": query.text,
        "top_n": query.top_n,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_PLAYER_ITEMS = [
    ("handedness", "left"),
    ("gender", "female"),
    ("country", "AUS"),
    ("past_winner", True),
    ("name", "Iva Demcourt"),
]


@st.composite
def queries(draw) -> LibraryQuery:
    items = draw(st.permutations(_PLAYER_ITEMS))[: draw(st.integers(0, len(_PLAYER_ITEMS)))]
    sequence = draw(st.one_of(st.none(), st.tuples(_LABELS, _LABELS)))
    return LibraryQuery(
        player=dict(items),
        event=None if sequence is not None else draw(st.one_of(st.none(), _LABELS)),
        sequence=sequence,
        within=draw(st.integers(0, 1000)),
        text=draw(st.one_of(st.none(), st.text(max_size=12))),
        top_n=draw(st.integers(1, 100)),
    )


class TestImmutableQuery:
    def test_shared_query_rejects_mutation(self):
        shared = parse_query("SCENES WHERE player.gender = female")
        with pytest.raises(TypeError):
            shared.player["gender"] = "male"
        with pytest.raises(TypeError):
            del shared.player["gender"]
        with pytest.raises(FrozenInstanceError):
            shared.top_n = 3
        assert parse_query("SCENES WHERE player.gender = female").player == {"gender": "female"}

    def test_player_is_a_copy_of_the_argument(self):
        constraints = {"gender": "female"}
        query = LibraryQuery(player=constraints)
        constraints["gender"] = "male"
        assert query.player == {"gender": "female"}

    @given(queries())
    @settings(max_examples=200, deadline=None)
    def test_key_equals_the_parent_spelling_for_any_player_order(self, query):
        assert query.key == _parent_key(query)
        reordered = LibraryQuery(
            player=dict(reversed(list(query.player.items()))),
            event=query.event,
            sequence=query.sequence,
            within=query.within,
            text=query.text,
            top_n=query.top_n,
        )
        assert reordered.key == query.key
        assert reordered == query and hash(reordered) == hash(query)

    @given(queries())
    @settings(max_examples=100, deadline=None)
    def test_pickle_keeps_equality_hash_and_key(self, query):
        fresh = pickle.loads(pickle.dumps(query))
        assert fresh == query and hash(fresh) == hash(query) and fresh.key == query.key
        keyed = pickle.loads(pickle.dumps(query))  # the key is computed by now
        assert "key" in vars(keyed) and keyed.key == query.key
        with pytest.raises(TypeError):
            keyed.player["gender"] = "male"

    def test_equality_follows_the_key(self):
        assert LibraryQuery(event="rally", within=5) == LibraryQuery(event="rally", within=50)
        assert LibraryQuery(sequence=("a", "b"), within=5) != LibraryQuery(
            sequence=("a", "b"), within=50
        )
        assert len({LibraryQuery(), LibraryQuery(top_n=20), LibraryQuery(top_n=5)}) == 2


class TestWarmRequests:
    def test_one_text_parses_once_and_keys_once(self, monkeypatch):
        engine = DigitalLibraryEngine(build_australian_open(seed=3, video_shots=2))
        service = LibrarySearchService(engine)
        parse_query.cache_clear()
        parses = []
        parse = parser_module._Parser.parse
        monkeypatch.setattr(
            parser_module._Parser, "parse", lambda self: parses.append(1) or parse(self)
        )
        dumps = []
        monkeypatch.setattr(
            query_module,
            "json",
            types.SimpleNamespace(dumps=lambda *a, **k: dumps.append(1) or json.dumps(*a, **k)),
        )
        text = 'SCENES WHERE player.gender = female AND text CONTAINS "warm request" LIMIT 9'
        served = [service.search(parse_query(text)) for _ in range(25)]
        assert len(parses) == 1
        assert len(dumps) == 1
        assert [s.cache_hit for s in served] == [False] + [True] * 24


# ---------------------------------------------------------------------- #
# The doc id -> interviewees access path
# ---------------------------------------------------------------------- #


def _walk_text_scores(engine, doc_scores, video_players):
    """The per-request graph walk the access path replaced."""
    by_player = {}
    for doc_id, score in doc_scores.items():
        doc = engine.dataset.pages.document(doc_id)
        oid = doc.metadata.get("oid")
        if doc.metadata.get("class") != "Interview" or oid is None:
            continue
        interview = engine.dataset.instance.object(oid)
        for player in engine.dataset.instance.sources_of("interviewed_in", interview):
            name = player.get("name")
            by_player[name] = max(by_player.get(name, 0.0), score)
    out = {}
    for video_name, names in video_players.items():
        scores = [by_player[n] for n in names if n in by_player]
        if scores:
            out[video_name] = max(scores)
    return out


class TestInterviewAccessPath:
    @pytest.fixture()
    def engine(self):
        return DigitalLibraryEngine(build_australian_open(seed=11, video_shots=2))

    def assert_path_equals_walk(self, engine):
        pages = engine.dataset.pages
        names = sorted(p.get("name") for p in engine.dataset.instance.objects("Player"))
        videos = {f"v{i}": {name} for i, name in enumerate(names)}
        videos["all"] = set(names)
        videos["none"] = set()
        everything = {doc_id: 1.0 + (doc_id % 7) / 8 for doc_id in range(len(pages))}
        ranked = engine.text_scores("champion straight sets approach the net")
        for doc_scores in (everything, ranked, {}):
            want = _walk_text_scores(engine, doc_scores, videos)
            assert engine._text_scores_per_video(doc_scores, videos) == want
            # Twice: the second read is served from the filled path.
            assert engine._text_scores_per_video(doc_scores, videos) == want

    def test_path_equals_walk(self, engine):
        self.assert_path_equals_walk(engine)

    def test_new_interviewee_link_is_seen(self, engine):
        instance = engine.dataset.instance
        self.assert_path_equals_walk(engine)  # the path is filled
        newcomer = instance.create(
            "Player",
            name="Nova Newcomer",
            gender="female",
            handedness="left",
            country="NZL",
            seed=0,
            titles=0,
        )
        interview = instance.objects("Interview")[0]
        instance.link("interviewed_in", newcomer, interview)
        self.assert_path_equals_walk(engine)
        doc_id = next(
            doc.doc_id for doc in engine.dataset.pages if doc.metadata.get("oid") == interview.oid
        )
        scores = engine._text_scores_per_video({doc_id: 2.0}, {"v": {"Nova Newcomer"}})
        assert scores == {"v": 2.0}

    def test_pages_added_then_refreshed(self, engine):
        instance = engine.dataset.instance
        self.assert_path_equals_walk(engine)
        winner = instance.objects("Player")[1]
        interview = instance.create("Interview", text="a zebra-striped comeback")
        instance.link("interviewed_in", winner, interview)
        engine.dataset.pages.add(
            "interviews/late.html",
            "zebra striped comeback",
            metadata={"class": "Interview", "oid": interview.oid},
        )
        engine.refresh_text_index()
        self.assert_path_equals_walk(engine)
        late = engine.dataset.pages.by_name("interviews/late.html").doc_id
        assert late in engine.text_scores("zebra comeback")
        scores = engine._text_scores_per_video(
            engine.text_scores("zebra comeback"), {"v": {winner.get("name")}}
        )
        assert scores == _walk_text_scores(
            engine, engine.text_scores("zebra comeback"), {"v": {winner.get("name")}}
        )

    def test_readers_racing_a_linker_leave_no_stale_entry(self, engine):
        """Readers fill the path while links land; what survives is exact."""
        instance = engine.dataset.instance
        interviews = instance.objects("Interview")
        docs = {doc_id: 1.0 + doc_id / 1000 for doc_id in range(len(engine.dataset.pages))}
        newcomers = [f"Racer {i}" for i in range(40)]
        videos = {name: {name} for name in newcomers}
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                engine._text_scores_per_video(docs, videos)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(6)]
        try:
            for reader in readers:
                reader.start()
            for i, name in enumerate(newcomers):
                player = instance.create(
                    "Player",
                    name=name,
                    gender="male",
                    handedness="right",
                    country="AUS",
                    seed=0,
                    titles=0,
                )
                instance.link("interviewed_in", player, interviews[i % len(interviews)])
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)
        got = engine._text_scores_per_video(docs, videos)
        assert got == _walk_text_scores(engine, docs, videos)
        assert set(got) == set(newcomers)
