"""Tournament dataset tests."""

import numpy as np
import pytest

from repro.dataset import (
    build_australian_open,
    generate_players,
    interview_text,
    plan_match_video,
    simulate_tournaments,
)


class TestPlayers:
    def test_counts_and_uniqueness(self, rng):
        players = generate_players(rng, n_per_gender=16)
        assert len(players) == 32
        names = [p.name for p in players]
        assert len(set(names)) == 32

    def test_genders_balanced(self, rng):
        players = generate_players(rng, n_per_gender=8)
        assert sum(p.gender == "female" for p in players) == 8
        assert sum(p.gender == "male" for p in players) == 8

    def test_seeds_per_gender(self, rng):
        players = generate_players(rng, n_per_gender=4)
        female_seeds = sorted(p.seed for p in players if p.gender == "female")
        assert female_seeds == [1, 2, 3, 4]

    def test_handedness_fraction(self):
        rng = np.random.default_rng(0)
        players = generate_players(rng, n_per_gender=200, left_handed_fraction=0.15)
        fraction = sum(p.handedness == "left" for p in players) / len(players)
        assert 0.08 < fraction < 0.25

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_players(rng, n_per_gender=1)
        with pytest.raises(ValueError):
            generate_players(rng, left_handed_fraction=2.0)


class TestTournaments:
    def test_match_counts(self):
        rng = np.random.default_rng(1)
        players = generate_players(rng, n_per_gender=16)
        matches = simulate_tournaments(players, [2000, 2001], rng)
        # 16-player draw = 15 matches, x2 genders x2 years.
        assert len(matches) == 60

    def test_titles_assigned(self):
        rng = np.random.default_rng(1)
        players = generate_players(rng, n_per_gender=8)
        simulate_tournaments(players, [1999, 2000, 2001], rng)
        assert sum(p.titles for p in players) == 6  # 3 years x 2 genders

    def test_winner_played_the_match(self):
        rng = np.random.default_rng(2)
        players = generate_players(rng, n_per_gender=8)
        matches = simulate_tournaments(players, [2001], rng)
        for match in matches:
            assert match.winner in (match.player_a, match.player_b)

    def test_rounds_progress(self):
        rng = np.random.default_rng(3)
        players = generate_players(rng, n_per_gender=8)
        matches = simulate_tournaments(players, [2001], rng)
        rounds = [m.round_name for m in matches if m.gender == "female"]
        assert rounds.count("final") == 1
        assert rounds.count("semifinal") == 2
        assert rounds.count("quarterfinal") == 4

    def test_seed_advantage(self):
        """Top seeds win far more titles over many simulated years."""
        rng = np.random.default_rng(4)
        players = generate_players(rng, n_per_gender=16)
        simulate_tournaments(players, list(range(1960, 2002)), rng)
        top = sum(p.titles for p in players if p.seed <= 4)
        bottom = sum(p.titles for p in players if p.seed > 12)
        assert top > bottom

    def test_requires_years(self, rng):
        players = generate_players(rng, n_per_gender=4)
        with pytest.raises(ValueError):
            simulate_tournaments(players, [], rng)


class TestInterviews:
    def test_mentions_winner(self):
        rng = np.random.default_rng(5)
        players = generate_players(rng, n_per_gender=4)
        matches = simulate_tournaments(players, [2001], rng)
        text = interview_text(matches[0], rng)
        assert matches[0].winner in text

    def test_sentence_count_bounded(self):
        rng = np.random.default_rng(6)
        players = generate_players(rng, n_per_gender=4)
        matches = simulate_tournaments(players, [2001], rng)
        text = interview_text(matches[0], rng, n_sentences=3)
        assert text.count(".") >= 2

    def test_validation(self):
        rng = np.random.default_rng(7)
        players = generate_players(rng, n_per_gender=4)
        matches = simulate_tournaments(players, [2001], rng)
        with pytest.raises(ValueError):
            interview_text(matches[0], rng, n_sentences=0)


class TestVideoPlans:
    def test_plan_is_deterministic(self, dataset):
        plan = dataset.video_plans[0]
        clip_a, truth_a = plan.materialise()
        clip_b, truth_b = plan.materialise()
        assert len(clip_a) == len(clip_b)
        assert np.array_equal(clip_a[0], clip_b[0])
        assert truth_a.cut_frames == truth_b.cut_frames

    def test_plan_validation(self, dataset):
        with pytest.raises(ValueError):
            plan_match_video(dataset.matches[0], 0, n_shots=1)


class TestBuild:
    def test_structure(self, dataset):
        assert len(dataset.players) == 32
        assert len(dataset.matches) == 120  # 15 x 2 x 4 years
        # final + 2 semifinals per draw per year.
        assert len(dataset.video_plans) == 24
        # players + matches + interviews pages.
        assert len(dataset.pages) == 32 + 120 + 120

    def test_motivating_query_answerable(self, dataset):
        """There is at least one left-handed female past champion."""
        champs = [
            p
            for p in dataset.players
            if p.gender == "female" and p.handedness == "left" and p.titles > 0
        ]
        assert champs

    def test_every_match_linked(self, dataset):
        for match in dataset.matches[:10]:
            obj = dataset.match_objects[match.title]
            players = dataset.instance.sources_of("played", obj)
            assert len(players) == 2
            winners = dataset.instance.sources_of("won", obj)
            assert len(winners) == 1
            assert winners[0].get("name") == match.winner

    def test_reproducible(self):
        a = build_australian_open(seed=3, n_per_gender=4, years=[2001])
        b = build_australian_open(seed=3, n_per_gender=4, years=[2001])
        assert [p.name for p in a.players] == [p.name for p in b.players]
        assert [m.winner for m in a.matches] == [m.winner for m in b.matches]
