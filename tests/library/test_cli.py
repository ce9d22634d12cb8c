"""CLI tests (in-process invocation of repro.cli.main)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.faults import CrashPoint, SimulatedCrash


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFigure1:
    def test_prints_dot(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph tennis_fde")
        assert '"segment" -> "tennis"' in out


class TestIndexQueryRoundTrip:
    @pytest.fixture(scope="class")
    def metaindex(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "meta.json"
        assert main(["index", "--seed", "7", "--videos", "1", "--out", str(path)]) == 0
        return path

    def test_index_writes_valid_json(self, metaindex):
        document = json.loads(metaindex.read_text())
        assert "videos" in document["tables"]

    def test_query_finds_scenes(self, metaindex, capsys):
        code = main(
            ["query", "--seed", "7", "--metaindex", str(metaindex), "SCENES"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "whole video" in out

    def test_query_event_filter(self, metaindex, capsys):
        code = main(
            [
                "query",
                "--seed",
                "7",
                "--metaindex",
                str(metaindex),
                "SCENES WHERE event = rally",
            ]
        )
        out = capsys.readouterr().out
        if code == 0:
            assert "rally" in out
        else:
            assert "no scenes" in out

    def test_query_no_match_exit_code(self, metaindex, capsys):
        code = main(
            [
                "query",
                "--seed",
                "7",
                "--metaindex",
                str(metaindex),
                'SCENES WHERE player.name = "Nobody Atall"',
            ]
        )
        assert code == 1

    def test_build_site(self, tmp_path, capsys):
        out = tmp_path / "site"
        assert main(["build-site", "--seed", "7", "--out", str(out)]) == 0
        assert (out / "players").is_dir()

    def test_export_mpeg7(self, metaindex, tmp_path, capsys):
        out_path = tmp_path / "meta.xml"
        assert (
            main(["export-mpeg7", "--metaindex", str(metaindex), "--out", str(out_path)])
            == 0
        )
        text = out_path.read_text()
        assert text.startswith("<Mpeg7")

    def test_fsck_clean_after_index(self, metaindex, capsys):
        assert main(["fsck", "--metaindex", str(metaindex)]) == 0
        out = capsys.readouterr().out
        assert "fsck: clean" in out
        assert "checksum ok" in out


class TestCrashResumeFsck:
    """Crash a CLI index run mid-snapshot, fsck it, resume it."""

    @pytest.fixture(scope="class")
    def crashed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("crash") / "meta.json"
        with CrashPoint("snapshot-pre-replace", after=1):
            with pytest.raises(SimulatedCrash):
                main(["index", "--seed", "7", "--videos", "2", "--out", str(path)])
        return path

    def test_fsck_reports_the_damage(self, crashed, capsys):
        assert main(["fsck", "--metaindex", str(crashed)]) == 1
        out = capsys.readouterr().out
        assert "problem(s) found" in out
        assert "began but never committed" in out
        # the previous generation is intact and fsck says so
        assert "falls back" in out

    def test_resume_completes_and_fsck_is_clean(self, crashed, capsys):
        assert main(
            ["index", "--seed", "7", "--videos", "2", "--out", str(crashed), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resume: restored 1 committed video(s)" in out
        assert "indexing 1 video(s)" in out
        document = json.loads(crashed.read_text())
        assert len(document["tables"]["videos"]["columns"]["name"]) == 2
        assert main(["fsck", "--metaindex", str(crashed)]) == 0
        assert "fsck: clean" in capsys.readouterr().out

    def test_corrupt_snapshot_without_backup_fails_fsck(self, tmp_path, capsys):
        path = tmp_path / "meta.json"
        path.write_text('{"version": 2, "tables"')  # torn, no .prev
        assert main(["fsck", "--metaindex", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "no previous generation to fall back to" in out


class TestQueryStats:
    @pytest.fixture(scope="class")
    def metaindex(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serving") / "meta.json"
        assert main(["index", "--seed", "7", "--videos", "1", "--out", str(path)]) == 0
        return path

    def test_reports_cache_and_stage_counters(self, metaindex, capsys):
        code = main(
            [
                "query-stats",
                "--seed",
                "7",
                "--metaindex",
                str(metaindex),
                "--repeat",
                "3",
                "SCENES",
                "SCENES WHERE event = rally",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queries served      6" in out
        assert "cache hits          4" in out
        assert "last served from cache" in out
        assert "scene_scan" in out

    def test_single_shot_is_all_misses(self, metaindex, capsys):
        code = main(
            [
                "query-stats",
                "--seed",
                "7",
                "--metaindex",
                str(metaindex),
                "--repeat",
                "1",
                "SCENES",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hits          0" in out
        assert "last served from engine" in out


class TestMalformedQuery:
    """A malformed query is reported on stderr with exit 2, before any work."""

    BAD = "SCENES WHERE player.gender = female AND player.gender = male"

    def assert_reported(self, code, capsys):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "query: duplicate player.gender clause\n"
        assert captured.out == ""

    def test_query(self, tmp_path, capsys):
        missing = str(tmp_path / "meta.json")
        self.assert_reported(main(["query", "--metaindex", missing, self.BAD]), capsys)

    def test_search(self, tmp_path, capsys):
        missing = str(tmp_path / "meta.json")
        code = main(["search", "--metaindex", missing, "--like", "v", "--query", self.BAD])
        self.assert_reported(code, capsys)

    def test_query_stats(self, tmp_path, capsys):
        missing = str(tmp_path / "meta.json")
        code = main(["query-stats", "--metaindex", missing, "SCENES", self.BAD])
        self.assert_reported(code, capsys)

    def test_query_stats_sharded(self, capsys):
        code = main(["query-stats", "--shards", "2", "SCENES", self.BAD])
        self.assert_reported(code, capsys)


class TestServeBench:
    def test_prints_latency_and_throughput(self, capsys):
        code = main(
            [
                "serve-bench",
                "--seed",
                "7",
                "--videos",
                "1",
                "--threads",
                "2",
                "--requests",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cold latency" in out
        assert "speedup" in out
        assert "queries/s" in out
        assert "index generation    1" in out
