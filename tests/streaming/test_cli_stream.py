"""CLI streaming ingest: repro stream, fsck chunk checks, resume."""

import pytest

from repro.cli import main
from repro.library.persistence import catalog_to_stream_state
from repro.storage.crashpoints import CrashPoint
from repro.storage.persist import load_catalog


@pytest.fixture(scope="module")
def batch_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_batch") / "meta.json"
    assert main(["index", "--seed", "7", "--videos", "1", "--out", str(path)]) == 0
    return path.read_bytes()


class TestStreamCommand:
    def test_stream_matches_batch_index(self, tmp_path, batch_bytes, capsys):
        out = tmp_path / "meta.json"
        journal = tmp_path / "meta.journal"
        code = main(
            ["stream", "--seed", "7", "--videos", "1", "--out", str(out),
             "--journal", str(journal), "--chunk-frames", "24"]
        )
        assert code == 0
        assert out.read_bytes() == batch_bytes
        text = capsys.readouterr().out
        assert "done" in text

    def test_zero_queue_chunks_rejected_before_ingest(self, tmp_path):
        out = tmp_path / "meta.json"
        with pytest.raises(ValueError, match="queue_chunks"):
            main(["stream", "--videos", "1", "--out", str(out), "--queue-chunks", "0"])
        assert not out.exists()

    def test_fsck_clean_after_stream(self, tmp_path, capsys):
        out = tmp_path / "meta.json"
        journal = tmp_path / "meta.journal"
        assert main(
            ["stream", "--seed", "7", "--videos", "1", "--out", str(out),
             "--journal", str(journal), "--chunk-frames", "24"]
        ) == 0
        capsys.readouterr()
        code = main(["fsck", "--metaindex", str(out), "--journal", str(journal)])
        text = capsys.readouterr().out
        assert code == 0
        assert "fsck: clean" in text
        assert "chunk" in text  # the deep chunk check reported the stream

    def test_kill_fsck_resume_roundtrip(self, tmp_path, batch_bytes, capsys):
        out = tmp_path / "meta.json"
        journal = tmp_path / "meta.journal"
        argv = ["stream", "--seed", "7", "--videos", "1", "--out", str(out),
                "--journal", str(journal), "--chunk-frames", "24"]
        with CrashPoint("chunk-pre-commit", after=2):
            assert main(argv) == 1  # consumer died mid-commit -> quarantined
        capsys.readouterr()

        # fsck: the in-flight chunk is an orphan — recoverable, not fatal.
        code = main(["fsck", "--metaindex", str(out), "--journal", str(journal)])
        text = capsys.readouterr().out
        assert code == 0
        assert "orphaned chunk_begin" in text
        assert "recoverable" in text

        assert main(argv + ["--resume"]) == 0
        assert out.read_bytes() == batch_bytes

        # After a resume the journal's generations restart; fsck treats
        # the epoch boundary as legal, not as a stuck generation.
        capsys.readouterr()
        assert main(["fsck", "--metaindex", str(out), "--journal", str(journal)]) == 0
        text = capsys.readouterr().out
        assert "fsck: clean" in text
        assert "resume" in text

    def test_ann_build_keeps_an_in_flight_stream(self, tmp_path, batch_bytes, capsys):
        """``ann-build`` on a mid-stream snapshot keeps its resume rows,
        so ``--resume`` still finishes the video."""
        out = tmp_path / "meta.json"
        journal = tmp_path / "meta.journal"
        argv = ["stream", "--seed", "7", "--videos", "1", "--out", str(out),
                "--journal", str(journal), "--chunk-frames", "24"]
        with CrashPoint("chunk-pre-commit", after=6):
            assert main(argv) == 1
        rows = catalog_to_stream_state(load_catalog(out))
        assert rows, "the stream should be in flight"

        assert main(["ann-build", "--seed", "7", "--metaindex", str(out)]) == 0
        assert catalog_to_stream_state(load_catalog(out)) == rows

        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "nothing to stream" not in capsys.readouterr().out
        assert out.read_bytes() == batch_bytes
