"""E19 — approximate nearest-neighbour shot retrieval.

Query-by-example over shot feature vectors: the IVF index
(:class:`repro.ir.ann.AnnIndex`) against the brute-force oracle
(:func:`repro.ir.ann_reference.brute_force_search`) on a replicated
corpus, the same scaling trick E6 uses for text.  The gate demands

- a >= 5x median speedup of the probed search over the full scan,
- recall@10 >= 0.9 at the serving ``nprobe``, and
- ``fused_mismatches == 0``: with every cell probed the index must
  reproduce the oracle — and therefore the fused ranking — byte for
  byte.  Approximation is allowed only where it is asked for.

The query side is gated too: embedding noisy excerpt-sized clips through
the one-pass :class:`~repro.ir.ann.ShotVectorizer` must be >= 1.5x
faster than the per-frame oracle (``vector_reference``) with
``embed_mismatches == 0``.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.ir.ann import AnnIndex, ShotVectorizer
from repro.ir.ann_reference import brute_force_search, recall_at_k, replicate_vectors
from repro.video.frames import VideoClip

#: Corpus replication factor; >= 25x is where the vectorized cell scan
#: separates from the oracle's per-row loop (same rationale as E6).
REPLICATION = 25
N_CELLS = 16
#: The serving operating point: probe 4 of 16 cells.
NPROBE = 4
#: Fusion weights used for the byte-identity check.
WEIGHTS = (0.5, 0.5)
#: By-example query clips: frames per excerpt and excerpts per video.
EXCERPT_FRAMES = 30
EXCERPTS_PER_VIDEO = 4


@pytest.fixture(scope="module")
def bench_clips(bench_dataset):
    """The first four videos, materialised once: ``(clip, truth)`` pairs."""
    return [plan.materialise() for plan in bench_dataset.video_plans[:4]]


@pytest.fixture(scope="module")
def ann_corpus(bench_clips):
    """Replicated shot-vector corpus, built index and degraded queries."""
    vectorizer = ShotVectorizer()
    base = []
    for clip, truth in bench_clips:
        for shot in truth.shots:
            stop = min(shot.stop, len(clip))
            if stop > shot.start:
                base.append(vectorizer.vectorize_clip(clip, shot.start, stop))
    base = np.array(base)
    scaled = replicate_vectors(base, REPLICATION, np.random.default_rng(0))
    return {
        "vectors": scaled,
        "index": AnnIndex.build(scaled, n_cells=N_CELLS, rng=np.random.default_rng(1)),
        # Jittered copies of indexed shots: stand-ins for degraded clips.
        "queries": replicate_vectors(base[:8], 1, np.random.default_rng(7)),
    }


def fused_ranking(ids, distances, weights=WEIGHTS):
    """Late fusion against a deterministic synthetic text score.

    Mirrors the engine's arithmetic (text weight times a per-video score
    plus ann weight times ``1 / (1 + distance)``) so byte-identity of the
    fused ranking, not just the raw neighbour list, is what is compared.
    """
    text_scores = (ids * 31 % 97) / 97.0
    fused = weights[0] * text_scores + weights[1] / (1.0 + distances)
    order = np.lexsort((ids, -fused))
    return ids[order].tolist(), fused[order].tolist()


def test_e19_brute_force(benchmark, ann_corpus):
    """Gate baseline: the oracle's full scan over every query."""
    vectors = ann_corpus["vectors"]
    queries = ann_corpus["queries"]

    def run():
        for q in queries:
            brute_force_search(vectors, q, 10)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_e19_ann_search(benchmark, ann_corpus):
    """Gate candidate: probed IVF search, plus the quality accounting."""
    vectors = ann_corpus["vectors"]
    index = ann_corpus["index"]
    queries = ann_corpus["queries"]

    def run():
        for q in queries:
            index.search(q, k=10, nprobe=NPROBE)

    benchmark.pedantic(run, rounds=5, iterations=1)

    # Recall sweep: quality as a function of cells probed.
    rows = []
    serving_recall = None
    for nprobe in (1, 2, NPROBE, 8, N_CELLS):
        recalls = []
        for q in queries:
            got_ids, _ = index.search(q, k=10, nprobe=nprobe)
            want_ids, _ = brute_force_search(vectors, q, 10)
            recalls.append(recall_at_k(got_ids, want_ids, 10))
        mean_recall = float(np.mean(recalls))
        rows.append([nprobe, f"{nprobe / N_CELLS:.2f}", f"{mean_recall:.3f}"])
        if nprobe == NPROBE:
            serving_recall = mean_recall
    print_table(
        "E19: IVF recall@10 vs cells probed",
        ["nprobe", "cell fraction", "recall@10"],
        rows,
    )

    # Full coverage must reproduce the oracle — and the fused ranking
    # built from it — byte for byte.
    fused_mismatches = 0
    for q in queries:
        got_ids, got_distances = index.search(q, k=10, nprobe=index.n_cells)
        want_ids, want_distances = brute_force_search(vectors, q, 10)
        if not (
            np.array_equal(got_ids, want_ids)
            and np.array_equal(got_distances, want_distances)
            and fused_ranking(got_ids, got_distances)
            == fused_ranking(want_ids, want_distances)
        ):
            fused_mismatches += 1

    benchmark.extra_info["recall_at_10"] = serving_recall
    benchmark.extra_info["fused_mismatches"] = fused_mismatches
    benchmark.extra_info["replication"] = REPLICATION
    benchmark.extra_info["vectors"] = len(vectors)
    assert serving_recall >= 0.9
    assert fused_mismatches == 0


def test_e19_index_build_speed(benchmark, ann_corpus):
    """Timed kernel: k-means plus packed cell-list construction."""
    vectors = ann_corpus["vectors"]
    index = benchmark.pedantic(
        lambda: AnnIndex.build(vectors, n_cells=N_CELLS, rng=np.random.default_rng(1)),
        rounds=1,
        iterations=1,
    )
    assert index.n_vectors == len(vectors)


@pytest.fixture(scope="module")
def excerpts(bench_clips):
    """Noisy excerpt-sized clips: what a by-example request embeds."""
    rng = np.random.default_rng(11)
    out = []
    for clip, _truth in bench_clips:
        for k in range(EXCERPTS_PER_VIDEO):
            start = int(rng.integers(0, max(1, len(clip) - EXCERPT_FRAMES)))
            frames = [
                np.clip(clip[i] + rng.normal(0.0, 6.0, clip[i].shape), 0, 255).astype(np.uint8)
                for i in range(start, min(start + EXCERPT_FRAMES, len(clip)))
            ]
            out.append(VideoClip(frames, fps=clip.fps, name=f"{clip.name}_x{k}"))
    return out


def test_e19_embed_reference(benchmark, excerpts):
    """Gate baseline: per-frame oracle embedding of every excerpt."""
    vectorizer = ShotVectorizer()
    benchmark.pedantic(
        lambda: [vectorizer.vector_reference(x) for x in excerpts], rounds=5, iterations=1
    )


def test_e19_embed(benchmark, excerpts):
    """Gate candidate: one-pass embedding, vectors byte-identical to the oracle."""
    vectorizer = ShotVectorizer()
    vectors = benchmark.pedantic(
        lambda: [vectorizer.vectorize_clip(x) for x in excerpts], rounds=5, iterations=1
    )
    embed_mismatches = sum(
        not np.array_equal(vector, vectorizer.vector_reference(x))
        for vector, x in zip(vectors, excerpts)
    )
    benchmark.extra_info["embed_mismatches"] = embed_mismatches
    benchmark.extra_info["excerpts"] = len(excerpts)
    assert embed_mismatches == 0
