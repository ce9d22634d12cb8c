"""One cache rule for every whole-clip commit.

A stage's scratch ids start at the live model's next ids, so a commit
keeps its pass's outputs unless another commit landed after staging.
Sequential ingest and the serving layer's stage-then-commit both keep
their cache whatever the catalog already holds; a parallel batch whose
stages overlap resets the cache of every stage whose ids shifted.
"""

from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.library import DigitalLibraryEngine, LibrarySearchService

UPSTREAM = {"segment": 1, "tennis": 1, "shape": 1}
DETECTORS = ("segment", "tennis", "shape", "rules")


def make_engine() -> DigitalLibraryEngine:
    dataset = build_australian_open(seed=7, video_shots=3)
    return DigitalLibraryEngine(dataset, fde=build_tennis_fde())


def test_service_commit_on_a_non_empty_catalog_keeps_its_cache():
    engine = make_engine()
    first, second = engine.indexer.dataset.video_plans[:2]
    engine.indexer.index_plan(first)
    LibrarySearchService(engine).index_plan(second)
    fde = engine.indexer.fde
    fde.registry.bump_version("rules")
    for plan in (first, second):
        report = fde.revalidate(plan.name)
        assert report.executed == {"rules": 1}
        assert report.reused == UPSTREAM


def test_overlapping_stages_reset_the_shifted_cache():
    engine = make_engine()
    first, second = engine.indexer.dataset.video_plans[:2]
    engine.indexer.index_all(limit=2, workers=2)
    fde = engine.indexer.fde
    fde.registry.bump_version("rules")
    # Staged against an empty catalog and committed first: nothing shifted.
    report = fde.revalidate(first.name)
    assert report.executed == {"rules": 1}
    assert report.reused == UPSTREAM
    # Staged while the first video was still in flight: its ids shifted
    # at commit, so its first revalidation runs the whole DAG.
    report = fde.revalidate(second.name)
    assert report.executed == {detector: 1 for detector in DETECTORS}
    assert report.reused == {}
