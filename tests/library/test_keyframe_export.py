"""Scene keyframe export tests."""

import gc
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.library import DigitalLibraryEngine, LibraryQuery
from repro.shots.keyframes import keyframe_index
from repro.vision.io import read_ppm, write_ppm


@pytest.fixture(scope="module")
def engine():
    dataset = build_australian_open(seed=7, video_shots=6)
    engine = DigitalLibraryEngine(dataset)
    engine.index_videos(limit=1)
    return engine


class TestKeyframeExport:
    def test_writes_one_image_per_scene(self, engine, tmp_path):
        scenes = engine.search(LibraryQuery(event="rally"))
        paths = engine.export_scene_keyframes(scenes, tmp_path)
        assert len(paths) == len(scenes)
        for path in paths:
            assert path.exists()

    def test_images_decode_to_frames(self, engine, tmp_path):
        scenes = engine.search(LibraryQuery())
        paths = engine.export_scene_keyframes(scenes, tmp_path)
        image = read_ppm(paths[0])
        assert image.shape == (96, 128, 3)
        assert image.dtype == np.uint8

    def test_keyframe_is_court_colored_for_rally(self, engine, tmp_path):
        """A rally scene's keyframe is a court shot, not a transition."""
        from repro.vision.dominant import color_coverage

        scenes = engine.search(LibraryQuery(event="rally"))
        if not scenes:
            pytest.skip("no rally scenes in this index")
        paths = engine.export_scene_keyframes(scenes[:1], tmp_path)
        image = read_ppm(paths[0])
        assert color_coverage(image, np.array([40, 130, 80]), tolerance=60) > 0.25

    def test_unknown_video_rejected(self, engine, tmp_path):
        from repro.library.results import SceneResult

        fake = SceneResult("ghost_video", 0, 10, None, "nope")
        with pytest.raises(KeyError):
            engine.export_scene_keyframes([fake], tmp_path)


@dataclass
class WatchedPlan(VideoPlan):
    """A plan that, before each render, counts the frames of earlier
    renders (of any plan sharing *frames*) still alive."""

    frames: list = field(default_factory=list, repr=False)
    alive_at_read: list = field(default_factory=list, repr=False)

    def materialise(self):
        gc.collect()
        self.alive_at_read.append(sum(ref() is not None for ref in self.frames))
        clip, truth = super().materialise()
        self.frames.extend(weakref.ref(frame) for frame in clip)
        return clip, truth


@pytest.fixture(scope="module")
def two_video_engine():
    dataset = build_australian_open(seed=7, video_shots=4)
    frames, alive_at_read = [], []
    dataset.video_plans = [
        WatchedPlan(
            name=plan.name,
            match_title=plan.match_title,
            n_shots=plan.n_shots,
            seed=plan.seed,
            config=plan.config,
            frames=frames,
            alive_at_read=alive_at_read,
        )
        for plan in dataset.video_plans[:2]
    ]
    engine = DigitalLibraryEngine(dataset)
    engine.index_videos(limit=2)
    return engine


class TestMultiVideoExport:
    def interleaved_scenes(self, engine):
        """Every scene, alternating between the two videos."""
        by_video = {}
        for scene in engine.search(LibraryQuery()):
            by_video.setdefault(scene.video_name, []).append(scene)
        assert len(by_video) == 2, "the result set must span both videos"
        first, second = by_video.values()
        scenes = [s for pair in zip(first, second) for s in pair]
        return scenes + first[len(second) :] + second[len(first) :]

    def test_paths_align_and_bytes_match(self, two_video_engine, tmp_path):
        engine = two_video_engine
        scenes = self.interleaved_scenes(engine)
        paths = engine.export_scene_keyframes(scenes, tmp_path / "out")
        assert len(paths) == len(scenes)
        clips = {plan.name: VideoPlan.materialise(plan)[0] for plan in engine.dataset.video_plans}
        for index, (scene, path) in enumerate(zip(scenes, paths)):
            clip = clips[scene.video_name]
            frame = keyframe_index(clip, scene.start, min(scene.stop, len(clip)))
            expected = tmp_path / f"expected_{index}.ppm"
            write_ppm(clip[frame], expected)
            assert path.name == f"scene_{index:02d}_{scene.video_name[:40]}_f{frame}.ppm"
            assert path.read_bytes() == expected.read_bytes()

    def test_holds_one_clip_at_a_time(self, two_video_engine, tmp_path):
        engine = two_video_engine
        plan = engine.dataset.video_plans[0]
        scenes = self.interleaved_scenes(engine)
        plan.alive_at_read.clear()
        engine.export_scene_keyframes(scenes, tmp_path)
        # One read per video, and no earlier frame alive at either.
        assert plan.alive_at_read == [0, 0]
