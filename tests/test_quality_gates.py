"""Repository-wide quality gates.

Not about behaviour — about the library staying adoptable: every public
module documented, the public API importable, and end-to-end results
deterministic in their seeds.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro


def _walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield module_info.name


ALL_MODULES = sorted(_walk_modules())

#: ``repro`` and each top-level subpackage / module under it.
TOP_LEVEL = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
)


class TestDocumentation:
    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            return
        for symbol in exported:
            obj = getattr(module, symbol)
            if callable(obj) or isinstance(obj, type):
                assert getattr(obj, "__doc__", None), f"{name}.{symbol} undocumented"

    def test_module_count_sanity(self):
        # The package is large; a collapsed import path would show here.
        assert len(ALL_MODULES) > 50


@pytest.fixture(scope="module")
def fresh_imports() -> dict[str, subprocess.CompletedProcess]:
    """``python -c "import <name>"`` for every :data:`TOP_LEVEL` name, each
    in its own interpreter (a few at a time)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}

    def run(name):
        return subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        return dict(zip(TOP_LEVEL, pool.map(run, TOP_LEVEL)))


class TestImportOrder:
    """Each package imports alone: no import cycle hides behind the order
    in which some other entry point happened to import things first."""

    @pytest.mark.parametrize("name", TOP_LEVEL)
    def test_imports_in_a_fresh_interpreter(self, name, fresh_imports):
        done = fresh_imports[name]
        assert done.returncode == 0, f"import {name} failed:\n{done.stderr}"


class TestDeterminism:
    def test_end_to_end_meta_index_deterministic(self):
        """Same seed, same pixels, same meta-index — twice."""
        from repro.grammar.tennis import build_tennis_fde
        from repro.video.generator import BroadcastGenerator

        def run():
            clip, _ = BroadcastGenerator(seed=31).generate(5, name="det")
            fde = build_tennis_fde()
            fde.index_video(clip)
            return sorted(
                (e.label, e.start, e.stop, round(e.confidence, 9))
                for e in fde.model.events
            ), sorted((s.category, s.start, s.stop) for s in fde.model.shots)

        assert run() == run()

    def test_dataset_pages_deterministic(self):
        from repro.dataset import build_australian_open

        a = build_australian_open(seed=13, n_per_gender=4, years=[2001])
        b = build_australian_open(seed=13, n_per_gender=4, years=[2001])
        assert [d.text for d in a.pages] == [d.text for d in b.pages]
