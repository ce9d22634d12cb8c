"""The runtime import graph: indexing and serving run on NumPy alone.

scipy and networkx are development dependencies: the differential
oracles in ``repro.tracking.reference`` use scipy, and the tests that
check the FDE's DAG compare it with ``dependency_graph()``'s networkx
view.  A fresh interpreter that imports the serving, sharding, streaming
and CLI entry points, indexes and queries one video of the small site
and runs ``repro figure1`` must have loaded neither.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import sys

import repro.cli
import repro.library.service
import repro.library.sharding
import repro.streaming
from repro.dataset import build_australian_open
from repro.library import DigitalLibraryEngine, LibraryQuery, LibrarySearchService

engine = DigitalLibraryEngine(build_australian_open(seed=7, video_shots=6))
assert engine.index_videos(limit=1) == 1
served = LibrarySearchService(engine).search(LibraryQuery(event="rally", text="approach the net"))
assert not served.rejected, served.status
assert engine.indexer.model.events, "the indexed video produced no events"
assert repro.cli.main(["figure1"]) == 0
loaded = {name.split(".")[0] for name in sys.modules} & {"scipy", "networkx"}
print(" ".join(sorted(loaded)) or "none")
"""


def test_index_and_query_load_neither_scipy_nor_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "digraph tennis_fde {", done.stdout  # repro figure1 ran
    assert lines[-1] == "none", f"loaded at runtime: {lines[-1]}"
