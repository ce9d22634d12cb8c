"""Thread-safety of the detector runtime, and the FDE's execution order.

The runner's quarantine accounting is shared by every staging worker
thread; these tests hammer it from many threads (with injected latency
so interleavings actually happen) and check no update is lost.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.grammar.detectors import DetectorRegistry
from repro.grammar.fde import FeatureDetectorEngine
from repro.grammar.grammar import parse_feature_grammar
from repro.grammar.runtime import DetectorRunner, IsolationPolicy, RunPolicy

WIDE = """
FEATURE GRAMMAR wide ;
DETECTOR a : video -> x ;
DETECTOR b : x -> y1 ;
DETECTOR c : x -> y2 ;
DETECTOR d : x -> y3 ;
DETECTOR e : y1, y2, y3 -> w ;
"""


class TestRunnerThreadSafety:
    def test_no_lost_failure_counts(self):
        """N threads x M failing records must count exactly N*M."""
        registry = DetectorRegistry()
        registry.register("det", lambda context: None)
        runner = DetectorRunner(
            registry,
            RunPolicy(isolation=IsolationPolicy.QUARANTINE, quarantine_after=10**9),
        )
        threads, per_thread = 16, 200
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                runner.record_video_result("det", failed=True)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(hammer) for _ in range(threads)]:
                future.result()
        assert runner.consecutive_failures("det") == threads * per_thread

    def test_quarantine_transitions_under_contention(self):
        """Interleaved failures and quarantine reads stay consistent.

        Each of 8 detectors takes failures from several threads at
        once, with a sleep injected between records to force
        interleavings; every detector must end up quarantined with its
        counter at least at the threshold.
        """
        registry = DetectorRegistry()
        names = [f"det{i}" for i in range(8)]
        for name in names:
            registry.register(name, lambda context: None)
        runner = DetectorRunner(
            registry,
            RunPolicy(isolation=IsolationPolicy.QUARANTINE, quarantine_after=16),
        )
        barrier = threading.Barrier(8)

        def hammer(name):
            barrier.wait()
            for _ in range(8):
                runner.record_video_result(name, failed=True)
                time.sleep(0.001)
                runner.is_quarantined(name)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(hammer, name) for name in names for _ in range(4)
            ]
            for future in futures:
                future.result()
        for name in names:
            assert runner.is_quarantined(name)
            assert runner.consecutive_failures(name) == 32

    def test_export_state_consistent_under_writes(self):
        """export_state taken mid-hammering is a consistent snapshot."""
        registry = DetectorRegistry()
        registry.register("det", lambda context: None)
        runner = DetectorRunner(
            registry,
            RunPolicy(isolation=IsolationPolicy.QUARANTINE, quarantine_after=10**9),
        )
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                runner.record_video_result("det", failed=True)

        snapshots = []
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snapshots.append(runner.export_state())
        finally:
            stop.set()
            thread.join()
        counts = [s["consecutive_failures"].get("det", 0) for s in snapshots]
        assert counts == sorted(counts)  # monotone: no torn/lost reads


DIAMOND = """
FEATURE GRAMMAR diamond ;
DETECTOR a : video -> x ;
DETECTOR b : x -> y1 ;
DETECTOR c : x -> y2 ;
DETECTOR d : y1, y2 -> w ;
"""

TWO_ROOTS = """
FEATURE GRAMMAR two_roots ;
DETECTOR z : video -> p ;
DETECTOR a : video -> q ;
DETECTOR m : p, q -> w ;
"""


def order_of(text: str) -> list[str]:
    grammar = parse_feature_grammar(text)
    registry = DetectorRegistry()
    for decl in grammar.detectors:
        registry.register(decl.name, lambda context: None)
    return FeatureDetectorEngine(grammar, registry).execution_order()


class TestExecutionOrder:
    """Longest path from the axiom first, then name."""

    def test_wide_order(self):
        assert order_of(WIDE) == ["a", "b", "c", "d", "e"]

    def test_diamond_order(self):
        assert order_of(DIAMOND) == ["a", "b", "c", "d"]

    def test_roots_sort_by_name(self):
        assert order_of(TWO_ROOTS) == ["a", "z", "m"]
