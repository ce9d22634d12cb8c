"""The searcher: one closed-loop client, and the oracles for its answers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import repro.library.parser as parser
from repro.ir.ann_reference import brute_force_search

from benchmarks.perf.harness import Failures

__all__ = ["Client", "QueryRound"]


@dataclass
class QueryRound:
    """One closed-loop burst: each request's shape and latency, in order.

    ``keys`` names what each request *was* — ``(query, outcome)`` with
    outcome ``hit`` / ``miss`` / ``like`` — so that timings of the same
    work can be folded across rounds.
    """

    shapes: list[str]
    all_ms: list[float]
    keys: list[tuple[int, str]]
    wall_s: float
    traced: bool = False
    #: The workload named this round in ``Outcome.invalid``.
    disturbed: bool = False

    def of_shape(self, shape: str) -> list[float]:
        return [ms for s, ms in zip(self.shapes, self.all_ms) if s == shape]


class Client:
    """One closed-loop client: the next request leaves when the last returned.

    A request is timed from query text to results returned (parse
    included).  The first answer to each distinct query is kept for the
    oracles; labelled answers (stale, degraded, rejected, partial) count
    as failed operations.

    Stream entries ``>= 0`` index the pool; entry ``-1 - k`` asks for
    scenes like excerpt *k* through ``engine.search_like`` — the service
    has no by-example entry.
    """

    def __init__(self, service, pool, failures: Failures, *, engine=None, excerpts=(), **options):
        # The service, not its bound ``search``: the attribute is looked up
        # per request, so a traced round really calls the wrapper.
        self.service = service
        self.pool = pool
        self.failures = failures
        self.engine = engine
        self.excerpts = list(excerpts)
        self.options = options
        self.first: dict[int, list] = {}
        self.postings = 0
        self.results_returned = 0
        self._seq = 0

    def _request(self, seq: int, item: int):
        if item < 0:
            return self.engine.search_like(self.excerpts[-1 - item])
        return self.service.search(parser.parse_query(self.pool.texts[item]), **self.options)

    def run(self, stream: list[int], tracer=None) -> QueryRound:
        request = self._request
        if tracer is not None:
            request = tracer.wrap("bench/request", request, trace_id=lambda a, k: f"q{a[0]}")
        shapes = [self.pool.shapes[item] if item >= 0 else "like" for item in stream]
        latencies: list[float] = []
        keys: list[tuple[int, str]] = []
        clock = time.perf_counter
        loop_started = clock()
        for item in stream:
            self._seq += 1
            started = clock()
            answer = request(self._seq, item)
            latencies.append((clock() - started) * 1e3)
            keys.append((item, self._account(item, answer)))
        wall = clock() - loop_started
        return QueryRound(shapes, latencies, keys, wall, traced=tracer is not None)

    def _account(self, item: int, answer) -> str:
        """Count the answer as an operation; returns its outcome."""
        if item < 0:
            self.failures.check(
                bool(answer) and not any(r.ann_stale for r in answer), "by-example answer"
            )
            self.first.setdefault(item, answer)
            return "like"
        status = answer.status
        coverage = getattr(answer, "coverage", None)
        if status not in ("hit", "miss") or (coverage is not None and not coverage.complete):
            self.failures.fail(f"labelled answer: {status}")
        else:
            self.failures.ok()
        trace = getattr(answer, "trace", None)
        if trace is not None:
            self.postings += trace.postings_processed
        self.results_returned += len(answer.results)
        self.first.setdefault(item, answer.results)
        return status

    def counts(self) -> dict:
        return {"postings_scored": self.postings, "results_returned": self.results_returned}

    # -- oracles --------------------------------------------------------- #

    def _asked(self, limit: int | None = None) -> list[int]:
        return [item for item in self.first if item >= 0][:limit]

    def verify_relational(self, limit: int | None = None) -> None:
        """First answers ≡ ``engine.search_relational`` at this generation."""
        self.engine.build_relational()
        for item in self._asked(limit):
            want = self.engine.search_relational(parser.parse_query(self.pool.texts[item]))
            self.failures.check(
                self.first[item] == want, f"relational mismatch: {self.pool.texts[item]}"
            )

    def verify_cached(self, limit: int) -> None:
        """A cached answer ≡ the same query with ``bypass_cache=True``."""
        for item in self._asked(limit):
            query = parser.parse_query(self.pool.texts[item])
            cached = self.service.search(query)
            fresh = self.service.search(query, bypass_cache=True)
            same = cached.results == fresh.results and cached.generation == fresh.generation
            self.failures.check(same, f"cached != bypass: {self.pool.texts[item]}")

    def verify_like(self) -> None:
        """Full-probe ANN ≡ brute force for every excerpt asked."""
        index = self.engine.ann_index
        for item in [item for item in self.first if item < 0]:
            vector = self.engine.ann_vectorizer.vectorize_clip(self.excerpts[-1 - item])
            got_ids, got_d = index.search(vector, k=10)
            want_ids, want_d = brute_force_search(index.vectors, vector, 10)
            same = got_ids.tolist() == want_ids.tolist() and got_d.tolist() == want_d.tolist()
            self.failures.check(same, f"ANN != brute force for excerpt {-1 - item}")

    def verify_against(self, oracle) -> None:
        """First answers ≡ another service's (the unsharded oracle's)."""
        for item in self._asked():
            query = parser.parse_query(self.pool.texts[item])
            want = oracle.search(query, bypass_cache=True).results
            self.failures.check(
                self.first[item] == want, f"sharded != local: {self.pool.texts[item]}"
            )
