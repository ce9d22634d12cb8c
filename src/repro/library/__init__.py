"""The digital library search engine.

The integration the demo is about: one engine over (a) the conceptual
webspace of the tournament site, (b) the full-text index of its pages
and interview transcripts, and (c) the COBRA video meta-index the tennis
FDE populates — so a user can ask for "video scenes of left-handed
female players who have won the Australian Open in the past, in which
they approach the net".

- :mod:`repro.library.indexing` — video plans through the FDE into the
  meta-index (and into the column store),
- :mod:`repro.library.query` — the combined concept + content + text
  query structure,
- :mod:`repro.library.results` — scene results and score fusion,
- :mod:`repro.library.engine` — the facade,
- :mod:`repro.library.service` — the concurrent query-serving layer
  (generation-keyed result cache, snapshot-isolated reads, admission
  control, the graceful-degradation ladder, QueryStats),
- :mod:`repro.library.resilience` — circuit breakers and the
  :class:`ResilienceConfig` knobs of the overload story,
- :mod:`repro.library.sharding` — fault-tolerant scatter-gather serving
  over per-shard worker processes (hedged fan-out, typed partial
  results, generation vectors, quarantine + restart).
"""

from repro.library.query import LibraryQuery
from repro.library.results import Coverage, SceneResult
from repro.library.indexing import LibraryIndexer
from repro.library.engine import DigitalLibraryEngine
from repro.library.parser import parse_query, QuerySyntaxError
from repro.library.persistence import save_model, load_model
from repro.library.resilience import ResilienceConfig, StageBreaker
from repro.library.service import (
    AdmissionController,
    LibrarySearchService,
    QueryStats,
    QueryTrace,
    ServedQuery,
)
from repro.library.sharding import (
    ShardedSearchService,
    ShardedServedQuery,
    ShardingConfig,
    assign_shards,
    shard_of,
)

__all__ = [
    "LibraryQuery",
    "SceneResult",
    "Coverage",
    "LibraryIndexer",
    "DigitalLibraryEngine",
    "LibrarySearchService",
    "AdmissionController",
    "ResilienceConfig",
    "StageBreaker",
    "QueryStats",
    "QueryTrace",
    "ServedQuery",
    "ShardedSearchService",
    "ShardedServedQuery",
    "ShardingConfig",
    "assign_shards",
    "shard_of",
    "parse_query",
    "QuerySyntaxError",
    "save_model",
    "load_model",
]
