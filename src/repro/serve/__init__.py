"""Serving tier: concurrent ``XMLTransform()`` with a compiled-plan cache.

The paper's transformation function lives inside a database server where
many sessions repeat the same (stylesheet, source) work.  This package
adds the pieces a long-lived server needs on top of
:func:`repro.core.transform.xml_transform`:

* :class:`PlanCache` — thread-safe LRU cache of
  :class:`~repro.core.transform.CompiledTransform` artifacts, keyed by
  stylesheet content hash + source structural fingerprint, with
  stampede suppression and explicit schema-change invalidation;
* :class:`ArtifactStore` — the persistent second tier: serialized plans
  on disk with versioned, checksummed entry headers, shared by every
  process pointing at the directory (warm restarts, cluster workers);
* :class:`TransformService` — the one front door: bounded admission,
  per-request deadlines, cancellation, per-request tracing and flight
  recording over worker *threads* (in-process, live sources, full
  results) or worker *processes* (``backend="process"``: escaping the
  GIL for CPU-bound transforms, traces stitched across the pipe);
* :class:`PlanRuntime` — what every worker runs a claimed request on:
  the two-tier plan lookup (tier-1 :class:`PlanCache` → optional
  :class:`ArtifactStore` → compile-and-persist), cross-process
  invalidation over the store's epoch; cache hits skip every compile
  stage and still carry the preserved EXPLAIN REWRITE ledger.
"""

from repro.serve.artifact import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactHeader,
    ArtifactStore,
    artifact_key,
    decode_artifact,
    encode_artifact,
)
from repro.serve.cache import (
    EVICT_INVALIDATED,
    EVICT_LRU,
    CacheStats,
    PlanCache,
)
from repro.serve.cluster import ClusterWorkerError, WorkerRequestError
from repro.serve.runtime import (
    PlanRuntime,
    ServeError,
    ServeResult,
    source_fingerprint,
    stylesheet_key,
)
from repro.serve.service import (
    RequestCancelledError,
    RequestTimeoutError,
    ServeFuture,
    ServiceClosedError,
    ServiceOverloadedError,
    TransformService,
)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactError",
    "ArtifactHeader",
    "ArtifactStore",
    "CacheStats",
    "ClusterWorkerError",
    "EVICT_INVALIDATED",
    "EVICT_LRU",
    "PlanCache",
    "PlanRuntime",
    "RequestCancelledError",
    "RequestTimeoutError",
    "ServeError",
    "ServeFuture",
    "ServeResult",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "TransformService",
    "WorkerRequestError",
    "artifact_key",
    "decode_artifact",
    "encode_artifact",
    "source_fingerprint",
    "stylesheet_key",
]
