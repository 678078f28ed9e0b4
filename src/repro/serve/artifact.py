"""Disk-backed compiled-plan artifacts: the serve tier's second cache tier.

The paper's compiled XSLT plans live inside a database server that is
restarted, upgraded and scaled across sessions; recompiling every plan
after each restart (or once per OS process) throws away exactly the work
the rewrite amortizes.  :class:`ArtifactStore` persists serialized
:class:`~repro.core.transform.CompiledTransform` artifacts under a
directory shared by every worker process of a process-backed
:class:`~repro.serve.service.TransformService` (and usable by a
thread-backed one), so

* a plan compiled by **any** worker is a tier-2 hit in **all** of them;
* a restarted service serves its first repeat request from the warm
  disk cache without recompiling (warm-start);
* stale plans are never served: every entry carries a **versioned
  header** (format version, logical key, source fingerprint, database
  catalog fingerprint, statistics version, invalidation epoch) that the
  loader validates before trusting the payload.

On-disk entry format (one file per plan, ``<key>.plan``)::

    <header JSON, one line>\\n<pickled CompiledTransform payload>

The header records a SHA-256 checksum and byte length of the payload;
any mismatch — truncation, bit rot, a torn write, a foreign file — is a
:class:`ArtifactCorruptError` that :meth:`ArtifactStore.get` turns into
**quarantine-instead-of-crash**: the damaged file is moved aside into
``quarantine/`` (with a ``serve.cache.disk.quarantined`` metric and a
warning), and the request recompiles as a plain miss.

Cross-process invalidation rides on the store's **epoch**: a monotonic
counter in ``EPOCH`` (flock-protected read-increment-write).  A worker
that runs ANALYZE / DDL (bumping its database's ``stats_version``)
bumps the shared epoch; every other worker notices the bump on its next
lookup and evicts tier-1 entries recorded under the previous epoch.  Writes are atomic (temp file + ``os.replace``)
so readers never observe half-written entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import time

from repro.errors import ReproError
from repro.obs import global_metrics

#: bump whenever the pickled :class:`CompiledTransform` object graph
#: changes shape: an entry written by another build must miss and be
#: recompiled, never be loaded half-initialised.  3: the SQL/XML
#: constructors no longer carry precomputed static markup — it belongs
#: to a plan's *binding* (closures over one catalog's column positions),
#: which is never part of the graph: ``Query`` pickles the tree only.
#: 4: a ``PartialEvaluation`` no longer carries its predicate-strip memo
#: (that class is gone — a version 3 payload would fail inside
#: ``pickle.loads``), and patterns pickle as dicts, not slots.
#: 5: a ``CompiledTransform`` carries a ``mask`` slot (the projection its
#: functional documents are built with); a version 4 payload lacks it
#: and would run a forced-functional or fallback artifact unprojected.
ARTIFACT_FORMAT_VERSION = 5
ARTIFACT_MAGIC = "repro-plan"
ARTIFACT_SUFFIX = ".plan"
EPOCH_FILE = "EPOCH"
QUARANTINE_DIR = "quarantine"

_LOG = logging.getLogger("repro.obs")


class ArtifactError(ReproError):
    """Base class for artifact-store failures."""


class ArtifactCorruptError(ArtifactError):
    """An on-disk entry failed header/checksum validation."""


def artifact_key(*parts):
    """The store's logical key: a stable SHA-256 over the identity parts
    (stylesheet content hash, source fingerprint, catalog fingerprint,
    options key, stats version...).  Parts are joined with an unambiguous
    separator so no two part lists collide."""
    joined = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class ArtifactHeader:
    """The versioned header stored in front of every payload.

    ``fingerprint`` is the *source* structural fingerprint the plan was
    compiled against, ``catalog`` the database catalog fingerprint, and
    ``stats_version`` the statistics version — together the conditions
    under which the optimizer's choices were valid.  ``epoch`` is the
    store's invalidation epoch at write time.  Loaders compare all of
    them; any mismatch is a miss, never a served stale plan.
    """

    __slots__ = ("format_version", "key", "fingerprint", "catalog",
                 "stats_version", "epoch", "checksum", "payload_bytes",
                 "created_at")

    def __init__(self, key, fingerprint=None, catalog=None,
                 stats_version=None, epoch=0, checksum=None,
                 payload_bytes=0, created_at=None,
                 format_version=ARTIFACT_FORMAT_VERSION):
        self.format_version = format_version
        self.key = key
        self.fingerprint = fingerprint
        self.catalog = catalog
        self.stats_version = stats_version
        self.epoch = epoch
        self.checksum = checksum
        self.payload_bytes = payload_bytes
        self.created_at = created_at

    def to_dict(self):
        return {
            "magic": ARTIFACT_MAGIC,
            "format_version": self.format_version,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "catalog": self.catalog,
            "stats_version": self.stats_version,
            "epoch": self.epoch,
            "checksum": self.checksum,
            "payload_bytes": self.payload_bytes,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, record):
        if not isinstance(record, dict) \
                or record.get("magic") != ARTIFACT_MAGIC:
            raise ArtifactCorruptError("missing or wrong artifact magic")
        if record.get("format_version") != ARTIFACT_FORMAT_VERSION:
            raise ArtifactCorruptError(
                "unsupported artifact format version %r"
                % record.get("format_version")
            )
        header = cls(
            key=record.get("key"),
            fingerprint=record.get("fingerprint"),
            catalog=record.get("catalog"),
            stats_version=record.get("stats_version"),
            epoch=record.get("epoch", 0),
            checksum=record.get("checksum"),
            payload_bytes=record.get("payload_bytes", 0),
            created_at=record.get("created_at"),
        )
        if not header.key or not header.checksum:
            raise ArtifactCorruptError("artifact header lacks key/checksum")
        return header


def encode_artifact(compiled, key, fingerprint=None, catalog=None,
                    stats_version=None, epoch=0, created_at=None):
    """Serialize one compiled transform into header+payload bytes."""
    payload = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    header = ArtifactHeader(
        key=key, fingerprint=fingerprint, catalog=catalog,
        stats_version=stats_version, epoch=epoch,
        checksum=hashlib.sha256(payload).hexdigest(),
        payload_bytes=len(payload),
        created_at=created_at if created_at is not None else time.time(),
    )
    head = json.dumps(header.to_dict(), sort_keys=True).encode("utf-8")
    return head + b"\n" + payload, header


def decode_artifact(data, expect_key=None):
    """Parse and validate header+payload bytes; returns
    ``(header, compiled)``.  Raises :class:`ArtifactCorruptError` on any
    structural damage — no newline, bad JSON, truncated payload,
    checksum mismatch, or a key that does not match ``expect_key`` (a
    renamed/misfiled entry must not alias another plan)."""
    newline = data.find(b"\n")
    if newline < 0:
        raise ArtifactCorruptError("no header/payload separator")
    try:
        record = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ArtifactCorruptError("unreadable header: %s" % exc)
    header = ArtifactHeader.from_dict(record)
    payload = data[newline + 1:]
    if len(payload) != header.payload_bytes:
        raise ArtifactCorruptError(
            "payload truncated: %d bytes, header says %d"
            % (len(payload), header.payload_bytes)
        )
    if hashlib.sha256(payload).hexdigest() != header.checksum:
        raise ArtifactCorruptError("payload checksum mismatch")
    if expect_key is not None and header.key != expect_key:
        raise ArtifactCorruptError(
            "entry key %s does not match expected %s"
            % (header.key, expect_key)
        )
    try:
        compiled = pickle.loads(payload)
    except Exception as exc:
        raise ArtifactCorruptError("payload does not unpickle: %s" % exc)
    return header, compiled


class ArtifactStoreStats:
    """Point-in-time counters of one store instance (process-local —
    each worker holds its own view of the shared directory)."""

    __slots__ = ("hits", "misses", "puts", "put_errors", "quarantined",
                 "invalidated", "entries", "epoch")

    def __init__(self, hits, misses, puts, put_errors, quarantined,
                 invalidated, entries, epoch):
        self.hits = hits
        self.misses = misses
        self.puts = puts
        self.put_errors = put_errors
        self.quarantined = quarantined
        self.invalidated = invalidated
        self.entries = entries
        self.epoch = epoch

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class ArtifactStore:
    """A directory of validated plan artifacts shared across processes.

    :param path: store directory (created if missing).  Workers of one
        cluster — and successive service generations warm-starting —
        point at the same path.
    :param metrics: a :class:`~repro.obs.metrics.MetricsRegistry`
        (defaults to the process-wide one); everything lands under
        ``serve.cache.disk.*``.
    """

    def __init__(self, path, metrics=None):
        self.path = os.path.abspath(path)
        self.metrics = metrics or global_metrics()
        os.makedirs(self.path, exist_ok=True)
        os.makedirs(os.path.join(self.path, QUARANTINE_DIR), exist_ok=True)
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._put_errors = 0
        self._quarantined = 0
        self._invalidated = 0

    # -- paths -------------------------------------------------------------------

    def entry_path(self, key):
        return os.path.join(self.path, key + ARTIFACT_SUFFIX)

    def _epoch_path(self):
        return os.path.join(self.path, EPOCH_FILE)

    # -- epoch (cross-process invalidation signal) -------------------------------

    def epoch(self):
        """The store's current invalidation epoch (0 when never bumped)."""
        try:
            with open(self._epoch_path(), "r", encoding="utf-8") as handle:
                return int(json.load(handle).get("epoch", 0))
        except (OSError, ValueError):
            return 0

    def bump_epoch(self, reason=None):
        """Atomically increment the shared epoch; returns the new value.

        Every worker that observes the bump treats its tier-1 entries
        from older epochs as stale (see
        :meth:`~repro.serve.runtime.PlanRuntime.sync_versions`).  The
        read-increment-write is flock-serialized so concurrent bumps
        from two workers never collapse into one.
        """
        path = self._epoch_path()
        lock_path = path + ".lock"
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            try:
                import fcntl

                fcntl.flock(lock_fd, fcntl.LOCK_EX)
            except ImportError:  # pragma: no cover - non-POSIX fallback
                pass
            epoch = self.epoch() + 1
            body = {"epoch": epoch, "updated_at": time.time()}
            if reason:
                body["reason"] = reason
            self._atomic_write(
                path, json.dumps(body, sort_keys=True).encode("utf-8")
            )
        finally:
            os.close(lock_fd)
        self.metrics.counter("serve.cache.disk.epoch_bumps").inc()
        return epoch

    # -- lookup / insert ---------------------------------------------------------

    def get(self, key, fingerprint=None, catalog=None, stats_version=None):
        """The stored plan for ``key``, or ``(None, None)``.

        Returns ``(compiled, header)`` on a hit.  A header whose
        fingerprint / catalog / stats_version disagrees with the
        caller's current values is a *miss* (the entry stays for another
        process whose versions may still match — keys embed versions, so
        disagreement here means a renamed or hand-edited file).  A
        corrupt entry is quarantined and reported as a miss.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._misses += 1
            self.metrics.counter("serve.cache.disk.misses").inc()
            return None, None
        except OSError as exc:
            _LOG.warning("artifact store: cannot read %s: %s", path, exc)
            self._misses += 1
            self.metrics.counter("serve.cache.disk.misses").inc()
            return None, None
        try:
            header, compiled = decode_artifact(data, expect_key=key)
            if fingerprint is not None \
                    and header.fingerprint != fingerprint:
                raise ArtifactCorruptError(
                    "source fingerprint mismatch (entry %r, current %r)"
                    % (header.fingerprint, fingerprint)
                )
            if catalog is not None and header.catalog != catalog:
                raise ArtifactCorruptError(
                    "catalog fingerprint mismatch (entry %r, current %r)"
                    % (header.catalog, catalog)
                )
            if stats_version is not None \
                    and header.stats_version != stats_version:
                raise ArtifactCorruptError(
                    "stats_version mismatch (entry %r, current %r)"
                    % (header.stats_version, stats_version)
                )
        except ArtifactCorruptError as exc:
            self._quarantine(path, exc)
            self._misses += 1
            self.metrics.counter("serve.cache.disk.misses").inc()
            return None, None
        self._hits += 1
        self.metrics.counter("serve.cache.disk.hits").inc()
        return compiled, header

    def put(self, key, compiled, fingerprint=None, catalog=None,
            stats_version=None, epoch=None):
        """Persist one plan under ``key`` (atomic write); returns the
        header, or None when the artifact cannot be serialized — a plan
        that does not pickle stays a tier-1-only entry rather than
        failing the request."""
        try:
            data, header = encode_artifact(
                compiled, key, fingerprint=fingerprint, catalog=catalog,
                stats_version=stats_version,
                epoch=self.epoch() if epoch is None else epoch,
            )
        except Exception as exc:
            self._put_errors += 1
            self.metrics.counter("serve.cache.disk.put_errors").inc()
            _LOG.warning("artifact store: cannot serialize plan %s: %s",
                         key[:12], exc)
            return None
        try:
            self._atomic_write(self.entry_path(key), data)
        except OSError as exc:
            self._put_errors += 1
            self.metrics.counter("serve.cache.disk.put_errors").inc()
            _LOG.warning("artifact store: cannot write %s: %s", key[:12], exc)
            return None
        self._puts += 1
        self.metrics.counter("serve.cache.disk.puts").inc()
        return header

    def _atomic_write(self, path, data):
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _quarantine(self, path, error):
        """Move a damaged entry aside — never crash, never re-serve it."""
        self._quarantined += 1
        self.metrics.counter("serve.cache.disk.quarantined").inc()
        target = os.path.join(
            self.path, QUARANTINE_DIR,
            "%s.%d" % (os.path.basename(path), int(time.time() * 1000)),
        )
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        _LOG.warning("artifact store: quarantined corrupt entry %s: %s",
                     os.path.basename(path), error)

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, key=None, fingerprint=None):
        """Delete entries by exact key or source fingerprint; with
        neither, delete everything.  Returns the number removed."""
        removed = 0
        if key is not None:
            try:
                os.unlink(self.entry_path(key))
                removed += 1
            except OSError:
                pass
        else:
            for name, header in self._iter_headers():
                if fingerprint is not None \
                        and header.fingerprint != fingerprint:
                    continue
                try:
                    os.unlink(os.path.join(self.path, name))
                    removed += 1
                except OSError:
                    pass
        if removed:
            self._invalidated += removed
            self.metrics.counter(
                "serve.cache.disk.evictions", reason="invalidated"
            ).inc(removed)
        return removed

    def _iter_headers(self):
        """(filename, header) for every readable entry; corrupt headers
        are skipped here (get() is the quarantine point)."""
        for name in sorted(os.listdir(self.path)):
            if not name.endswith(ARTIFACT_SUFFIX):
                continue
            try:
                with open(os.path.join(self.path, name), "rb") as handle:
                    head = handle.readline()
                header = ArtifactHeader.from_dict(
                    json.loads(head.decode("utf-8"))
                )
            except (OSError, ValueError, UnicodeDecodeError,
                    ArtifactCorruptError):
                continue
            yield name, header

    # -- introspection -----------------------------------------------------------

    def __len__(self):
        return sum(1 for _ in self._iter_headers())

    def keys(self):
        return [header.key for _, header in self._iter_headers()]

    def stats(self):
        return ArtifactStoreStats(
            self._hits, self._misses, self._puts, self._put_errors,
            self._quarantined, self._invalidated, len(self), self.epoch(),
        )
