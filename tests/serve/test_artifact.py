"""Tests for the disk-backed plan artifact store (the tier-2 cache)."""

import json
import os

import pytest

from repro.api import TransformOptions
from repro.core.transform import CompiledTransform
from repro.obs import MetricsRegistry
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import (
    ArtifactCorruptError,
    ArtifactHeader,
    ArtifactStore,
    TransformService,
    artifact_key,
    decode_artifact,
    encode_artifact,
)
from repro.serve.artifact import ARTIFACT_FORMAT_VERSION, QUARANTINE_DIR
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
)


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    storage.load(parse_document(DEPT_DOC_2))
    return db, storage


def compile_one():
    from repro.api import Engine

    db, storage = make_storage()
    compiled = Engine(db, metrics=MetricsRegistry()).compile(
        storage, EXAMPLE1_STYLESHEET
    )
    return db, storage, compiled


def make_store(tmp_path):
    return ArtifactStore(str(tmp_path / "plans"), metrics=MetricsRegistry())


def restamp_format_version(path, version):
    """Rewrite one stored entry's header as another build would have
    written it (payload and checksum untouched)."""
    with open(path, "rb") as handle:
        head, payload = handle.read().split(b"\n", 1)
    record = json.loads(head)
    record["format_version"] = version
    with open(path, "wb") as handle:
        handle.write(json.dumps(record, sort_keys=True).encode("utf-8")
                     + b"\n" + payload)


class TestEncodeDecode:
    def test_round_trip(self):
        _, _, compiled = compile_one()
        data, header = encode_artifact(compiled, "k1", fingerprint="fp",
                                       catalog="cat", stats_version=3,
                                       epoch=2)
        decoded_header, decoded = decode_artifact(data, expect_key="k1")
        assert decoded_header.key == "k1"
        assert decoded_header.fingerprint == "fp"
        assert decoded_header.catalog == "cat"
        assert decoded_header.stats_version == 3
        assert decoded_header.epoch == 2
        assert decoded_header.format_version == ARTIFACT_FORMAT_VERSION
        assert decoded.strategy == compiled.strategy
        # a decoded plan survives another encode/decode cycle intact
        data2, _ = encode_artifact(decoded, "k1")
        _, decoded2 = decode_artifact(data2, expect_key="k1")
        assert decoded2.strategy == compiled.strategy

    def test_checksum_mismatch_rejected(self):
        _, _, compiled = compile_one()
        data, _ = encode_artifact(compiled, "k1")
        corrupt = data[:-3] + b"xyz"
        with pytest.raises(ArtifactCorruptError):
            decode_artifact(corrupt)

    def test_truncated_payload_rejected(self):
        _, _, compiled = compile_one()
        data, _ = encode_artifact(compiled, "k1")
        with pytest.raises(ArtifactCorruptError):
            decode_artifact(data[:-10])

    def test_missing_separator_rejected(self):
        with pytest.raises(ArtifactCorruptError):
            decode_artifact(b"no newline anywhere")

    def test_wrong_key_rejected(self):
        _, _, compiled = compile_one()
        data, _ = encode_artifact(compiled, "k1")
        with pytest.raises(ArtifactCorruptError):
            decode_artifact(data, expect_key="other")

    def test_wrong_magic_rejected(self):
        with pytest.raises(ArtifactCorruptError):
            ArtifactHeader.from_dict({"magic": "not-a-plan"})

    def test_future_format_version_rejected(self):
        _, _, compiled = compile_one()
        data, header = encode_artifact(compiled, "k1")
        record = json.loads(data.split(b"\n", 1)[0])
        record["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        doctored = json.dumps(record).encode() + b"\n" + \
            data.split(b"\n", 1)[1]
        with pytest.raises(ArtifactCorruptError):
            decode_artifact(doctored)

    def test_payload_carries_every_slot_and_format_stays(self):
        """No slot of a compiled plan is a runtime handle dropped on the
        way to disk: the payload is every slot — the fields format 5
        always wrote, less the write-only ``options`` slot, which a load
        ignores — so the format version stays."""
        _, _, compiled = compile_one()
        assert set(compiled.__getstate__()) == set(CompiledTransform.__slots__)
        assert ARTIFACT_FORMAT_VERSION == 5

    def test_a_payload_with_the_old_options_slot_loads_and_runs(self):
        import pickle

        from repro.api import Engine

        db, storage, compiled = compile_one()

        class EarlierBuild:
            """Pickles as a format-5 payload of a build whose plans still
            carried ``options`` (always None: nothing set it)."""

            def __reduce__(self):
                return (object.__new__, (CompiledTransform,),
                        dict(compiled.__getstate__(), options=None))

        loaded = pickle.loads(pickle.dumps(EarlierBuild()))
        assert type(loaded) is CompiledTransform
        assert not hasattr(loaded, "options")
        engine = Engine(db, metrics=MetricsRegistry())
        assert engine.execute(storage, loaded).serialized_rows() \
            == engine.execute(storage, compiled).serialized_rows()

    def test_artifact_key_is_stable_and_injective_on_parts(self):
        assert artifact_key("a", "b") == artifact_key("a", "b")
        assert artifact_key("a", "b") != artifact_key("ab", "")
        assert artifact_key("a", "b") != artifact_key("a", "b", "c")


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        header = store.put("k1", compiled, fingerprint="fp", catalog="cat",
                           stats_version=1)
        assert header is not None
        loaded, loaded_header = store.get("k1", fingerprint="fp",
                                          catalog="cat", stats_version=1)
        assert loaded is not None
        assert loaded.strategy == compiled.strategy
        assert loaded_header.checksum == header.checksum
        assert store.stats().hits == 1

    def test_missing_key_is_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.get("nope") == (None, None)
        assert store.stats().misses == 1

    def test_version_mismatch_is_miss(self, tmp_path):
        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        store.put("k1", compiled, fingerprint="fp", catalog="cat",
                  stats_version=1)
        for kwargs in ({"fingerprint": "other"}, {"catalog": "other"},
                       {"stats_version": 2}):
            store.put("k1", compiled, fingerprint="fp", catalog="cat",
                      stats_version=1)
            loaded, _ = store.get("k1", **kwargs)
            assert loaded is None

    def test_mangled_entry_quarantined_not_crash(self, tmp_path):
        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        store.put("k1", compiled)
        path = store.entry_path("k1")
        with open(path, "r+b") as handle:
            handle.seek(-5, os.SEEK_END)
            handle.write(b"XXXXX")
        loaded, _ = store.get("k1")
        assert loaded is None
        assert not os.path.exists(path)  # moved aside, not re-served
        quarantine = os.path.join(store.path, QUARANTINE_DIR)
        assert len(os.listdir(quarantine)) == 1
        assert store.stats().quarantined == 1

    def test_truncated_entry_quarantined(self, tmp_path):
        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        store.put("k1", compiled)
        path = store.entry_path("k1")
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        loaded, _ = store.get("k1")
        assert loaded is None
        assert store.stats().quarantined == 1
        # the store stays usable: a fresh put serves again
        store.put("k1", compiled)
        loaded, _ = store.get("k1")
        assert loaded is not None

    def test_stale_format_version_is_a_miss_never_loaded(
            self, tmp_path, monkeypatch, caplog):
        """An entry pickled by an older build (a version 4 payload has no
        projection mask; a version 3 one names the predicate-strip memo,
        a class this build no longer has) must miss at the header check,
        before its payload is ever unpickled."""
        assert ARTIFACT_FORMAT_VERSION - 1 == 4
        import pickle

        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        store.put("k1", compiled, fingerprint="fp")
        restamp_format_version(store.entry_path("k1"),
                               ARTIFACT_FORMAT_VERSION - 1)
        monkeypatch.setattr(
            pickle, "loads",
            lambda payload: pytest.fail("stale payload was unpickled"),
        )
        with caplog.at_level("WARNING", logger="repro.obs"):
            assert store.get("k1", fingerprint="fp") == (None, None)
        assert "unsupported artifact format version %d" % (
            ARTIFACT_FORMAT_VERSION - 1) in caplog.text
        assert store.stats().quarantined == 1
        assert store.stats().misses == 1

    def test_garbage_file_quarantined(self, tmp_path):
        store = make_store(tmp_path)
        with open(store.entry_path("k1"), "wb") as handle:
            handle.write(b"not an artifact at all")
        loaded, _ = store.get("k1")
        assert loaded is None
        assert store.stats().quarantined == 1

    def test_unpicklable_put_tolerated(self, tmp_path):
        store = make_store(tmp_path)
        assert store.put("k1", lambda: None) is None  # noqa: E731
        assert store.stats().put_errors == 1
        assert store.get("k1") == (None, None)

    def test_invalidate_by_key_and_fingerprint(self, tmp_path):
        _, _, compiled = compile_one()
        store = make_store(tmp_path)
        store.put("k1", compiled, fingerprint="fp-a")
        store.put("k2", compiled, fingerprint="fp-a")
        store.put("k3", compiled, fingerprint="fp-b")
        assert store.invalidate(key="k1") == 1
        assert store.invalidate(fingerprint="fp-a") == 1
        assert len(store) == 1
        assert store.keys() == ["k3"]

    def test_epoch_bumps_monotonically(self, tmp_path):
        store = make_store(tmp_path)
        assert store.epoch() == 0
        assert store.bump_epoch(reason="test") == 1
        assert store.bump_epoch() == 2
        # a second store handle on the same directory sees the epoch
        other = ArtifactStore(store.path, metrics=MetricsRegistry())
        assert other.epoch() == 2


class TestServiceWarmStart:
    def test_restarted_service_serves_from_disk_without_recompiling(
            self, tmp_path):
        db, storage = make_storage()
        store_dir = str(tmp_path / "plans")
        first_metrics = MetricsRegistry()
        with TransformService(db, metrics=first_metrics,
                              artifact_dir=store_dir) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert first_metrics.counter_total("serve.cache.disk.puts") == 1

        # a new service generation: empty tier 1, same disk tier
        metrics = MetricsRegistry()
        with TransformService(db, metrics=metrics,
                              artifact_dir=store_dir) as service:
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert warm.serialized_rows() == cold.serialized_rows()
        assert metrics.counter_total("serve.cache.disk.hits") == 1
        # the warm-start signal: the plan was loaded, never recompiled
        assert metrics.counter_total("transform.rewrite_attempts") == 0

    def test_stale_format_version_recompiles_on_warm_start(self, tmp_path):
        """A kept artifact directory survives a build whose plan objects
        changed shape: the old entries miss, the request recompiles and
        re-persists, and the answer is unchanged."""
        db, storage = make_storage()
        store_dir = str(tmp_path / "plans")
        with TransformService(db, metrics=MetricsRegistry(),
                              artifact_dir=store_dir) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            store = service.artifact_store
            for key in store.keys():
                restamp_format_version(store.entry_path(key),
                                       ARTIFACT_FORMAT_VERSION - 1)
        metrics = MetricsRegistry()
        with TransformService(db, metrics=metrics,
                              artifact_dir=store_dir) as service:
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert warm.cache_tier == "miss"
            assert len(service.artifact_store) == 1  # re-persisted
        assert warm.serialized_rows() == cold.serialized_rows()
        assert metrics.counter_total("serve.cache.disk.hits") == 0
        assert metrics.counter_total("transform.rewrite_attempts") == 1

    def test_functional_artifact_keeps_its_projection(self, tmp_path):
        """A forced-functional plan goes to disk with its projection
        mask; the next generation loads it — a mask of names, resolved
        against a second storage of the same fingerprint — and projects
        byte-identically."""
        db, storage = make_storage()
        sheet = (
            '<xsl:stylesheet version="1.0" '
            'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="dept"><d n="{count(employees/emp)}">'
            '<xsl:value-of select="dname"/></d></xsl:template>'
            "</xsl:stylesheet>")
        options = TransformOptions(strategy="functional")
        store_dir = str(tmp_path / "plans")
        with TransformService(db, metrics=MetricsRegistry(),
                              artifact_dir=store_dir) as service:
            cold = service.transform(storage, sheet, options=options)
            (key,) = service.artifact_store.keys()
            written, _ = service.artifact_store.get(key)
        assert dict(written.mask) == {
            "dname": True, "employees": False, "employees/emp": False}
        other_db, other = make_storage()
        assert other.fingerprint() == storage.fingerprint()
        metrics = MetricsRegistry()
        with TransformService(other_db, metrics=metrics,
                              artifact_dir=store_dir) as service:
            warm = service.transform(other, sheet, options=options)
            loaded, _ = service.artifact_store.get(key)
        assert warm.cache_tier == "l2"
        assert loaded.mask == written.mask
        assert warm.serialized_rows() == cold.serialized_rows() == [
            '<d n="2">ACCOUNTING</d>', '<d n="1">OPERATIONS</d>']

    def test_stats_bump_invalidates_disk_entry(self, tmp_path):
        db, storage = make_storage()
        store_dir = str(tmp_path / "plans")
        metrics = MetricsRegistry()
        with TransformService(db, metrics=metrics,
                              artifact_dir=store_dir) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            db.analyze()  # bumps stats_version -> different disk key
            refreshed = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert refreshed.cache_hit is False
        assert metrics.counter_total("transform.rewrite_attempts") == 2

    def test_precompiled_stylesheets_stay_tier1_only(self, tmp_path):
        from repro.xslt.stylesheet import compile_stylesheet

        db, storage = make_storage()
        store_dir = str(tmp_path / "plans")
        sheet = compile_stylesheet(EXAMPLE1_STYLESHEET)
        with TransformService(db, metrics=MetricsRegistry(),
                              artifact_dir=store_dir) as service:
            service.transform(storage, sheet)
            assert len(service.artifact_store) == 0


class TestSiblingEpochBump:
    """A sibling process publishing an invalidation (a bumped store
    epoch) must reach every serve door — both go through
    ``PlanRuntime.plan_for``."""

    @pytest.mark.parametrize("door", ["transform", "transform_stream"])
    def test_door_absorbs_remote_invalidation(self, tmp_path, door):
        db, storage = make_storage()
        store_dir = str(tmp_path / "plans")
        metrics = MetricsRegistry()

        def request(service):
            if door == "transform":
                result = service.transform(storage, EXAMPLE1_STYLESHEET)
                return "".join(result.serialized_rows())
            return service.transform_stream(storage,
                                            EXAMPLE1_STYLESHEET).text()

        with TransformService(db, metrics=metrics,
                              artifact_dir=store_dir) as service:
            runtime = service._backend.runtime
            cold = request(service)
            assert request(service) == cold  # warm: tier 1
            assert runtime.seen_epoch == 0
            assert metrics.counter_total("serve.cache.disk.hits") == 0
            # a second handle on the directory: what a sibling does
            ArtifactStore(store_dir, metrics=MetricsRegistry()).bump_epoch(
                reason="sibling")
            assert request(service) == cold
            assert runtime.seen_epoch == 1
            assert metrics.counter("serve.cache.evictions",
                                   reason="stale-stats").value == 1
        # the stale tier-1 entry went; the plan was re-read from the
        # disk tier (same stats version), never recompiled
        assert metrics.counter_total("serve.cache.disk.hits") == 1
        assert metrics.counter_total("transform.rewrite_attempts") == 1
