"""Tests for source fingerprints — the schema half of the cache key."""

from repro.rdb import Database, INT, Query, Scan
from repro.rdb.expressions import col
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import source_fingerprint
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    dept_emp_view_query,
    make_database,
)


def make_storage(dtd=DEPT_DTD, table="xd"):
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(dtd), table,
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    return db, storage


class TestQueryFingerprint:
    def test_stable_across_calls(self):
        query = dept_emp_view_query()
        assert query.fingerprint() == query.fingerprint()

    def test_equal_queries_agree(self):
        assert (dept_emp_view_query().fingerprint()
                == dept_emp_view_query().fingerprint())

    def test_different_queries_differ(self):
        q1 = Query(Scan("t"), [("a", col("a", "t"))])
        q2 = Query(Scan("t"), [("b", col("b", "t"))])
        assert q1.fingerprint() != q2.fingerprint()


class TestViewFingerprint:
    def test_view_fingerprint_covers_name_and_query(self):
        db = make_database()
        v1 = db.create_view("v1", dept_emp_view_query())
        v2 = db.create_view("v2", dept_emp_view_query())
        assert v1.fingerprint() == v1.fingerprint()
        # same defining query, different name → different fingerprint
        assert v1.fingerprint() != v2.fingerprint()


class TestStorageFingerprint:
    def test_stable_across_equivalent_instances(self):
        _, s1 = make_storage()
        _, s2 = make_storage()
        assert s1.fingerprint() == s2.fingerprint()

    def test_data_does_not_change_fingerprint(self):
        _, storage = make_storage()
        before = storage.fingerprint()
        storage.load(parse_document(DEPT_DOC_1))
        assert storage.fingerprint() == before

    def test_index_ddl_changes_fingerprint(self):
        # a value index changes what the optimizer would pick, so the
        # fingerprint must change — cached plans would be stale
        _, storage = make_storage()
        before = storage.fingerprint()
        storage.create_value_index("sal")
        assert storage.fingerprint() != before

    def test_schema_half_is_derived_once_catalog_half_stays_live(
            self, monkeypatch):
        from repro.rdb import storage as storage_module

        derived = []
        derive = storage_module._schema_signature
        monkeypatch.setattr(
            storage_module, "_schema_signature",
            lambda decl, *seen: derived.append(decl) or derive(decl, *seen))
        db, storage = make_storage()
        first = storage.fingerprint()
        assert storage.fingerprint() == first
        storage.create_value_index("sal")
        indexed = storage.fingerprint()
        db.analyze()
        assert len({first, indexed, storage.fingerprint()}) == 3
        assert derived.count(storage.schema.root) == 1

    def test_table_name_changes_fingerprint(self):
        _, s1 = make_storage(table="xd")
        _, s2 = make_storage(table="other")
        assert s1.fingerprint() != s2.fingerprint()

    def test_schema_shape_changes_fingerprint(self):
        _, s1 = make_storage()
        other_dtd = DEPT_DTD.replace(
            "<!ELEMENT emp (empno, ename, sal)>",
            "<!ELEMENT emp (empno, ename, sal, bonus?)>",
        ) + "<!ELEMENT bonus (#PCDATA)>"
        _, s2 = make_storage(dtd=other_dtd)
        assert s1.fingerprint() != s2.fingerprint()

    def test_clob_storage_fingerprint(self):
        db = Database()
        c1 = ClobStorage(db, "c")
        c2 = ClobStorage(db, "c2")
        assert c1.fingerprint() == ClobStorage(Database(), "c").fingerprint()
        assert c1.fingerprint() != c2.fingerprint()


class TestSourceFingerprintHelper:
    def test_uses_fingerprint_method(self):
        _, storage = make_storage()
        assert source_fingerprint(storage) == storage.fingerprint()

    def test_anonymous_sources_get_identity_token(self):
        class Anon:
            pass

        a, b = Anon(), Anon()
        assert source_fingerprint(a) == source_fingerprint(a)
        assert source_fingerprint(a) != source_fingerprint(b)
