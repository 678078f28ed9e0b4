"""Tests for the XMLType storage models: object-relational shredding with
its reconstruction view, and CLOB."""

import pytest

from repro.errors import DatabaseError, SchemaError
from repro.rdb import Database, INT
from repro.rdb.infer import infer_view_structure
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize

DEPT_DTD = """
<!ELEMENT dept (dname, loc, employees)>
<!ELEMENT dname (#PCDATA)>
<!ELEMENT loc (#PCDATA)>
<!ELEMENT employees (emp*)>
<!ELEMENT emp (empno, ename, sal)>
<!ELEMENT empno (#PCDATA)>
<!ELEMENT ename (#PCDATA)>
<!ELEMENT sal (#PCDATA)>
"""

DOC1 = (
    "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>"
    "<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>"
    "<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>"
    "</employees></dept>"
)
DOC2 = (
    "<dept><dname>OPERATIONS</dname><loc>BOSTON</loc><employees>"
    "<emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>"
    "</employees></dept>"
)


@pytest.fixture
def schema():
    return schema_from_dtd(DEPT_DTD)


@pytest.fixture
def storage(schema):
    database = Database()
    return ObjectRelationalStorage(
        database, schema, "xd", column_types={"sal": INT, "empno": INT}
    )


class TestShredding:
    def test_tables_created(self, storage):
        assert storage.db.has_table("xd_dept")
        assert storage.db.has_table("xd_emp")

    def test_root_columns(self, storage):
        names = storage.db.table("xd_dept").schema.column_names()
        assert names == ["$id", "dname", "loc", "$start", "$end", "$level"]

    def test_child_columns(self, storage):
        names = storage.db.table("xd_emp").schema.column_names()
        assert names == [
            "$id", "$parent", "$seq", "empno", "ename", "sal",
            "$start", "$end", "$level",
        ]

    def test_column_typed(self, storage):
        sal = storage.db.table("xd_emp").schema.column("sal")
        assert sal.type == INT

    def test_load_rows(self, storage):
        storage.load(parse_document(DOC1))
        storage.load(parse_document(DOC2))
        assert len(storage.db.table("xd_dept")) == 2
        assert len(storage.db.table("xd_emp")) == 3
        first_emp = storage.db.table("xd_emp").fetch(0)
        assert first_emp[3] == 7782  # empno coerced to INT

    def test_document_order_preserved(self, storage):
        storage.load(parse_document(DOC1))
        seqs = [row[2] for _, row in storage.db.table("xd_emp").scan()]
        assert seqs == [0, 1]

    def test_nonconforming_document_rejected(self, storage):
        with pytest.raises(DatabaseError):
            storage.load(parse_document("<dept><bogus/></dept>"))

    def test_column_of(self, storage, schema):
        sal_decl = schema.find_decl("sal")
        assert storage.column_of(sal_decl) == ("xd_emp", "sal")

    def test_value_index(self, storage):
        storage.load(parse_document(DOC1))
        index = storage.create_value_index("sal")
        assert index.lookup_op(">", 2000) != []

    def test_mixed_content_rejected(self):
        database = Database()
        mixed = schema_from_dtd("<!ELEMENT p (#PCDATA | b)*><!ELEMENT b (#PCDATA)>")
        with pytest.raises(SchemaError):
            ObjectRelationalStorage(database, mixed, "m")

    def test_recursive_schema_rejected(self):
        database = Database()
        recursive = schema_from_dtd(
            "<!ELEMENT t (leaf, t?)><!ELEMENT leaf (#PCDATA)>"
        )
        with pytest.raises(SchemaError):
            ObjectRelationalStorage(database, recursive, "r")


class TestMaterialize:
    def test_roundtrip(self, storage):
        doc_id = storage.load(parse_document(DOC1))
        rebuilt = storage.materialize(doc_id)
        assert serialize(rebuilt) == DOC1

    def test_roundtrip_second_doc(self, storage):
        storage.load(parse_document(DOC1))
        doc_id = storage.load(parse_document(DOC2))
        assert serialize(storage.materialize(doc_id)) == DOC2

    def test_document_ids(self, storage):
        ids = [
            storage.load(parse_document(DOC1)),
            storage.load(parse_document(DOC2)),
        ]
        assert storage.document_ids() == ids

    def test_missing_document(self, storage):
        with pytest.raises(DatabaseError):
            storage.materialize(99)

    def test_stats_show_full_scan(self, storage):
        from repro.rdb.plan import ExecutionStats

        storage.load(parse_document(DOC1))
        storage.load(parse_document(DOC2))
        stats = ExecutionStats()
        storage.materialize(1, stats=stats)
        # materialisation reads every emp row (that's the no-rewrite cost)
        assert stats.rows_scanned >= 3


class TestReconstructionView:
    def test_view_reproduces_documents(self, storage):
        storage.load(parse_document(DOC1))
        storage.load(parse_document(DOC2))
        rows, _ = storage.db.execute(storage.make_view_query())
        assert [serialize(row[0]) for row in rows] == [DOC1, DOC2]

    def test_view_structure_matches_schema(self, storage, schema):
        structure = infer_view_structure(storage.make_view_query())
        assert structure.schema.root.name == "dept"
        employees = structure.schema.root.particle_for("employees")
        assert employees.decl.particle_for("emp").occurs == "*"

    def test_view_subquery_correlates_on_parent(self, storage):
        storage.load(parse_document(DOC1))
        # the view's XMLAgg subquery correlates on the parent key; run
        # as emitted it executes once per parent row...
        rows, stats = storage.db.execute(storage.make_view_query(),
                                         level="off")
        assert stats.subquery_executions == 1
        # ...and the cost level decorrelates it into a hash left join
        rows, stats = storage.db.execute(storage.make_view_query())
        assert stats.subquery_executions == 0
        assert stats.hash_probes == 1


class TestOptionalChildren:
    DTD = "<!ELEMENT r (a?, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"

    def test_absent_optional_child(self):
        database = Database()
        storage = ObjectRelationalStorage(
            database, schema_from_dtd(self.DTD), "o"
        )
        doc_id = storage.load(parse_document("<r><b>x</b></r>"))
        assert serialize(storage.materialize(doc_id)) == "<r><b>x</b></r>"

    def test_present_optional_child(self):
        database = Database()
        storage = ObjectRelationalStorage(
            database, schema_from_dtd(self.DTD), "o"
        )
        doc_id = storage.load(parse_document("<r><a>1</a><b>x</b></r>"))
        assert serialize(storage.materialize(doc_id)) == "<r><a>1</a><b>x</b></r>"


class TestAttributes:
    DTD = (
        "<!ELEMENT r (item*)><!ELEMENT item (v)><!ELEMENT v (#PCDATA)>"
        "<!ATTLIST item id CDATA #REQUIRED>"
    )

    def test_attribute_roundtrip(self):
        database = Database()
        storage = ObjectRelationalStorage(
            database, schema_from_dtd(self.DTD), "a"
        )
        source = '<r><item id="k1"><v>1</v></item><item id="k2"><v>2</v></item></r>'
        doc_id = storage.load(parse_document(source))
        assert serialize(storage.materialize(doc_id)) == source


class TestClobStorage:
    def test_roundtrip(self):
        database = Database()
        storage = ClobStorage(database, "c")
        doc_id = storage.load(parse_document(DOC1))
        assert serialize(storage.materialize(doc_id)) == DOC1

    def test_multiple_documents(self):
        database = Database()
        storage = ClobStorage(database, "c")
        ids = storage.load_many(
            [parse_document(DOC1), parse_document(DOC2)]
        )
        assert storage.document_ids() == ids
        assert serialize(storage.materialize(ids[1])) == DOC2

    def test_missing_document(self):
        database = Database()
        storage = ClobStorage(database, "c")
        with pytest.raises(DatabaseError):
            storage.materialize(1)
