"""Tests for the XMLExists()/extract() rewrite equivalents."""

import pytest

from repro.errors import RewriteError
from repro.core.xmlquery import rewrite_extract, rewrite_xml_exists
from repro.rdb.sqlxml import content_markup as markup
from repro.xmlmodel import parse_fragment, serialize
from repro.xpath import evaluate_xpath

from .paper_example import dept_emp_view_query, make_database


class TestXmlExists:
    def test_value_predicate_filters_rows(self):
        db = make_database()
        query = rewrite_xml_exists(
            dept_emp_view_query(), "/dept/employees/emp[sal > 3000]"
        )
        rows, _ = db.execute(query)
        assert len(rows) == 1
        assert "OPERATIONS" in markup(rows[0][0])

    def test_uses_value_index(self):
        db = make_database()
        db.create_index("emp", "sal")
        query = rewrite_xml_exists(
            dept_emp_view_query(), "/dept/employees/emp[sal > 3000]"
        )
        _, stats = db.execute(query)
        assert stats.index_probes == 2  # one EXISTS probe per dept row

    def test_structural_existence(self):
        db = make_database()
        query = rewrite_xml_exists(dept_emp_view_query(), "/dept/employees/emp")
        rows, _ = db.execute(query)
        assert len(rows) == 2  # every dept has employees

    def test_no_match_empty(self):
        db = make_database()
        query = rewrite_xml_exists(
            dept_emp_view_query(), "/dept/employees/emp[sal > 99999]"
        )
        rows, _ = db.execute(query)
        assert rows == []

    def test_matches_functional_xpath(self):
        db = make_database()
        view_query = dept_emp_view_query()
        path = "/dept/employees/emp[sal > 2000]"
        rewritten_rows, _ = db.execute(rewrite_xml_exists(view_query, path))
        all_rows, _ = db.execute(view_query)
        expected = [
            markup(row[0])
            for row in all_rows
            if evaluate_xpath(path, _as_document(row[0]))
        ]
        assert [markup(row[0]) for row in rewritten_rows] == expected

    def test_unknown_path_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_xml_exists(dept_emp_view_query(), "/dept/bogus")


def _as_document(value):
    return parse_fragment(markup(value))


class TestExtract:
    def test_extract_repeating(self):
        db = make_database()
        query = rewrite_extract(
            dept_emp_view_query(), "/dept/employees/emp/ename"
        )
        rows, _ = db.execute(query)
        assert markup(rows[0][0]) == (
            "<ename>CLARK</ename><ename>MILLER</ename>"
        )
        assert markup(rows[1][0]) == "<ename>SMITH</ename>"

    def test_extract_single(self):
        db = make_database()
        query = rewrite_extract(dept_emp_view_query(), "/dept/dname")
        rows, _ = db.execute(query)
        assert [markup(row[0]) for row in rows] == [
            "<dname>ACCOUNTING</dname>", "<dname>OPERATIONS</dname>",
        ]

    def test_extract_with_predicate(self):
        db = make_database()
        db.create_index("emp", "sal")
        query = rewrite_extract(
            dept_emp_view_query(), "/dept/employees/emp[sal > 2000]"
        )
        rows, stats = db.execute(query)
        assert "MILLER" not in markup(rows[0][0])
        # the decorrelated build probes the sal index once in total
        assert stats.index_probes == 1
        assert stats.index_entries == 2

    def test_extract_matches_functional(self):
        db = make_database()
        view_query = dept_emp_view_query()
        path = "/dept/employees/emp/sal"
        rewritten, _ = db.execute(rewrite_extract(view_query, path))
        all_rows, _ = db.execute(view_query)
        expected = [
            "".join(
                serialize(node)
                for node in evaluate_xpath(path, _as_document(row[0]))
            )
            for row in all_rows
        ]
        assert [markup(row[0]) for row in rewritten] == expected

    def test_prolog_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_extract(
                dept_emp_view_query(),
                "declare variable $x := 1;\n/dept",
            )
