#!/usr/bin/env python
"""Cross-language layering — the paper's Figure-1 story end to end.

Four language layers over one set of base tables, all collapsing into
single relational queries:

1. relational tables (SQL DDL/DML text);
2. a SQL/XML XMLType view (Table-3 style, SQL text);
3. an XQuery *redefining* the XML shape (static typing derives its
   structure — §3.2 third bullet);
4. an XSLT stylesheet over the XQuery result (partial evaluation +
   composition), plus XMLExists/extract pushdowns on the SQL/XML view.

Run:  python examples/layered_views.py
"""

from repro.core import (
    rewrite_extract,
    rewrite_xml_exists,
    rewrite_xslt_over_xquery,
)
from repro.rdb import Database
from repro.rdb.infer import infer_view_structure
from repro.rdb.sqlxml import content_markup as markup
from repro.xmlmodel import parse_fragment, serialize_children
from repro.xquery import parse_xquery
from repro.xquery.evaluator import evaluate_module, sequence_to_document


def main():
    db = Database()
    db.sql("CREATE TABLE team (tid INT, tname TEXT)")
    db.sql(
        "CREATE TABLE player (pid INT, pname TEXT, goals INT, tid INT)"
    )
    db.sql("INSERT INTO team VALUES (1, 'Rovers'), (2, 'United')")
    db.sql(
        "INSERT INTO player VALUES"
        " (10, 'Ana', 12, 1), (11, 'Ben', 3, 1),"
        " (12, 'Cora', 9, 2), (13, 'Dev', 15, 2)"
    )
    db.sql("CREATE INDEX ON player (goals)")

    # Layer 2: the XMLType view, in SQL text
    db.sql("""
        CREATE VIEW team_xml AS
        SELECT XMLElement("team",
                 XMLElement("tname", tname),
                 XMLElement("squad",
                   (SELECT XMLAgg(XMLElement("player",
                      XMLElement("pname", pname),
                      XMLElement("goals", goals)))
                    FROM player WHERE player.tid = team.tid))) AS content
        FROM team
    """)
    view_query = db.view("team_xml").query

    print("=== XMLExists pushdown (teams with a 10+ goal scorer) ===")
    exists_query = rewrite_xml_exists(
        view_query, "/team/squad/player[goals >= 10]"
    )
    rows, stats = db.execute(exists_query)
    for row in rows:
        print(" ", markup(row[0])[:60], "...")
    print("  stats:", stats)

    print()
    print("=== extract pushdown (all player names per team) ===")
    extract_query = rewrite_extract(view_query, "/team/squad/player/pname")
    rows, _ = db.execute(extract_query)
    for row in rows:
        print(" ", markup(row[0]))

    # Layer 3: an XQuery reshaping the view's XML
    reshape = parse_xquery(
        "declare variable $t := .;\n"
        "<scorers team=\"{fn:string($t/team/tname)}\">{"
        " for $p in $t/team/squad/player[goals > 5]"
        " return <s>{fn:string($p/pname)}</s>"
        "}</scorers>"
    )

    # Layer 4: XSLT over the XQuery result, composed by static typing
    stylesheet = (
        '<xsl:stylesheet version="1.0"'
        ' xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        '<xsl:template match="scorers"><h3><xsl:value-of select="@team"/>'
        ": <xsl:value-of select='count(s)'/> scorer(s)</h3>"
        '<ol><xsl:apply-templates select="s"/></ol></xsl:template>'
        '<xsl:template match="s"><li><xsl:value-of select="."/></li>'
        "</xsl:template></xsl:stylesheet>"
    )
    structure = infer_view_structure(view_query)
    composed, outcome = rewrite_xslt_over_xquery(
        stylesheet, reshape, structure.schema
    )
    print()
    print("=== composed XSLT-over-XQuery (static typing, %s) ==="
          % ("inline" if outcome.inline_mode else "non-inline"))
    # the view's rows are markup text: parse each into the tree the
    # composed query is evaluated over
    view_rows, _ = db.execute(view_query)
    for row in view_rows:
        result = evaluate_module(composed, parse_fragment(markup(row[0])))
        print(" ", serialize_children(sequence_to_document(result)))


if __name__ == "__main__":
    main()
