#!/usr/bin/env python
"""The paper's example 2: combined XSLT + XQuery optimisation.

An XSLT view wraps ``XMLTransform()`` (Table 9); a further ``XMLQuery()``
FLWOR selects table rows from its result (Table 10).  The combined rewrite
composes both rewrites into one optimal relational query — the paper's
Table 11 — which probes the B-tree index on emp.sal and never constructs
the intermediate HTML at all.

Run:  python examples/combined_query.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from quickstart import STYLESHEET, build_database, dept_emp_view

from repro.core import rewrite_combined
from repro.xmlmodel import serialize
from repro.xmlmodel.nodes import Node

USER_XQUERY = "for $tr in ./table/tr return $tr"  # Table 10


def row_markup(value):
    if isinstance(value, list):
        return "".join(serialize(item) for item in value)
    if isinstance(value, Node):
        return serialize(value)
    return "" if value is None else str(value)


def main():
    db = build_database()
    print("user XQuery over the XSLT view (Table 10):", USER_XQUERY)
    print()

    combined, xslt_outcome = rewrite_combined(
        STYLESHEET, dept_emp_view(), USER_XQUERY
    )

    print("--- intermediate: the XSLT view rewritten to SQL/XML ---")
    print(xslt_outcome.sql_text()[:200], "...")
    print()
    print("--- combined optimal query (paper Table 11) ---")
    print(combined.to_sql())
    print()

    rows, stats = db.execute(combined)
    print("--- results ---")
    for row in rows:
        print(row_markup(row[0]))
    print()
    print("execution statistics:", stats)
    print("note: index probes =", stats.index_probes,
          "(the sal predicate runs on the B-tree; the intermediate HTML of"
          " the XSLT view is never built)")
    print()

    # The cost-based planner (optimizer_level="cost", the default) costs
    # every access path against ANALYZE statistics; EXPLAIN shows the
    # estimates it decided on; "off" runs the plan as the rewrite emitted
    # it, and both levels return identical rows.
    print("--- cost-based plan (after ANALYZE) ---")
    print(db.sql("ANALYZE"))
    print(db.explain(combined))
    expected = [row_markup(row[0]) for row in rows]
    for level in ("off", "cost"):
        level_rows, _ = db.execute(combined, level=level)
        markup = [row_markup(row[0]) for row in level_rows]
        marker = "identical output" if markup == expected else "DIFFERENT!"
        print("optimizer_level=%-5s -> %d row(s), %s"
              % (level, len(level_rows), marker))


if __name__ == "__main__":
    main()
