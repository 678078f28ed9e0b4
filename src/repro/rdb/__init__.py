"""An in-process relational engine with SQL/XML publishing functions.

This is the substrate the paper runs on: tables with typed columns, B-tree
indexes, an iterator-based executor (scan, index scan, filter, join,
aggregate, sort), correlated scalar subqueries, the SQL/XML generation
functions (``XMLElement``, ``XMLAttributes``, ``XMLForest``, ``XMLAgg``,
``XMLConcat``), relational and XMLType views, a cost-based planner that
turns indexable predicates into B-tree probes, and the two XMLType storage
models the evaluation uses (object-relational shredding and CLOB).

Execution is fully observable: every query run returns
:class:`~repro.rdb.plan.ExecutionStats` counting heap rows read, index
probes and output rows — the quantities behind the paper's Figure 2/3
claims.
"""

from repro.rdb.types import Column, FLOAT, INT, TEXT, XML, TableSchema
from repro.rdb.database import Database
from repro.rdb.plan import (
    Aggregate,
    ExecutionStats,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PlanProfiler,
    Query,
    Scan,
    Sort,
    TopN,
    explain,
)
from repro.rdb.planner import DEFAULT_LEVEL, LEVELS
from repro.rdb.stats import StatisticsCatalog, TableStats
from repro.rdb import expressions as expr
from repro.rdb import sqlxml

__all__ = [
    "Aggregate",
    "Column",
    "DEFAULT_LEVEL",
    "Database",
    "ExecutionStats",
    "FLOAT",
    "Filter",
    "HashJoin",
    "INT",
    "IndexScan",
    "LEVELS",
    "Limit",
    "NestedLoopJoin",
    "PlanProfiler",
    "Query",
    "Scan",
    "Sort",
    "StatisticsCatalog",
    "TEXT",
    "TableSchema",
    "TableStats",
    "TopN",
    "XML",
    "expr",
    "explain",
    "sqlxml",
]
