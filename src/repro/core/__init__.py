"""The paper's contribution: XSLT rewrite by partial evaluation.

Pipeline (paper Figure 1)::

    stylesheet + structural schema
        └─ partial evaluation  (repro.core.partial_eval)
             sample document × traced VM → template execution graph
        └─ XQuery generation   (repro.core.xquery_gen)
             inline except on cycles, §3.3–§3.7 optimisations
        └─ SQL/XML rewrite     (repro.core.sql_rewrite)
             XQuery merged into the view's construction → relational plan
        └─ front door          (repro.core.transform)
             xml_transform(..., options=TransformOptions(strategy=...))

Plus :mod:`repro.core.combined` for the paper's example 2 (XQuery over an
XSLT view rewritten end-to-end).
"""

from repro.core.partial_eval import PartialEvaluation, partially_evaluate
from repro.core.xquery_gen import generate_xquery
from repro.core.pipeline import RewriteOutcome, XsltRewriter
from repro.core.transform import (
    STRATEGY_FUNCTIONAL,
    STRATEGY_SQL,
    CompiledTransform,
    TransformResult,
    TransformStream,
    compile_transform,
    execute_compiled,
    execute_compiled_stream,
    transform_many,
    xml_transform,
)
from repro.core.combined import (
    compose_modules,
    rewrite_combined,
    rewrite_xquery_over_view,
    rewrite_xslt_over_xquery,
)
from repro.core.xmlquery import rewrite_extract, rewrite_xml_exists

__all__ = [
    "CompiledTransform",
    "PartialEvaluation",
    "RewriteOutcome",
    "STRATEGY_FUNCTIONAL",
    "STRATEGY_SQL",
    "TransformResult",
    "TransformStream",
    "XsltRewriter",
    "compile_transform",
    "compose_modules",
    "execute_compiled",
    "execute_compiled_stream",
    "generate_xquery",
    "partially_evaluate",
    "rewrite_combined",
    "rewrite_extract",
    "rewrite_xml_exists",
    "rewrite_xquery_over_view",
    "rewrite_xslt_over_xquery",
    "transform_many",
    "xml_transform",
]
