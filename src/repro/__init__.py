"""repro — reproduction of "Efficient XSLT Processing in Relational
Database System" (Liu & Novoselsky, VLDB 2006).

The documented front door is :class:`repro.api.Engine` (re-exported
here) with :class:`repro.api.TransformOptions` as the one options
object::

    from repro import Database, Engine

    engine = Engine(db)
    result = engine.transform(storage, stylesheet)      # materialized
    for chunk in engine.transform_stream(storage, stylesheet):
        ...                                             # streaming

Beside it:

* :func:`repro.core.transform.xml_transform` — the ``XMLTransform()``
  equivalent (one-shot compile + execute);
* :class:`repro.core.pipeline.XsltRewriter` — the XSLT→XQuery partial
  evaluator;
* :class:`repro.serve.TransformService` — the concurrent serving tier;

with the substrates in :mod:`repro.xmlmodel`, :mod:`repro.xpath`,
:mod:`repro.xslt`, :mod:`repro.xquery`, :mod:`repro.schema` and
:mod:`repro.rdb`.
"""

__version__ = "1.0.0"

# Convenience re-exports of the paper's front door.
from repro.core import (  # noqa: E402
    TransformResult,
    XsltRewriter,
    rewrite_combined,
    rewrite_extract,
    rewrite_xml_exists,
    rewrite_xquery_over_view,
    rewrite_xslt_over_xquery,
    transform_many,
    xml_transform,
)
from repro.api import (  # noqa: E402
    Engine,
    OptimizerLevel,
    Strategy,
    TransformOptions,
)
from repro.obs.explain import ExplainReport  # noqa: E402
from repro.rdb import Database  # noqa: E402

__all__ = [
    "Database",
    "Engine",
    "ExplainReport",
    "OptimizerLevel",
    "Strategy",
    "TransformOptions",
    "TransformResult",
    "XsltRewriter",
    "rewrite_combined",
    "rewrite_extract",
    "rewrite_xml_exists",
    "rewrite_xquery_over_view",
    "rewrite_xslt_over_xquery",
    "transform_many",
    "xml_transform",
]
