"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
library failures without also swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlSyntaxError(ReproError):
    """Raised by the XML parser on malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression cannot be parsed."""


class XPathTypeError(ReproError):
    """Raised when an XPath expression is applied to an incompatible value."""


class XPathEvaluationError(ReproError):
    """Raised when a well-formed XPath expression fails at run time."""


class XsltCompileError(ReproError):
    """Raised when a stylesheet is structurally invalid."""


class XsltRuntimeError(ReproError):
    """Raised when a compiled stylesheet fails during execution."""


class XQuerySyntaxError(ReproError):
    """Raised when an XQuery expression cannot be parsed."""


class XQueryTypeError(ReproError):
    """Raised on static or dynamic XQuery type violations."""


class XQueryEvaluationError(ReproError):
    """Raised when an XQuery expression fails at run time."""


class SchemaError(ReproError):
    """Raised for invalid structural-schema definitions or DTDs."""


class DatabaseError(ReproError):
    """Base class for relational-engine errors."""


class CatalogError(DatabaseError):
    """Raised for unknown/duplicate tables, columns, indexes or views."""


class PlanError(DatabaseError):
    """Raised when a logical query cannot be planned or executed."""


class DeadlineExceededError(ReproError):
    """Raised between batches when an execution outlives the absolute
    deadline its :class:`~repro.rdb.plan.ExecutionStats` carries."""


class RewriteError(ReproError):
    """Raised when the XSLT/XQuery rewrite pipeline cannot proceed.

    The front door treats this as "fall back to functional evaluation",
    mirroring the paper's behaviour for unsupported constructs.

    ``phase`` distinguishes *where* the rewrite failed once known:
    ``"compile"`` (structure inference, partial evaluation, XQuery
    generation, SQL/XML merge) vs ``"execute"`` (running the merged
    plan).  ``stage`` names the specific compile stage.  Both are filled
    in by the pipeline/front door as the error propagates; raisers deep
    in the stack may leave them None.
    """

    def __init__(self, message, phase=None, stage=None):
        super().__init__(message)
        self.phase = phase
        self.stage = stage
