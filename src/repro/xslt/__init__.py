"""XSLT 1.0 processor: stylesheet compiler and virtual machine.

The paper's Oracle XSLTVM [13] compiles a stylesheet into bytecode and
executes it; partial evaluation (§4.3) instruments that VM with *trace
instructions*.  Here the stylesheet is compiled into an instruction tree
(:mod:`.instructions`, plain data) which is bound once, on first use, into
a program of closures (:mod:`.program`) — our bytecode — that every
:class:`~repro.xslt.vm.XsltVM` run of the stylesheet shares.  A VM given a
:class:`~repro.xslt.trace.TraceRecorder` binds the tracing variant, which
exposes exactly the events partial evaluation needs: template
instantiations per ``apply-templates``/``call-template`` site with their
context nodes.

Public API:

* :func:`~repro.xslt.processor.transform` — one-shot transformation;
* :class:`~repro.xslt.stylesheet.Stylesheet` /
  :func:`~repro.xslt.stylesheet.compile_stylesheet` — the compiled form;
* :class:`~repro.xslt.vm.XsltVM` — the execution engine.
"""

from repro.xslt.stylesheet import Stylesheet, Template, compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.xslt.trace import TraceRecorder
from repro.xslt.processor import transform, transform_to_string

__all__ = [
    "Stylesheet",
    "Template",
    "TraceRecorder",
    "XsltVM",
    "compile_stylesheet",
    "transform",
    "transform_to_string",
]
