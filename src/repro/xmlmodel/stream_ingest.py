"""The XML scanner: the library's only tokeniser, as a flat event stream.

:func:`stream_events` turns an XML source — a string, a file-like object, or
an iterable of string chunks — into parse events without ever materializing
a DOM:

    ``("start", local, attributes, name, attribute_names, namespaces, line)``
    ``("leaf", local, text, name, line)``
    ``("text", value)``
    ``("comment", value)``
    ``("pi", target, value)``
    ``("end", local)``

A ``start`` event serves both kinds of consumer.  The relational shredders
store local names, so ``local`` is the element's local name and
``attributes`` its ``[(local, value), ...]`` pairs with namespace
declarations (``xmlns``/``xmlns:*``) dropped.  The DOM builder
(:mod:`repro.xmlmodel.parser`) reads the rest: ``name`` is the expanded
:class:`~repro.xmlmodel.nodes.QName`, ``attribute_names`` the attributes'
QNames (parallel to ``attributes``), ``namespaces`` the element's own
``{prefix: uri}`` declarations or None, and ``line`` the 1-based line of the
start tag.  QNames are shared between events: treat them as immutable.

A ``leaf`` event is a whole element in one step: one without attributes
whose content is nothing or plain character data (no reference, CDATA,
comment or child element), as in ``<id>1</id>`` or ``<br/>``.  ``text`` is
its character data, None when it has none (or only white space that
``strip_whitespace`` drops); everything else about it is a ``start``
event's.  Any other element takes ``start``, its content's events, then
``end``.

:func:`document_events` replays an existing DOM as the same stream — its
``start`` and ``leaf`` events stop after ``attributes`` / ``text``, all a
shredder reads — so one shredder per storage serves ``load`` and
``load_stream`` alike.

Adjacent character data (including expanded entity references) is merged
into a single ``text`` event, with a ``<![CDATA[`` open acting as a node
boundary: text before the section is its own event, the section's content
(never entity-expanded, never whitespace-stripped) merges with what follows.

The scanner sweeps: one compiled alternation is driven contiguously over
the buffer, each match a run of character data and the token that ends it
(no separate search for ``<``).  A match is taken only once its closing
delimiter is buffered, so chunk boundaries never change the events: a run
of text to the end of the buffer, or an element it cuts short of a leaf,
waits for more input (that element is a ``start`` only at end of input).
Memory is bounded by the input chunk size plus the largest single token
(one tag, one run of character data): the consumed prefix of the buffer is
dropped as chunks arrive, and the buffer's high-water mark is exposed as
:attr:`StreamParser.peak_buffered_bytes` so ingest paths can report
``stats.peak_ingest_buffered_bytes``.
"""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError
from repro.xmlmodel.nodes import NodeKind, QName

DEFAULT_CHUNK_SIZE = 65536

#: Deepest element nesting any door accepts (libxml2's default).  The
#: scanner itself is iterative; the cap keeps the recursive consumers of a
#: parsed tree — ``serialize``, ``Document.stamp``, ``materialize`` —
#: inside the interpreter's default recursion limit.
MAX_ELEMENT_DEPTH = 256

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"

_COMPACT_THRESHOLD = 8192

_CDATA_END_IN_TEXT = "']]>' in character data"

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

# What may follow a name's first character, as the body of a class.
_NAME_CHARS = r"A-Za-z0-9_.\-"
_NAME = r"[A-Za-z_][%s]*" % _NAME_CHARS
_QNAME = r"%s(?::%s)?" % (_NAME, _NAME)
_VALUE = r"""(?:"[^"]*"|'[^']*')"""
_S = r"[ \t\r\n]*"

# A sweep match: a run of character data (maybe empty), then a token, a "<"
# that starts none (see StreamParser._unmatched) or the end of the buffer.
# The first token is an element, its whole name (the lookahead keeps a name
# from giving back characters, so <abc="1"> is no tag "ab" with an
# attribute "c"; Python 3.9's re has no atomic group to say it), then, the
# common case first (a tag with attributes fails it at its first name):
#   a leaf: no attributes, and empty or plain character data (no reference,
#     no markup) closed by its own end tag -- the back-reference checks it,
#     so a mismatched one is left to the start tag and its error;
#   a leaf cut short: the same up to the end of the buffer, in its text or
#     in what may become its end tag (see StreamParser._scan);
#   an attribute-less start tag;
#   a start tag with attributes.
# Groups: 1 the run, 2 the element name, 3 a leaf's text, 4 the tail of a
# cut leaf, 5 (empty) an attribute-less start tag, 6 the attributes and 7
# the "/" of a start tag with attributes, 8 an end tag's name, 9 a comment,
# 10 a CDATA section, 11 and 12 a processing instruction's target and data,
# 13 (empty) the end of the buffer.  Match.lastindex, the last group
# closed, gives the kind through _KINDS (1 alone: an unmatched "<").
_SWEEP = re.compile(
    r"([^<]*)(?:<(?:(%(qname)s)(?=[ \t\r\n/>])"
    r"(?:%(s)s(?:/>|>(?:([^<&]*)</\2%(s)s>"
    r"|[^<&]*(<|</[%(chars)s:]*%(s)s|)\Z|()))"
    r"|((?:%(s)s%(qname)s%(s)s=%(s)s%(value)s)+)%(s)s(/?)>)"
    r"|/(%(qname)s)%(s)s>"
    r"|!--(.*?)-->"
    r"|!\[CDATA\[(.*?)\]\]>"
    r"|\?(%(name)s)%(s)s(.*?)\?>)"
    r"|(?=<)|()\Z)"
    % {"name": _NAME, "qname": _QNAME, "value": _VALUE, "s": _S,
       "chars": _NAME_CHARS},
    re.DOTALL)
(_LEAF, _START, _END, _CDATA, _COMMENT, _PI, _UNMATCHED, _CUT,
 _MORE) = range(1, 10)
_KINDS = (None, _UNMATCHED, _LEAF, _LEAF, _CUT, _START, None, _START, _END,
          _COMMENT, _CDATA, None, _PI, _MORE)
# The XML 1.0 Char production: what a character reference may name.
_XML_CHAR = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_ATTRIBUTE = re.compile(
    r"""(%s)%s=%s(?:"([^"]*)"|'([^']*)')""" % (_QNAME, _S, _S))
# A tag whose closing ">" is buffered, whatever is wrong inside it.
_CLOSED_TAG = re.compile(r"""<[^"'>]*(?:%s[^"'>]*)*>""" % _VALUE)
_QNAME_AT = re.compile(_QNAME)
_VALUE_AT = re.compile(_VALUE)
_SPACE = re.compile(_S)
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
# (opener, closer, what) of the tokens delimited by fixed strings.
_DELIMITED = (
    ("<!--", "-->", "comment"),
    ("<![CDATA[", "]]>", "CDATA section"),
    ("<!DOCTYPE", None, "DOCTYPE declaration"),
    ("<?", "?>", "processing instruction"),
)


def stream_events(source, strip_whitespace=False, chunk_size=DEFAULT_CHUNK_SIZE):
    """Yield parse events from *source* (see module docstring)."""
    parser = StreamParser(
        source, strip_whitespace=strip_whitespace, chunk_size=chunk_size)
    return parser.events()


def document_events(document):
    """Replay a DOM as the event stream scanning its serialization would
    give, cut down to what the shredders read: a ``start`` event is
    ``("start", local, attributes)`` and a ``leaf`` event
    ``("leaf", local, text)`` only, and every text node is one event (the
    scanner merges adjacent ones).  Every attribute-less element with no
    children or one text child is a leaf, whatever its text: ``text`` is
    None only when there is no text child, so an empty text node a built
    DOM may hold keeps its row."""
    element_kind, text_kind = NodeKind.ELEMENT, NodeKind.TEXT
    comment_kind = NodeKind.COMMENT
    no_attributes = []  # shared: consumers only read it
    open_names = []
    walks = [iter(document._children)]
    while walks:
        for node in walks[-1]:
            kind = node.kind
            if kind == element_kind:
                local = node._name.local
                attributes = node.attributes
                children = node._children
                if not attributes:
                    if not children:
                        yield ("leaf", local, None)
                        continue
                    if len(children) == 1 and children[0].kind == text_kind:
                        yield ("leaf", local, children[0].value)
                        continue
                yield ("start", local,
                       [(attribute.name.local, attribute.value)
                        for attribute in attributes]
                       if attributes else no_attributes)
                if children:
                    open_names.append(local)
                    walks.append(iter(children))
                    break
                yield ("end", local)
            elif kind == text_kind:
                yield ("text", node.value)
            elif kind == comment_kind:
                yield ("comment", node.value)
            else:
                yield ("pi", node.target, node.value)
        else:
            walks.pop()
            if open_names:
                yield ("end", open_names.pop())


class StreamParser:
    """Incremental tokenizer over a chunked XML source."""

    def __init__(self, source, strip_whitespace=False,
                 chunk_size=DEFAULT_CHUNK_SIZE):
        self._chunks = _chunked(source, chunk_size)
        self.strip_whitespace = strip_whitespace
        self.internal_subset = None
        self.peak_buffered_bytes = 0
        self._buf = ""
        self._seen_doctype = False
        # Line tracking: newlines before buffer offset _counted are in
        # _line; _line_start is the offset of the current line's first
        # character (negative once that character has been dropped).
        self._line = 1
        self._counted = 0
        self._line_start = 0
        # Namespace scope.  The name caches map a lexical name to
        # (local, QName) under the bindings in _namespaces; an element that
        # declares namespaces saves all three on _outer_scopes with its
        # depth and starts fresh ones.
        self._namespaces = {"xml": XML_NAMESPACE}
        self._element_names = {}
        self._attribute_names = {}
        self._outer_scopes = []

    # -- buffer and location -----------------------------------------------------

    def _fill(self, pos):
        """Buffer one more chunk behind the unconsumed ``buf[pos:]``.
        Returns where that tail now starts, or -1 at end of input."""
        try:
            chunk = next(self._chunks)
        except StopIteration:
            return -1
        if pos > _COMPACT_THRESHOLD:
            self._line_at(pos)
            self._buf = self._buf[pos:]
            self._counted = 0
            self._line_start -= pos
            pos = 0
        self._buf += chunk
        if len(self._buf) > self.peak_buffered_bytes:
            self.peak_buffered_bytes = len(self._buf)
        return pos

    def _line_at(self, pos):
        """1-based line of buffer offset ``pos``.  Scanning only moves
        forward, so each newline is counted once."""
        newlines = self._buf.count("\n", self._counted, pos)
        if newlines:
            self._line += newlines
            self._line_start = self._buf.rfind("\n", self._counted, pos) + 1
        self._counted = pos
        return self._line

    def _fail(self, message, pos):
        line = self._line_at(pos)
        raise XmlSyntaxError(message, line=line,
                             column=pos - self._line_start + 1)

    # -- entity expansion ----------------------------------------------------

    def _expand(self, raw, pos):
        """``raw`` (buffered at ``pos``) with its references replaced."""
        parts = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp < 0:
                parts.append(raw[index:])
                return "".join(parts)
            parts.append(raw[index:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0:
                self._fail("unterminated entity reference", pos + amp)
            entity = raw[amp + 1:semi]
            try:
                if entity[:2] in ("#x", "#X"):
                    char = chr(int(entity[2:], 16))
                elif entity[:1] == "#":
                    char = chr(int(entity[1:]))
                else:
                    char = _PREDEFINED_ENTITIES[entity]
            except (ValueError, OverflowError):
                self._fail("bad character reference &%s;" % entity, pos + amp)
            except KeyError:
                self._fail("undefined entity &%s;" % entity, pos + amp)
            if entity[:1] == "#" and not _XML_CHAR.match(char):
                self._fail("reference to a non-XML character &%s;" % entity,
                           pos + amp)
            parts.append(char)
            index = semi + 1

    # -- names and namespaces ---------------------------------------------------

    def _resolve(self, lexical, pos, cache, raw=None):
        """``(local, QName)`` of a lexical name under the current bindings,
        remembered in ``cache`` (one of the two name caches).  Only an
        element takes the default namespace when it has no prefix.
        ``pos`` is where the name is buffered or, given the attribute
        part ``raw`` of a tag, where that is: the attribute's own place
        is looked for only to report its prefix undeclared."""
        prefix, _, local = lexical.rpartition(":")
        if prefix:
            uri = self._namespaces.get(prefix)
            if uri is None:
                if raw is not None:
                    pos += next(match.start()
                                for match in _ATTRIBUTE.finditer(raw)
                                if match.group(1) == lexical)
                self._fail("undeclared namespace prefix %r" % prefix, pos)
        elif cache is self._element_names:
            uri = self._namespaces.get("")
        else:
            uri = None
        entry = cache[lexical] = (local, QName(local, uri or None,
                                               prefix or None))
        return entry

    def _attributes(self, raw, pos, depth):
        """The attribute part ``raw`` of the start tag of an element at
        ``depth``, buffered at ``pos``:
        ``(attributes, attribute_names, declared)`` as in the ``start``
        event.  Namespace declarations open a new scope first, so they
        apply to the tag's own names."""
        if "<" in raw:
            self._fail("'<' in attribute value", pos + raw.index("<"))
        # (lexical name, "value", 'value'): "" for the quote not used
        found = _ATTRIBUTE.findall(raw)
        if len(found) > 1 and len({item[0] for item in found}) < len(found):
            seen = set()
            for match in _ATTRIBUTE.finditer(raw):
                if match.group(1) in seen:
                    self._fail("duplicate attribute %r" % match.group(1),
                               pos + match.start())
                seen.add(match.group(1))
        if "&" in raw:
            found = []
            for match in _ATTRIBUTE.finditer(raw):
                quote = 3 if match.group(2) is None else 2
                value = match.group(quote)
                if "&" in value:
                    value = self._expand(value, pos + match.start(quote))
                found.append((match.group(1), value, ""))
        declared = None
        if "xmlns" in raw:
            declared = {}
            kept = []
            for item in found:
                lexical = item[0]
                if lexical == "xmlns":
                    declared[""] = item[1] or item[2]
                elif lexical.startswith("xmlns:"):
                    declared[lexical[6:]] = item[1] or item[2]
                else:
                    kept.append(item)
            found = kept
        if declared:
            self._outer_scopes.append(
                (depth, self._namespaces, self._element_names,
                 self._attribute_names))
            self._namespaces = dict(self._namespaces)
            self._namespaces.update(declared)
            self._element_names = {}
            self._attribute_names = {}
        cache = self._attribute_names
        attributes = []
        names = []
        for lexical, double, single in found:
            entry = cache.get(lexical)
            if entry is None:
                entry = self._resolve(lexical, pos, cache, raw)
            attributes.append((entry[0], double or single))
            names.append(entry[1])
        if len(names) > 1 and ":" in raw and len(set(names)) < len(names):
            self._fail("duplicate attribute (two prefixes, one namespace)",
                       pos)
        return attributes, names, declared or None

    def _leave_scope(self):
        """Back to the bindings outside the innermost declaring element;
        returns the element-name cache that goes with them."""
        (_, self._namespaces, self._element_names,
         self._attribute_names) = self._outer_scopes.pop()
        return self._element_names

    # -- event stream --------------------------------------------------------

    def events(self):
        """The generator of parse events for the whole document."""
        return self._scan(fragment=False)

    def _scan(self, fragment):
        """The one tokenising loop: sweeps of ``_SWEEP``, each from where
        the last one stopped.  With ``fragment``, character data and any
        number of elements may sit at the top level."""
        strip = self.strip_whitespace
        kinds = _KINDS
        depth = 0
        open_tags = [None] * (MAX_ELEMENT_DEPTH + 1)  # lexical, at 1..depth
        text = None       # merged character data not yet emitted
        # Until the first element (or top-level text of a fragment): where
        # a DOCTYPE may appear and white space is not content.
        in_prolog = True
        names = self._element_names
        scopes = self._outer_scopes
        pos = self._skip_declaration()
        while True:
            buf = self._buf
            # Ahead of self._line/_counted, which _fill and _fail catch up;
            # counted on only past the next newline (-1: none buffered).
            line, counted = self._line, self._counted
            newline = buf.find("\n", counted)
            for token in iter(_SWEEP.scanner(buf, pos).match, None):
                kind = kinds[token.lastindex]
                run = token[1]
                if kind >= _CUT:
                    # chunk boundaries must not change the events: a cut
                    # leaf or a run to the end of the buffer is matched
                    # again with more input, if there is any
                    pos = self._fill(token.start())
                    if pos >= 0:
                        break
                if run:
                    if depth or (fragment
                                 and not (in_prolog and run.isspace())):
                        in_prolog = False
                        if "]]>" in run:
                            self._fail(_CDATA_END_IN_TEXT,
                                       token.start() + run.index("]]>"))
                        if "&" in run:
                            run = self._expand(run, token.start())
                        if not (strip and run.isspace()):
                            text = run if text is None else text + run
                    elif not run.isspace():
                        self._fail("text content outside the document "
                                   "element", token.start() + len(run)
                                   - len(run.lstrip()))
                if text and (kind < _UNMATCHED or kind == _CUT):
                    yield ("text", text)  # a token ends the text
                    text = None
                if kind <= _START or kind == _CUT:
                    # a leaf, a start tag, or a cut leaf at the end of input
                    if not depth:
                        if not (in_prolog or fragment):
                            self._fail("multiple top-level elements",
                                       token.end(1))
                        in_prolog = False
                    elif depth == MAX_ELEMENT_DEPTH:
                        self._fail("elements nested deeper than %d"
                                   % MAX_ELEMENT_DEPTH, token.end(1))
                    if newline >= 0 and token.end(1) > newline:
                        line += buf.count("\n", counted, token.end(1))
                        counted = token.end(1)
                        newline = buf.find("\n", counted)
                    lexical = token[2]
                    if kind == _LEAF:
                        try:
                            entry = names[lexical]
                        except KeyError:
                            entry = self._resolve(lexical, token.start(2),
                                                  names)
                        value = token[3]
                        if value and "]]>" in value:
                            self._fail(_CDATA_END_IN_TEXT,
                                       token.start(3) + value.index("]]>"))
                        if not value or (strip and value.isspace()):
                            value = None
                        yield ("leaf", entry[0], value, entry[1], line)
                        continue
                    if token[6]:
                        attributes, attribute_names, declared = (
                            self._attributes(token[6], token.start(6),
                                             depth + 1))
                        if declared:
                            names = self._element_names
                    else:
                        attributes, attribute_names, declared = [], [], None
                    try:
                        entry = names[lexical]
                    except KeyError:
                        entry = self._resolve(lexical, token.start(2), names)
                    yield ("start", entry[0], attributes, entry[1],
                           attribute_names, declared, line)
                    if token[7]:
                        yield ("end", entry[0])
                        if declared:
                            names = self._leave_scope()
                    else:
                        depth += 1
                        open_tags[depth] = lexical
                    if kind == _CUT:  # go on past the start tag only
                        pos = buf.index(">", token.start(2)) + 1
                        break
                elif kind == _END:
                    if not depth:
                        self._fail("unexpected end tag", token.end(1))
                    if token[8] != open_tags[depth]:
                        self._fail("mismatched end tag </%s>, expected </%s>"
                                   % (token[8], open_tags[depth]),
                                   token.end(1))
                    yield ("end", names[token[8]][0])
                    if scopes and scopes[-1][0] == depth:
                        names = self._leave_scope()
                    depth -= 1
                elif kind == _CDATA:
                    if not (depth or fragment):
                        self._fail("CDATA section outside the document "
                                   "element", token.end(1))
                    in_prolog = False
                    text = token[10]
                elif kind == _COMMENT:
                    comment = token[9]
                    if "--" in comment or comment[-1:] == "-":
                        at = comment.find("--")  # else the "-" before "-->"
                        self._fail("'--' in comment", token.start(9) + (
                            at if at >= 0 else len(comment) - 1))
                    yield ("comment", comment)
                elif kind == _PI:
                    yield ("pi", token[11], token[12])
                elif kind == _UNMATCHED:
                    pos = self._unmatched(token.end(), in_prolog)
                    break
                else:  # the end of the input
                    if depth:
                        self._fail("unterminated element <%s>"
                                   % open_tags[depth], token.end())
                    if text:
                        yield ("text", text)
                    if in_prolog and not fragment:
                        self._fail("no document element", token.end())
                    return

    def _skip_declaration(self):
        """Buffer the start of the input; returns the offset past leading
        white space and the XML declaration, if there is one."""
        while True:
            start = _SPACE.match(self._buf).end()
            if len(self._buf) - start < len("<?xml") and self._fill(0) >= 0:
                continue
            if not self._buf.startswith("<?xml", start):
                return start
            end = self._buf.find("?>", start)
            if end >= 0:
                return end + 2
            if self._fill(0) < 0:
                self._fail("unterminated XML declaration", start)

    def _unmatched(self, pos, in_prolog):
        """No token matches at the ``<`` buffered at ``pos``.  A DOCTYPE
        declaration is consumed and a token cut short by the end of the
        buffer gets one more chunk (either way the offset to resume at is
        returned); anything else is a located syntax error."""
        buf = self._buf
        tail = len(buf) - pos
        for opener, closer, what in _DELIMITED:
            if tail < len(opener) and opener.startswith(buf[pos:]):
                what = "markup"  # too little buffered to tell what
                break
            if not buf.startswith(opener, pos):
                continue
            if closer is None:
                if self._seen_doctype or not in_prolog:
                    self._fail("unexpected DOCTYPE declaration", pos)
                end = self._doctype(pos)
                if end >= 0:
                    self._seen_doctype = True
                    return end
            elif buf.find(closer, pos + len(opener)) >= 0:
                # closed yet unmatched: a processing instruction whose
                # target is not a name
                self._fail("expected a name", pos + len(opener))
            break
        else:
            if _CLOSED_TAG.match(buf, pos):
                self._malformed_tag(pos)
            what = "end tag" if buf.startswith("</", pos) else "start tag"
        more = self._fill(pos)
        if more < 0:
            self._fail("unterminated %s" % what, pos)
        return more

    def _doctype(self, pos):
        """The offset after the DOCTYPE declaration buffered at ``pos``
        (recording its internal subset), or -1 when it is cut short."""
        buf = self._buf
        depth = 0
        subset_start = None
        for mark in _DOCTYPE_MARK.finditer(buf, pos):
            char = mark.group()
            if char == "[":
                if depth == 0 and subset_start is None:
                    subset_start = mark.end()
                depth += 1
            elif char == "]":
                depth -= 1
                if depth == 0 and subset_start is not None:
                    self.internal_subset = buf[subset_start:mark.start()]
            elif depth == 0:
                return mark.end()
        return -1

    def _malformed_tag(self, pos):
        """Raise for the first thing wrong with the tag closed but
        unmatched at ``pos``."""
        buf = self._buf
        at = pos + (2 if buf.startswith("</", pos) else 1)
        name = _QNAME_AT.match(buf, at)
        if name is None:
            self._fail("expected a name", at)
        at = _SPACE.match(buf, name.end()).end()
        if buf.startswith("</", pos):
            self._fail("expected '>'", at)
        while True:
            name = _QNAME_AT.match(buf, at)
            if name is None:
                self._fail("expected a name", at)
            at = _SPACE.match(buf, name.end()).end()
            if buf[at] != "=":
                self._fail("expected '='", at)
            at = _SPACE.match(buf, at + 1).end()
            value = _VALUE_AT.match(buf, at)
            if value is None:
                self._fail("unterminated attribute value"
                           if buf[at] in "\"'"
                           else "expected quoted attribute value", at)
            at = _SPACE.match(buf, value.end()).end()


def _chunked(source, chunk_size):
    """Normalize *source* into an iterator of string chunks."""
    if isinstance(source, str):
        return iter(
            source[index:index + chunk_size]
            for index in range(0, len(source), chunk_size))
    if hasattr(source, "read"):
        def reader():
            while True:
                chunk = source.read(chunk_size)
                if not chunk:
                    return
                yield chunk
        return reader()
    return iter(source)
