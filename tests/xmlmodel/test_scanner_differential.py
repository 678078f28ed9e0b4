"""The scanner against expat, on generated documents.

``repro.xmlmodel.stream_ingest`` is the library's only tokeniser, so one
differential suite stands in for per-door spot checks: hypothesis writes
well-formed documents that use attributes, namespaces (prefixed, default,
re-declared, undeclared-default), entity and character references, CDATA
sections, comments, processing instructions and mixed white space; the
events, each leaf spelled out as the start, text and end it stands for,
must equal what the standard library's expat reports, at every chunk size,
and the raw events (leaves included) must not depend on the chunk size.
expat is a test-only dependency.
"""

from xml.parsers import expat

from hypothesis import given, settings, strategies as st

from repro.xmlmodel import parse_document
from repro.xmlmodel.stream_ingest import document_events, stream_events

CHUNK_SIZES = (1, 7, 256, None)  # None: the whole text in one chunk

# -- the generator ----------------------------------------------------------------------

_LOCALS = st.sampled_from(["a", "b", "c1", "d-e", "f.g", "_h"])
_URIS = ["urn:one", "urn:two"]
_CHARS = st.text(
    alphabet="abc XYZ09 \n\t.,;:!?()[]{}'\"/=-_*#@%+é中", max_size=12)
_REFERENCES = st.sampled_from(
    ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
     "&#233;", "&#x4E2D;", "&#32;", "&#x20;"])


def _no(text, *forbidden):
    return not any(piece in text for piece in forbidden)


@st.composite
def _character_data(draw):
    """Text between tags: literal runs and references, no bare markup."""
    pieces = draw(st.lists(st.one_of(_CHARS, _REFERENCES), min_size=1,
                           max_size=4))
    text = "".join(pieces)
    return text if _no(text, "]]>") else "x"


@st.composite
def _attribute_value(draw):
    # expat normalises tabs and newlines inside attribute values; the
    # scanner (like the parser it replaced) keeps them, so leave them out
    text = draw(st.text(alphabet="abc XYZ09.,;:!?()[]{}/=-_*#@%+>é",
                        max_size=8))
    reference = draw(st.one_of(st.just(""), _REFERENCES))
    quote = draw(st.sampled_from("\"'"))
    body = (text + reference).replace(quote, "")
    return "%s%s%s" % (quote, body, quote)


@st.composite
def _misc(draw):
    """A comment, a processing instruction or a CDATA section."""
    kind = draw(st.sampled_from(["comment", "pi", "cdata"]))
    body = draw(st.text(alphabet="abc <>&;\n\t'\"?-]", max_size=10))
    if kind == "comment":
        body = body.replace("-", "")
        return "<!--%s-->" % body
    if kind == "pi":
        target = draw(st.sampled_from(["t", "go-to", "x.y"]))
        space = draw(st.sampled_from(["", " ", "\n "]))
        if not space:
            return "<?%s?>" % target
        return "<?%s%s%s?>" % (target, space, body.replace("?", ""))
    return "<![CDATA[%s]]>" % body.replace("]", "")


@st.composite
def _element(draw, prefixes, depth):
    """One element's markup; ``prefixes`` are the prefixes in scope."""
    declarations = []
    prefixes = set(prefixes)
    for prefix in draw(st.sets(st.sampled_from(["p", "q"]), max_size=2)):
        declarations.append('xmlns:%s="%s"'
                            % (prefix, draw(st.sampled_from(_URIS))))
        prefixes.add(prefix)
    if draw(st.integers(0, 4)) == 0:
        declarations.append('xmlns="%s"'
                            % draw(st.sampled_from(_URIS + [""])))
    scoped = sorted(prefixes)

    def qualified(local):
        prefix = draw(st.sampled_from([""] + scoped))
        return "%s:%s" % (prefix, local) if prefix else local

    name = qualified(draw(_LOCALS))
    # unique local names: two prefixes may share a namespace
    attributes = [
        "%s%s=%s%s" % (qualified(local), draw(st.sampled_from(["", " "])),
                       draw(st.sampled_from(["", "\n"])),
                       draw(_attribute_value()))
        for local in draw(st.sets(_LOCALS, max_size=3))]
    parts = declarations + attributes
    draw(st.randoms(use_true_random=False)).shuffle(parts)
    space = draw(st.sampled_from([" ", "\n", "  "]))
    tag = "<" + space.join([name] + parts) + draw(st.sampled_from(["", " "]))
    if draw(st.integers(0, 3)) == 0:
        return tag + "/>"
    content = []
    for _ in range(draw(st.integers(0, 4 if depth < 3 else 1))):
        choice = draw(st.integers(0, 5))
        if choice <= 1 and depth < 3:
            content.append(draw(_element(scoped, depth + 1)))
        elif choice <= 3:
            content.append(draw(_character_data()))
        else:
            content.append(draw(_misc()))
    return "%s>%s</%s%s>" % (tag, "".join(content), name,
                             draw(st.sampled_from(["", " ", "\n"])))


@st.composite
def documents(draw):
    prolog = draw(st.sampled_from(
        ["", "<?xml version='1.0'?>", '<?xml version="1.0"?>\n']))
    doctype = draw(st.sampled_from(
        ["", "<!DOCTYPE r>", "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"]))

    def outside():  # between the top-level pieces
        piece = draw(_misc())
        return "\n" if piece.startswith("<![") else piece + " "

    before = "".join(outside() for _ in range(draw(st.integers(0, 2))))
    after = "".join(outside() for _ in range(draw(st.integers(0, 2))))
    return (prolog + before + doctype + draw(_element((), 0)) + after)


# -- both sides, in one normal form -----------------------------------------------------


def expat_events(text):
    """expat's view: expanded names as (uri, local), adjacent character
    data merged, a CDATA open as a text boundary."""
    out = []
    pending = []

    def flush():
        if pending:
            out.append(("text", "".join(pending)))
            del pending[:]

    def expanded(name):
        uri, _, local = name.rpartition(" ")
        return (uri or None, local)

    def start(name, attributes):
        flush()
        pairs = zip(attributes[::2], attributes[1::2])
        out.append(("start", expanded(name),
                    [(expanded(key), value) for key, value in pairs]))

    def end(name):
        flush()
        out.append(("end", expanded(name)[1]))

    def comment(data):
        flush()
        out.append(("comment", data))

    def instruction(target, data):
        flush()
        out.append(("pi", target, data))

    parser = expat.ParserCreate(namespace_separator=" ")
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = instruction
    parser.StartCdataSectionHandler = flush
    parser.Parse(text, True)
    flush()
    return out


def expand_leaves(events):
    """The events with each ``leaf`` spelled out as the ``start``, ``text``
    (when it has text) and ``end`` events it stands for; a scanner leaf
    keeps its QName and line, a replayed one its three fields."""
    for event in events:
        if event[0] != "leaf":
            yield event
            continue
        _, local, text, *located = event
        if located:
            name, line = located
            yield ("start", local, [], name, [], None, line)
        else:
            yield ("start", local, [])
        if text is not None:
            yield ("text", text)
        yield ("end", local)


def normal(events):
    out = []
    for event in expand_leaves(events):
        if event[0] == "start":
            _, local, attributes, name, attribute_names, _, _ = event
            assert name.local == local
            assert [pair[0] for pair in attributes] == [
                qname.local for qname in attribute_names]
            out.append(("start", (name.uri, local),
                        [((qname.uri, qname.local), value)
                         for qname, (_, value) in zip(attribute_names,
                                                      attributes)]))
        else:
            out.append(event)
    return out


def scanned(text, chunk_size):
    return list(stream_events(text, chunk_size=chunk_size or len(text)))


class TestScannerAgainstExpat:
    @given(text=documents())
    @settings(max_examples=300, deadline=None)
    def test_events_equal_expat_at_every_chunk_size(self, text):
        expected = expat_events(text)
        for chunk_size in CHUNK_SIZES:
            assert normal(scanned(text, chunk_size)) == expected, chunk_size

    @given(text=documents())
    @settings(max_examples=300, deadline=None)
    def test_raw_events_do_not_depend_on_the_chunk_size(self, text):
        # leaves included: an element cut anywhere is still one leaf
        whole = scanned(text, None)
        for chunk_size in CHUNK_SIZES[:-1]:
            assert scanned(text, chunk_size) == whole, chunk_size

    @given(text=documents())
    @settings(max_examples=100, deadline=None)
    def test_lines_and_declarations_survive_chunking(self, text):
        # the fields expat has no word for: identical however it is cut
        whole = list(expand_leaves(scanned(text, None)))
        for chunk_size in CHUNK_SIZES[:-1]:
            assert [event[5:] for event in expand_leaves(
                        scanned(text, chunk_size))
                    if event[0] == "start"] == [
                event[5:] for event in whole if event[0] == "start"]
        lines = [event[6] for event in whole if event[0] == "start"]
        assert lines == sorted(lines)
        assert lines[0] == text[:text.index(
            "<" + _lexical(whole))].count("\n") + 1

    @given(text=documents())
    @settings(max_examples=100, deadline=None)
    def test_replayed_dom_is_the_same_stream(self, text):
        # document_events(parse_document(t)) == the scan of t cut down to
        # what the shredders read: a start event stops after its attributes.
        # Compared with leaves spelled out: <a>x&amp;y</a> scans as three
        # events but replays as one leaf.
        # The fields no longer replayed stay covered on the scanner, which
        # is where the DOM builder gets them: QNames and attribute names by
        # test_events_equal_expat_at_every_chunk_size (through normal()),
        # namespace declarations and lines by
        # test_lines_and_declarations_survive_chunking above.
        replayed = list(expand_leaves(document_events(parse_document(text))))
        assert replayed == [event[:3] for event in
                            expand_leaves(scanned(text, None))]


def _lexical(events):
    name = next(event[3] for event in events if event[0] == "start")
    return "%s:%s" % (name.prefix, name.local) if name.prefix else name.local
