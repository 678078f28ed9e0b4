"""XPath 1.0 lexer, shared with the XQuery subset parser.

Implements the disambiguation rules of XPath 1.0 §3.7 directly in the
tokenizer: whether ``*`` is the multiply operator or a wildcard, and whether
``and``/``or``/``div``/``mod`` are operator names or node names, depends on
the preceding token.  Axis names followed by ``::`` and node-type names
followed by ``(`` are recognised here too.

The lexer is *incremental* (:class:`Lexer`): tokens are produced on demand
and the consumer can reposition the scan.  The XQuery parser relies on this
to switch into raw-character mode when it meets a direct element constructor
(``<emp>...</emp>``), where XML content rules apply rather than expression
rules, and to resume token mode inside ``{...}`` enclosed expressions.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError

# Token types
NAME = "name"            # QName (value is "local" or "prefix:local")
NUMBER = "number"
LITERAL = "literal"
VARIABLE = "variable"    # $name
OPERATOR = "operator"    # and or div mod = != < <= > >= + - * | , := ;
AXIS = "axis"            # axis name (value without '::')
NODETYPE = "nodetype"    # node text comment processing-instruction, '(' follows
LPAREN = "("
RPAREN = ")"
LBRACK = "["
RBRACK = "]"
LBRACE = "{"
RBRACE = "}"
SLASH = "/"
DSLASH = "//"
DOT = "."
DOTDOT = ".."
AT = "@"
STAR = "star"            # wildcard *
NCWILD = "ncwild"        # prefix:*
EOF = "eof"

NODE_TYPE_NAMES = frozenset(["node", "text", "comment", "processing-instruction"])
AXIS_NAMES = frozenset(
    [
        "ancestor", "ancestor-or-self", "attribute", "child", "descendant",
        "descendant-or-self", "following", "following-sibling", "namespace",
        "parent", "preceding", "preceding-sibling", "self",
    ]
)
_OPERATOR_NAMES = frozenset(["and", "or", "div", "mod"])

_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | set("0123456789.-")

# Token types after which an *operand* is expected next, so '*' is a
# wildcard and 'and' is an element name.
_OPERAND_EXPECTED_AFTER = frozenset(
    [None, OPERATOR, AXIS, LPAREN, LBRACK, LBRACE, SLASH, DSLASH, AT]
)


class Token:
    """A lexical token with its [pos, end) span in the source."""

    __slots__ = ("type", "value", "pos", "end")

    def __init__(self, type_, value, pos, end):
        self.type = type_
        self.value = value
        self.pos = pos
        self.end = end

    def __repr__(self):
        return "Token(%s, %r)" % (self.type, self.value)


class Lexer:
    """Incremental tokenizer with lookahead buffer and repositioning."""

    def __init__(self, source, xquery_mode=False):
        self.source = source
        self.xquery_mode = xquery_mode
        self._pos = 0
        self._prev_type = None
        self._buffer = []

    # -- consumer API -------------------------------------------------------

    def peek(self, offset=0):
        """Look ahead ``offset`` tokens without consuming."""
        while len(self._buffer) <= offset:
            self._buffer.append(self._scan())
        return self._buffer[offset]

    def advance(self):
        """Consume and return the next token."""
        token = self.peek()
        self._buffer.pop(0)
        return token

    def reset(self, pos, operand_expected=True):
        """Reposition the scan; drops any buffered lookahead."""
        self._buffer = []
        self._pos = pos
        self._prev_type = None if operand_expected else NAME

    def fail(self, message, at=None):
        at = self._pos if at is None else at
        raise XPathSyntaxError(
            "%s at offset %d in %r" % (message, at, _clip(self.source))
        )

    # -- scanning -----------------------------------------------------------

    def _scan(self):
        source = self.source
        length = len(source)
        pos = self._pos

        while True:
            while pos < length and source[pos] in " \t\r\n":
                pos += 1
            if self.xquery_mode and source.startswith("(:", pos):
                pos = self._skip_comment(pos)
                continue
            break

        if pos >= length:
            self._pos = pos
            return Token(EOF, None, pos, pos)

        char = source[pos]
        start = pos

        def emit(type_, value, end):
            self._pos = end
            self._prev_type = type_
            return Token(type_, value, start, end)

        if char in "\"'":
            end = source.find(char, pos + 1)
            if end < 0:
                self.fail("unterminated string literal", pos)
            return emit(LITERAL, source[pos + 1:end], end + 1)

        if char.isdigit() or (
            char == "." and pos + 1 < length and source[pos + 1].isdigit()
        ):
            end = pos + 1
            while end < length and (source[end].isdigit() or source[end] == "."):
                end += 1
            text = source[pos:end]
            if text.count(".") > 1:
                self.fail("malformed number %r" % text, pos)
            return emit(NUMBER, float(text), end)

        if char == "$":
            name, end = self._scan_qname(pos + 1)
            return emit(VARIABLE, name, end)

        two = source[pos:pos + 2]
        if two == "//":
            return emit(DSLASH, "//", pos + 2)
        if two in ("!=", "<=", ">="):
            return emit(OPERATOR, two, pos + 2)
        if self.xquery_mode and two == ":=":
            return emit(OPERATOR, ":=", pos + 2)
        if two == "..":
            return emit(DOTDOT, "..", pos + 2)

        simple = {
            ".": (DOT, "."), "/": (SLASH, "/"), "@": (AT, "@"),
            "(": (LPAREN, "("), ")": (RPAREN, ")"),
            "[": (LBRACK, "["), "]": (RBRACK, "]"),
        }
        if char in simple:
            type_, value = simple[char]
            return emit(type_, value, pos + 1)
        if self.xquery_mode and char == "{":
            return emit(LBRACE, "{", pos + 1)
        if self.xquery_mode and char == "}":
            return emit(RBRACE, "}", pos + 1)
        if char in ",+-=<>|" or (self.xquery_mode and char == ";"):
            return emit(OPERATOR, char, pos + 1)

        if char == "*":
            if self._operand_expected():
                return emit(STAR, "*", pos + 1)
            return emit(OPERATOR, "*", pos + 1)

        if char in _NAME_START:
            name, end = self._scan_qname(pos, allow_wild=True)
            if name.endswith(":*"):
                return emit(NCWILD, name[:-2], end)
            if not self._operand_expected() and name in _OPERATOR_NAMES:
                return emit(OPERATOR, name, end)
            after = _skip_space(source, end)
            if source.startswith("::", after):
                if name not in AXIS_NAMES:
                    self.fail("unknown axis %r" % name, pos)
                return emit(AXIS, name, after + 2)
            if after < length and source[after] == "(" and name in NODE_TYPE_NAMES:
                return emit(NODETYPE, name, end)
            return emit(NAME, name, end)

        self.fail("unexpected character %r" % char, pos)

    def _operand_expected(self):
        return self._prev_type in _OPERAND_EXPECTED_AFTER or (
            self._prev_type == OPERATOR
        )

    def _skip_comment(self, pos):
        depth = 1
        pos += 2
        source = self.source
        length = len(source)
        while pos < length and depth:
            if source.startswith("(:", pos):
                depth += 1
                pos += 2
            elif source.startswith(":)", pos):
                depth -= 1
                pos += 2
            else:
                pos += 1
        if depth:
            self.fail("unterminated XQuery comment", pos)
        return pos

    def _scan_qname(self, pos, allow_wild=False):
        source = self.source
        length = len(source)
        if pos >= length or source[pos] not in _NAME_START:
            self.fail("expected a name", pos)
        start = pos
        pos += 1
        while pos < length and source[pos] in _NAME_CHARS:
            pos += 1
        name = source[start:pos]
        if pos < length and source[pos] == ":" and not source.startswith("::", pos):
            after = pos + 1
            if allow_wild and after < length and source[after] == "*":
                return name + ":*", after + 1
            if after < length and source[after] in _NAME_START:
                end = after + 1
                while end < length and source[end] in _NAME_CHARS:
                    end += 1
                return name + ":" + source[after:end], end
        return name, pos


def tokenize(source, xquery_mode=False):
    """One-shot tokenization: the full token list ending with EOF."""
    lexer = Lexer(source, xquery_mode=xquery_mode)
    tokens = []
    while True:
        token = lexer.advance()
        tokens.append(token)
        if token.type == EOF:
            return tokens


def _skip_space(source, pos):
    while pos < len(source) and source[pos] in " \t\r\n":
        pos += 1
    return pos


def _clip(source, limit=80):
    return source if len(source) <= limit else source[:limit] + "..."
