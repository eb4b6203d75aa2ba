"""Tokenizer and parser for the ``.qcm`` model language.

The language is line-oriented only by convention; whitespace and newlines are
interchangeable. ``//`` starts a comment running to end of line. Strings are
double-quoted with backslash escapes. Grammar sketch::

    model      := "system" STRING "{" header* decl* "}"
    header     := ("purpose" | "scope") STRING
    decl       := layer | user | storage | datagroup | process
    layer      := "layer" nature STRING
    user       := "user" nature STRING
    storage    := "storage" nature STRING
    nature     := "classical" | "quantum"
    datagroup  := "datagroup" STRING "{" attr* "}"
    attr       := "attr" IDENT ":" nature
    process    := "process" STRING "in" "layer" STRING
                  ("uses" STRING ("," STRING)*)? "{" movement* "}"
    movement   := mkind STRING endpoint conv?
    mkind      := "entry" | "exit" | "read" | "write"
                | "qentry" | "qexit" | "qread" | "qwrite"
    endpoint   := ("from" | "to") ("user" | "storage" | "process" | "layer") STRING
    conv       := "via" ("prepare" | "measure")

The lexer is one compiled pattern read with ``finditer``, one match per
token, so lexing runs at the regex engine's speed rather than one Python
step per character. It fills four parallel lists with one entry per token:
its ``TokenKind``, its text (a string literal's decoded value), its offset
and its length; ``tokenize`` returns them, and the parser walks them by
position. Equal spellings are one string, and the parser keeps one
``Endpoint`` per distinct counterpart, so names take memory per distinct
spelling, not per use. A token's line and column are computed on demand from
the line-start offsets of the text, and the parser asks for them only for the
declarations and movements it stores and the diagnostics it reports.

The parser reads tokens through two helpers: ``at`` tests the current token
and ``expect`` takes it, so every S1 that expects a token reads
``expected <what>, found <token>``. A movement, the most frequent
statement, tests its tokens in place in the order ``expect`` would take
them and reports the same S1s. A failure reports its S1 and raises
``_Failed``, which a recovery point catches, so a single run reports
multiple errors. ``parse`` returns no model when ``system "name" {`` fails.
Every block body, the system block's as well as a data group's or a
process's, recovers through one routine, ``_parse_body``: a token that
starts no statement, attribute or movement is reported once, as
``expected <what>, found <token>``, and it or a failed item skips to the
next item, the block's ``}``, a declaration keyword or the end of input.
A declaration keyword also ends a data group or process, which is declared
with the items that parsed, so an error inside it never drops the
declaration. ``purpose`` and ``scope`` are headers until the first
declaration keyword and misplaced after it. A movement that lacks only its
``from`` or ``to`` reports that one S1 and reads on as if it were there.
A model is only returned when no error-severity diagnostic was produced; in
particular every reference in a returned model resolves. After its first
error, the parser still checks the syntax of every statement and collects
every reference, but builds no movements.

Diagnostic codes: L1 lexical error, S1 syntax error, S2 duplicate
declaration, S3 unresolved reference, W1 empty system (warning).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from collections import namedtuple

from .diagnostics import Diagnostic, Span, duplicate, error, has_errors, warning
from .model import (
    CATEGORIES,
    Attribute,
    Conversion,
    DataGroup,
    DataMovement,
    Endpoint,
    EndpointKind,
    FunctionalProcess,
    FunctionalUser,
    Layer,
    Model,
    MovementKind,
    Nature,
    PersistentStorage,
)

__all__ = [
    "MOVEMENT_KEYWORDS",
    "ParseResult",
    "TokenKind",
    "parse_model",
    "quote",
    "tokenize",
]


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    PUNCT = "punctuation"
    EOI = "end-of-input"


KEYWORD, IDENT, STRING, PUNCT, EOI = TokenKind


class _Lines:
    """The start offset of every line of one source text.

    ``\\r\\n`` and a lone ``\\r`` each end one line, like ``\\n``; a tab is
    one column and columns count code points. A text without ``\\r`` is
    searched for the literal ``\\n``, which the regex engine finds with a
    fast character scan; ``_NEWLINE`` has no literal prefix, so the engine
    tries it at every offset, several times slower on a large text.
    """

    __slots__ = ("file", "starts")

    def __init__(self, text: str, file: str):
        self.file = file
        newline = _NEWLINE if "\r" in text else _LINE_FEED
        self.starts = [0]
        self.starts += [match.end() for match in newline.finditer(text)]

    def span(self, offset: int, length: int) -> Span:
        line = bisect_right(self.starts, offset)
        return Span(self.file, line, offset - self.starts[line - 1] + 1, length)


MOVEMENT_KEYWORDS = {
    "entry": MovementKind.E,
    "exit": MovementKind.X,
    "read": MovementKind.R,
    "write": MovementKind.W,
    "qentry": MovementKind.QE,
    "qexit": MovementKind.QX,
    "qread": MovementKind.QR,
    "qwrite": MovementKind.QW,
}

_DECL_KEYWORDS = frozenset(CATEGORIES)
# the start of a statement of the system block
_TOP_LEVEL_STARTERS = _DECL_KEYWORDS | {"purpose", "scope"}
_SIMPLE_DECLS = {"layer": Layer, "user": FunctionalUser, "storage": PersistentStorage}
_NATURES = {nature._value_: nature for nature in Nature}
_ENDPOINT_KINDS = {kind._value_: kind for kind in EndpointKind}
_DIRECTIONS = frozenset({"from", "to"})
_CONVERSIONS = {c._value_: c for c in Conversion if c is not Conversion.NONE}
# every word that the tables above read, and the five that only the grammar spells
KEYWORDS = _TOP_LEVEL_STARTERS.union(
    MOVEMENT_KEYWORDS, _NATURES, _DIRECTIONS, _CONVERSIONS, ("system", "attr", "in", "uses", "via")
)
_KEYWORD_TEXTS = {word: word for word in KEYWORDS}  # the one string per keyword
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NEWLINE = re.compile(r"\r\n?|\n")
_LINE_FEED = re.compile("\n")  # the line ends of a text without \r
_WORD_RULE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # a keyword or identifier

# One match per token. Each match first skips blanks, newlines and comments,
# then takes exactly one alternative; the numbered groups select the branch.
# The skip and the string body are unrolled loops: a run of plain characters
# is one step of the engine, not one step per character.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\r\n]*[ \t\r\n]*)*"
    r"(?:"
    r"(" + _WORD_RULE.pattern + ")"  # 1 keyword or identifier
    # 2 string, 3 its undecoded body, 4 the closing quote; an unclosed string
    # stops before the line break and keeps a backslash that has no escapee
    r'|("([^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*\\?)(")?)'
    r"|([{}:,])"  # 5 punctuation
    r"|(\Z)"  # 6 end of input
    r"|(.)"  # 7 any other character is illegal
    r")",
    re.DOTALL,
)
_WORD, _STRING, _BODY, _CLOSE, _PUNCT, _END, _OTHER = range(1, 8)


def tokenize(text: str, file: str = "<input>"):
    """Lex ``text`` into parallel lists, one entry per token.

    Returns ``(kinds, texts, offsets, lengths, lines, diagnostics)``: each
    token's ``TokenKind``, text, offset and length, the line index of the
    text, whose ``span(offset, length)`` is a token's span, and the lexical
    diagnostics. The lists end with the end-of-input token. Lexing continues
    past errors so one run reports every offending character.
    """
    kinds: list[TokenKind] = []
    texts: list[str] = []
    offsets: list[int] = []
    lengths: list[int] = []
    diagnostics: list[Diagnostic] = []
    # A name recurs at every use, so each distinct spelling is one string:
    # ``names`` maps an identifier or undecoded string body to its value.
    names: dict[str, str] = {}
    lines = _Lines(text, file)
    add_kind, add_text, add_offset, add_length = (
        kinds.append, texts.append, offsets.append, lengths.append
    )
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        start = match.start(group)
        if group == _WORD:
            word = match[_WORD]
            value = _KEYWORD_TEXTS.get(word)
            if value is not None:
                add_kind(KEYWORD)
            else:
                add_kind(IDENT)
                value = names.setdefault(word, word)
            add_text(value)
            add_offset(start)
            add_length(len(word))
        elif group == _STRING:
            length = match.end() - start
            if match[_CLOSE] is None:
                span = lines.span(start, length)
                diagnostics.append(error("L1", "unterminated string literal", span=span))
                continue
            body = match[_BODY]
            value = names.get(body)
            if value is None:
                value = _ESCAPE.sub(_unescape, body) if "\\" in body else body
                names[body] = value
            add_kind(STRING)
            add_text(value)
            add_offset(start)
            add_length(length)
        elif group == _PUNCT:
            add_kind(PUNCT)
            add_text(match[_PUNCT])
            add_offset(start)
            add_length(1)
        elif group == _END:
            # Columns do not advance through a comment, so after a comment that
            # runs to the end of input the end-of-input token sits at its start.
            tail = max(match.start(), text.rfind("\n") + 1, text.rfind("\r") + 1)
            comment = text.find("//", tail)
            add_kind(EOI)
            add_text("")
            add_offset(start if comment < 0 else comment)
            add_length(0)
            # the end matches empty, so finditer would match it again after trailing blanks
            break
        else:
            message = f"illegal character {match[_OTHER]!r}"
            diagnostics.append(error("L1", message, span=lines.span(start, 1)))
    return kinds, texts, offsets, lengths, lines, diagnostics


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def quote(value: str) -> str:
    """``value`` as a string literal that ``tokenize`` reads back unchanged."""
    return '"' + (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    ) + '"'


class _Quoted(dict):
    """``quote(prefix + name)`` by name, each computed on first use.

    A renderer makes one per call, so a name that recurs is escaped once and
    nothing outlives the call.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str = "") -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, name: str) -> str:
        self[name] = quoted = quote(self.prefix + name)
        return quoted


# The outcome of a parse: the model, or None whenever any error-severity
# diagnostic was produced (warnings do not block), and the list of diagnostics.
ParseResult = namedtuple("ParseResult", "model diagnostics")


def parse_model(text: str, file: str = "<input>") -> ParseResult:
    """Parse ``.qcm`` source into a fully resolved model."""
    *tokens, diagnostics = tokenize(text, file)
    parser = _Parser(*tokens, failed=has_errors(diagnostics))
    model = parser.parse()
    diagnostics.extend(parser.diagnostics)
    if model is not None:
        _check_references(parser, diagnostics)
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(model, diagnostics)


class _Failed(Exception):
    """A production stopped at a syntax error that it has reported."""


class _Parser:
    """Recursive-descent parser with statement-level error recovery.

    A token is a position in the scanner's parallel lists; ``pos`` is the
    current one, and it never moves past the end-of-input token. ``failed``
    turns on at the first error, after which no model is returned, so
    movements are still checked but no longer built.
    """

    def __init__(
        self, kinds: list[TokenKind], texts: list[str], offsets: list[int],
        lengths: list[int], lines: _Lines, failed: bool = False,
    ):
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.lengths = lengths
        self.lines = lines
        self.pos = 0
        self.failed = failed
        # a declaration keyword has been read, so a later header is misplaced
        self.declaring = False
        self.diagnostics: list[Diagnostic] = []
        # category -> name -> declaration, in declaration order
        self.declared: dict[str, dict[str, object]] = {category: {} for category in CATEGORIES}
        # category -> position of the name of every reference, for resolution errors
        self.references: dict[str, list[int]] = {category: [] for category in CATEGORIES}
        # endpoint keyword -> name -> the one counterpart of that kind and name
        self.endpoints: dict[str, dict[str, Endpoint]] = {word: {} for word in _ENDPOINT_KINDS}

    # -- token helpers ------------------------------------------------------

    def span(self, pos: int) -> Span:
        return self.lines.span(self.offsets[pos], self.lengths[pos])

    def advance(self) -> int:
        pos = self.pos
        if self.kinds[pos] is not EOI:
            self.pos = pos + 1
        return pos

    def at(self, *words: str) -> bool:
        """The current token is one of ``words``, never a string that reads as one."""
        pos = self.pos
        return self.texts[pos] in words and self.kinds[pos] is not STRING

    def at_end(self) -> bool:
        """The current token is ``}`` or the end of input: a block's last token."""
        pos = self.pos
        kind = self.kinds[pos]
        return kind is EOI or (self.texts[pos] == "}" and kind is not STRING)

    def expect(self, what: str, *words: str) -> int:
        """Take one of ``words``, or a string literal when no words are given.

        Return its position. Otherwise report ``expected {what}, found
        {token}`` at the current token, take nothing and raise ``_Failed``.
        """
        pos = self.pos
        kind = self.kinds[pos]
        if (self.texts[pos] in words and kind is not STRING) if words else kind is STRING:
            self.pos = pos + 1  # never past the end of input, which matches nothing
            return pos
        self._expected(pos, what)

    def _expected(self, pos: int, what: str) -> None:
        """Stop at ``pos``, report that it is not ``what`` and raise ``_Failed``."""
        self.pos = pos
        self.error(f"expected {what}, found {self._describe(pos)}")
        raise _Failed

    def expect_nature(self) -> Nature:
        return _NATURES[self.texts[self.expect("'classical' or 'quantum'", *_NATURES)]]

    def error(self, message: str) -> None:
        self.failed = True
        self.diagnostics.append(error("S1", message, span=self.span(self.pos)))

    def duplicate(self, category: str, name: str, span: Span) -> None:
        self.failed = True
        self.diagnostics.append(duplicate(category, name, span))

    def _describe(self, pos: int) -> str:
        kind, text = self.kinds[pos], self.texts[pos]
        if kind is EOI:
            return "end of input"
        if kind is STRING:
            return f'string "{text}"'
        return f"{text!r}"

    def declare(self, category: str, decl) -> None:
        """Keep ``decl`` under its name, or report S2 at its span if the name is taken."""
        names = self.declared[category]
        if decl.name in names:
            self.duplicate(category, decl.name, decl.span)
        else:
            names[decl.name] = decl

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Model | None:
        try:
            self.expect("'system'", "system")
            name = self.expect("system name string")
            self.expect("'{'", "{")
        except _Failed:
            return None

        headers: dict[str, str] = {}
        if not self._parse_body(_TOP_LEVEL_STARTERS, self._parse_statement, headers, "a declaration"):
            self.error("expected '}' to close the system block")
        elif self.kinds[self.pos] is not EOI:
            self.error(f"unexpected content after system block: {self._describe(self.pos)}")

        model = Model(
            name=self.texts[name],
            purpose=headers.get("purpose", ""),
            scope=headers.get("scope", ""),
            **{CATEGORIES[category]: tuple(names.values())
               for category, names in self.declared.items()},
        )
        if model.is_empty():
            message = "empty system: no declarations"
            self.diagnostics.append(warning("W1", message, model.name, self.span(name)))
        return model

    def _parse_statement(self, headers: dict[str, str]) -> None:
        """Read one statement of the system block: a declaration or a header.

        ``purpose`` and ``scope`` are read into ``headers`` until the first
        declaration keyword; after it, each is reported and its string skipped.
        """
        word = self.texts[self.pos]
        if word in _DECL_KEYWORDS:
            self.declaring = True
            if word in _SIMPLE_DECLS:
                self._parse_simple_decl()
            elif word == "datagroup":
                self._parse_datagroup()
            else:
                self._parse_process()
        elif self.declaring:
            self.error(f"{word!r} must appear before declarations")
            self.advance()
            if self.kinds[self.pos] is STRING:
                self.advance()
        else:
            self.advance()
            value = self.expect(f"{word} string")
            if word in headers:
                self.duplicate(f"{word} header", word, self.span(value))
            headers[word] = self.texts[value]

    def _parse_simple_decl(self) -> None:
        category = self.texts[self.advance()]
        nature = self.expect_nature()
        name = self.expect(f"{category} name string")
        self.declare(category, _SIMPLE_DECLS[category](self.texts[name], nature, self.span(name)))

    def _parse_datagroup(self) -> None:
        self.advance()
        name = self.expect("datagroup name string")
        self.expect("'{'", "{")
        attributes: dict[str, Attribute] = {}
        self._parse_body(("attr",), self._parse_attr, attributes, "'attr' or '}'")
        group = DataGroup(self.texts[name], tuple(attributes.values()), self.span(name))
        self.declare("datagroup", group)

    def _parse_attr(self, attributes: dict[str, Attribute]) -> None:
        """Read ``attr NAME : nature`` into ``attributes``."""
        self.advance()
        attr = self.pos
        if self.kinds[attr] not in (IDENT, KEYWORD):
            self._expected(attr, "attribute name")
        self.advance()
        self.expect("':'", ":")
        nature = self.expect_nature()
        name = self.texts[attr]
        if name in attributes:
            self.duplicate("attribute", name, self.span(attr))
        else:
            attributes[name] = Attribute(name, nature)

    def _parse_process(self) -> None:
        self.advance()
        name, layer, uses = self._parse_process_header()
        movements: list[DataMovement] = []
        self._parse_body(MOVEMENT_KEYWORDS, self._parse_movement, movements, "a movement or '}'")
        process = FunctionalProcess(
            self.texts[name], self.texts[layer], tuple(movements), tuple(uses), self.span(name)
        )
        self.declare("process", process)

    def _parse_process_header(self) -> tuple[int, int, list[str]]:
        """``"name" in layer "L" (uses "P", ...)? {``.

        Returns the positions of the process and layer names, and the used names.
        """
        name = self.expect("process name string")
        self.expect("'in'", "in")
        self.expect("'layer'", "layer")
        layer = self.expect("layer name string")
        self.references["layer"].append(layer)
        uses: list[str] = []
        more = self.at("uses")
        while more:
            self.advance()
            used = self.expect("process name string")
            uses.append(self.texts[used])
            self.references["process"].append(used)
            more = self.at(",")
        self.expect("'{'", "{")
        return name, layer, uses

    def _parse_movement(self, movements: list[DataMovement]) -> None:
        """Read ``kind "group" (from|to) endpoint "name" (via conversion)?``.

        The tokens are tested in place, in the order ``expect`` would take them;
        a test passes only on a token other than the end of input, so the next
        position always exists. The movement is appended to ``movements``
        unless the parse has already failed; its references are kept either way.
        """
        kinds, texts, start = self.kinds, self.texts, self.pos
        group, direction, endpoint, name = start + 1, start + 2, start + 3, start + 4
        if kinds[group] is not STRING:
            self._expected(group, "data group string")
        if texts[direction] not in _DIRECTIONS or kinds[direction] is STRING:
            self.pos = direction
            self.error(f"expected 'from' or 'to', found {self._describe(direction)}")
            if texts[direction] not in _ENDPOINT_KINDS or kinds[direction] is STRING:
                raise _Failed
            # only the preposition is missing: read on as if it were there
            endpoint, name = direction, direction + 1
        if texts[endpoint] not in _ENDPOINT_KINDS or kinds[endpoint] is STRING:
            self._expected(endpoint, "'user', 'storage', 'process', or 'layer'")
        if kinds[name] is not STRING:
            self._expected(name, "endpoint name string")
        pos = name + 1
        conversion = Conversion.NONE
        if texts[pos] == "via" and kinds[pos] is not STRING:
            pos += 1
            if texts[pos] not in _CONVERSIONS or kinds[pos] is STRING:
                self._expected(pos, "'prepare' or 'measure'")
            conversion = _CONVERSIONS[texts[pos]]
            pos += 1
        self.pos = pos
        word, far_name = texts[endpoint], texts[name]
        self.references["datagroup"].append(group)
        self.references[word].append(name)  # the keyword names the category
        if self.failed:
            return
        shared = self.endpoints[word]
        counterpart = shared.get(far_name)
        if counterpart is None:
            counterpart = shared[far_name] = Endpoint(_ENDPOINT_KINDS[word], far_name)
        movements.append(DataMovement(
            MOVEMENT_KEYWORDS[texts[start]],
            texts[group],
            counterpart,
            conversion,
            self.span(start),
        ))

    # -- recovery -----------------------------------------------------------

    def _parse_body(self, starters, parse_item, items, what: str) -> bool:
        """Parse a block's items into ``items``, then take its ``}`` if it is there.

        A keyword in ``starters`` is parsed by ``parse_item(items)``. Any other
        token is reported as ``expected {what}, found {token}``, unless a failed
        item has just reported there. Either error skips to the next starter,
        ``}``, declaration keyword or end of input; a declaration keyword that
        is not a starter ends the block, whose caller declares it with the
        items that parsed. Returns whether the block's ``}`` was taken.
        """
        kinds, texts = self.kinds, self.texts
        while not self.at_end():
            pos = self.pos
            if kinds[pos] is KEYWORD and texts[pos] in starters:
                try:
                    parse_item(items)
                    continue
                except _Failed:
                    pass
            else:
                self.error(f"expected {what}, found {self._describe(pos)}")
            while not (self.at_end() or self.at(*starters) or self.at(*_DECL_KEYWORDS)):
                self.advance()
            if self.at(*_DECL_KEYWORDS) and not self.at(*starters):
                break
        if not self.at("}"):
            return False
        self.advance()
        return True


def _check_references(parser: _Parser, diagnostics: list[Diagnostic]) -> None:
    """Report S3 for every reference that names no declaration, in text order."""
    texts, declared = parser.texts, parser.declared
    unresolved = sorted(
        (pos, category)
        for category, positions in parser.references.items()
        for pos in positions
        if texts[pos] not in declared[category]
    )
    for pos, category in unresolved:
        name = texts[pos]
        message = f"unresolved {category} reference {name!r}"
        diagnostics.append(error("S3", message, name, parser.span(pos)))
