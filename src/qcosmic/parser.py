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
step per character. A token records only its offset and length; its line
and column are computed on demand from the line-start offsets of the text,
and the parser asks for them only for what it stores or reports.

The parser reads tokens through two helpers: ``at`` tests the current token
and ``expect`` takes it, so every S1 that expects a token reads
``expected <what>, found <token>``. The parser recovers at statement
boundaries so a single run reports multiple errors, and each block has one
recovery point: a failed declaration or process header skips to the next
top-level statement, and a failed attribute, or a token that starts no
movement, skips to the next attribute or movement of its block. A model is
only returned when no error-severity diagnostic was produced; in particular
every reference in a returned model resolves.

Diagnostic codes: L1 lexical error, S1 syntax error, S2 duplicate
declaration, S3 unresolved reference, W1 empty system (warning).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Span, error, has_errors, warning
from .model import (
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
    "Token",
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


@dataclass(frozen=True, slots=True)
class Token:
    """One lexeme: ``length`` code points of source starting at ``offset``.

    ``text`` is the keyword, identifier or punctuation as written, or a
    string literal's decoded value. ``span`` is computed when asked for.
    """

    kind: TokenKind
    text: str
    offset: int
    length: int
    lines: _Lines = field(repr=False, compare=False)

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset, self.length)


class _Lines:
    """The start offset of every line of one source text.

    ``\\r\\n`` and a lone ``\\r`` each end one line, like ``\\n``; a tab is
    one column and columns count code points.
    """

    __slots__ = ("file", "starts")

    def __init__(self, text: str, file: str):
        self.file = file
        self.starts = [0]
        self.starts += [match.end() for match in _NEWLINE.finditer(text)]

    def span(self, offset: int, length: int) -> Span:
        line = bisect_right(self.starts, offset)
        return Span(self.file, line, offset - self.starts[line - 1] + 1, length)


KEYWORDS = frozenset(
    {
        "system", "purpose", "scope",
        "layer", "user", "storage", "datagroup", "attr", "process",
        "classical", "quantum",
        "in", "uses", "from", "to", "via", "prepare", "measure",
        "entry", "exit", "read", "write",
        "qentry", "qexit", "qread", "qwrite",
    }
)

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

_DECL_KEYWORDS = frozenset({"layer", "user", "storage", "datagroup", "process"})
# where recovery stops: the start of a top-level statement, or of an attribute
_TOP_LEVEL_STARTERS = _DECL_KEYWORDS | {"purpose", "scope"}
_ATTR_STARTERS = frozenset({"attr"})
_MOVEMENT_STARTERS = frozenset(MOVEMENT_KEYWORDS)
_SIMPLE_DECLS = {"layer": Layer, "user": FunctionalUser, "storage": PersistentStorage}
_NATURES = {"classical": Nature.CLASSICAL, "quantum": Nature.QUANTUM}
_ENDPOINT_KINDS = {
    "user": EndpointKind.USER,
    "storage": EndpointKind.STORAGE,
    "process": EndpointKind.PROCESS,
    "layer": EndpointKind.LAYER,
}
_CONVERSIONS = {"prepare": Conversion.PREPARE, "measure": Conversion.MEASURE}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NEWLINE = re.compile(r"\r\n?|\n")

# One match per token. Each match first skips blanks, newlines and comments,
# then takes exactly one alternative; the numbered groups select the branch.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\r\n]*)*"
    r"(?:"
    r"([{}:,])"  # 1 punctuation
    r"|([A-Za-z][A-Za-z0-9_]*)"  # 2 keyword or identifier
    # 3 string, 4 its undecoded body, 5 the closing quote; an unclosed string
    # stops before the line break and keeps a backslash that has no escapee
    r'|("((?:[^"\\\r\n]+|\\[^\r\n])*\\?)(")?)'
    r"|(\Z)"  # 6 end of input
    r"|(.)"  # 7 any other character is illegal
    r")",
    re.DOTALL,
)
_PUNCT, _WORD, _STRING, _BODY, _CLOSE, _END, _OTHER = range(1, 8)


def tokenize(text: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Lex source text into tokens plus any lexical diagnostics.

    Always finishes with an end-of-input token. Lexing continues past
    errors so one run reports every offending character.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    lines = _Lines(text, file)
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        start = match.start(group)
        if group == _WORD:
            word = match[_WORD]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            append(Token(kind, word, start, len(word), lines))
        elif group == _STRING:
            length = match.end() - start
            if match[_CLOSE] is None:
                span = lines.span(start, length)
                diagnostics.append(error("L1", "unterminated string literal", span=span))
                continue
            value = match[_BODY]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(Token(TokenKind.STRING, value, start, length, lines))
        elif group == _PUNCT:
            append(Token(TokenKind.PUNCT, match[_PUNCT], start, 1, lines))
        elif group == _END:
            # Columns do not advance through a comment, so after a comment that
            # runs to the end of input the end-of-input token sits at its start.
            tail = max(match.start(), text.rfind("\n") + 1, text.rfind("\r") + 1)
            comment = text.find("//", tail)
            append(Token(TokenKind.EOI, "", start if comment < 0 else comment, 0, lines))
            # the end matches empty, so finditer would match it again after trailing blanks
            break
        else:
            message = f"illegal character {match[_OTHER]!r}"
            diagnostics.append(error("L1", message, span=lines.span(start, 1)))
    return tokens, diagnostics


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


@dataclass
class ParseResult:
    """Outcome of a parse: a model when clean, diagnostics always.

    ``model`` is None whenever any error-severity diagnostic was produced;
    warnings do not block.
    """

    model: Model | None
    diagnostics: list[Diagnostic] = field(default_factory=list)


def parse_model(text: str, file: str = "<input>") -> ParseResult:
    """Parse ``.qcm`` source into a fully resolved model."""
    tokens, diagnostics = tokenize(text, file)
    parser = _Parser(tokens)
    model = parser.parse()
    diagnostics.extend(parser.diagnostics)
    if model is not None:
        _check_references(parser, diagnostics)
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(model, diagnostics)


class _Parser:
    """Recursive-descent parser with statement-level error recovery."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        # category -> name -> declaration, in declaration order
        self.declared: dict[str, dict[str, object]] = {category: {} for category in _DECL_KEYWORDS}
        # (category, name token) of every reference, for resolution errors
        self.references: list[tuple[str, Token]] = []

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOI:
            self.pos += 1
        return token

    def at(self, *words: str) -> bool:
        """The current token is one of ``words``, never a string that reads as one."""
        tok = self.tokens[self.pos]
        return tok.kind is not TokenKind.STRING and tok.text in words

    def expect(self, what: str, *words: str) -> Token | None:
        """Take one of ``words``, or a string literal when no words are given.

        Otherwise report ``expected {what}, found {token}`` at the current
        token and take nothing.
        """
        if (self.at(*words) if words else self.current.kind is TokenKind.STRING):
            return self.advance()
        self.error(f"expected {what}, found {self._describe(self.current)}")
        return None

    def expect_nature(self) -> Nature | None:
        tok = self.expect("'classical' or 'quantum'", *_NATURES)
        return tok and _NATURES[tok.text]

    def error(self, message: str) -> None:
        self.diagnostics.append(error("S1", message, span=self.current.span))

    def duplicate(self, category: str, name: str, span: Span) -> None:
        self.diagnostics.append(error("S2", f"duplicate {category} name {name!r}", name, span))

    def _describe(self, token: Token) -> str:
        if token.kind is TokenKind.EOI:
            return "end of input"
        if token.kind is TokenKind.STRING:
            return f'string "{token.text}"'
        return f"{token.text!r}"

    def declare(self, category: str, name_tok: Token, decl) -> None:
        names = self.declared[category]
        if name_tok.text in names:
            self.duplicate(category, name_tok.text, name_tok.span)
        else:
            names[name_tok.text] = decl

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Model | None:
        name_tok = self.expect("'system'", "system") and self.expect("system name string")
        if name_tok is None or self.expect("'{'", "{") is None:
            return None

        purpose, scope = self._parse_headers()
        while not self.at("}") and self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in _SIMPLE_DECLS:
                self._parse_simple_decl(tok.text)
            elif self.at("datagroup"):
                self._parse_datagroup()
            elif self.at("process"):
                self._parse_process()
            elif self.at("purpose", "scope"):
                self.error(f"{tok.text!r} must appear before declarations")
                self.advance()
                if self.current.kind is TokenKind.STRING:
                    self.advance()
            else:
                self.error(f"expected a declaration, found {self._describe(tok)}")
                self._sync_top_level()

        if self.current.kind is TokenKind.EOI:
            self.error("expected '}' to close the system block")
        else:
            self.advance()
            if self.current.kind is not TokenKind.EOI:
                self.error(f"unexpected content after system block: {self._describe(self.current)}")

        declared = {category: tuple(names.values()) for category, names in self.declared.items()}
        model = Model(
            name=name_tok.text,
            purpose=purpose,
            scope=scope,
            layers=declared["layer"],
            users=declared["user"],
            storages=declared["storage"],
            data_groups=declared["datagroup"],
            processes=declared["process"],
        )
        if model.is_empty():
            message = "empty system: no declarations"
            self.diagnostics.append(warning("W1", message, model.name, name_tok.span))
        return model

    def _parse_headers(self) -> tuple[str, str]:
        headers: dict[str, str] = {}
        while self.at("purpose", "scope"):
            word = self.advance().text
            value_tok = self.expect(f"{word} string")
            if value_tok is None:
                self._sync_top_level()
                continue
            if word in headers:
                self.duplicate(f"{word} header", word, value_tok.span)
            headers[word] = value_tok.text
        return headers.get("purpose", ""), headers.get("scope", "")

    def _parse_simple_decl(self, category: str) -> None:
        self.advance()
        nature = self.expect_nature()
        name_tok = nature and self.expect(f"{category} name string")
        if name_tok is None:
            self._sync_top_level()
            return
        decl = _SIMPLE_DECLS[category](name_tok.text, nature, span=name_tok.span)
        self.declare(category, name_tok, decl)

    def _parse_datagroup(self) -> None:
        self.advance()
        name_tok = self.expect("datagroup name string")
        if name_tok is None or self.expect("'{'", "{") is None:
            self._sync_top_level()
            return
        attributes: dict[str, Attribute] = {}
        while not self.at("}") and self.current.kind is not TokenKind.EOI:
            if not self._parse_attr(attributes) and not self._sync_body(_ATTR_STARTERS):
                return
        if self.at("}"):
            self.advance()
        else:
            self.error("expected '}' to close the datagroup block")
        group = DataGroup(name_tok.text, tuple(attributes.values()), span=name_tok.span)
        self.declare("datagroup", name_tok, group)

    def _parse_attr(self, attributes: dict[str, Attribute]) -> bool:
        """Read ``attr NAME : nature`` into ``attributes``; False after a syntax error."""
        if self.expect("'attr' or '}'", "attr") is None:
            return False
        attr_tok = self.current
        if attr_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            self.error(f"expected attribute name, found {self._describe(attr_tok)}")
            return False
        self.advance()
        nature = self.expect("':'", ":") and self.expect_nature()
        if nature is None:
            return False
        if attr_tok.text in attributes:
            self.duplicate("attribute", attr_tok.text, attr_tok.span)
        else:
            attributes[attr_tok.text] = Attribute(attr_tok.text, nature)
        return True

    def _parse_process(self) -> None:
        self.advance()
        header = self._parse_process_header()
        if header is None:
            self._sync_top_level()
            return
        name_tok, layer_tok, uses = header
        movements: list[DataMovement] = []
        failed_at = -1  # where the last failed movement stopped; it reported there
        while not self.at("}") and self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in MOVEMENT_KEYWORDS:
                movement = self._parse_movement()
                if movement is None:
                    failed_at = self.pos
                else:
                    movements.append(movement)
            elif tok.kind is TokenKind.KEYWORD and tok.text in _DECL_KEYWORDS:
                # a declaration keyword here means the closing brace is missing
                self.error("expected '}' to close the process block before this declaration")
                break
            else:
                if self.pos != failed_at:
                    self.error(f"expected a movement or '}}', found {self._describe(tok)}")
                if not self._sync_body(_MOVEMENT_STARTERS):
                    return
        if self.at("}"):
            self.advance()

        process = FunctionalProcess(
            name_tok.text, layer_tok.text, tuple(movements), tuple(uses), span=name_tok.span
        )
        self.declare("process", name_tok, process)

    def _parse_process_header(self) -> tuple[Token, Token, list[str]] | None:
        """``"name" in layer "L" (uses "P", ...)? {``; None after a syntax error."""
        name_tok = self.expect("process name string")
        in_layer = name_tok and self.expect("'in'", "in") and self.expect("'layer'", "layer")
        layer_tok = in_layer and self.expect("layer name string")
        if layer_tok is None:
            return None
        self.references.append(("layer", layer_tok))
        uses: list[str] = []
        more = self.at("uses")
        while more:
            self.advance()
            used_tok = self.expect("process name string")
            if used_tok is None:
                return None
            uses.append(used_tok.text)
            self.references.append(("process", used_tok))
            more = self.at(",")
        if self.expect("'{'", "{") is None:
            return None
        return name_tok, layer_tok, uses

    def _parse_movement(self) -> DataMovement | None:
        kind_tok = self.advance()
        group_tok = self.expect("data group string")
        direction_tok = group_tok and self.expect("'from' or 'to'", "from", "to")
        endpoint_tok = direction_tok and self.expect(
            "'user', 'storage', 'process', or 'layer'", *_ENDPOINT_KINDS
        )
        name_tok = endpoint_tok and self.expect("endpoint name string")
        if name_tok is None:
            return None
        conversion = Conversion.NONE
        if self.at("via"):
            self.advance()
            conversion_tok = self.expect("'prepare' or 'measure'", *_CONVERSIONS)
            if conversion_tok is None:
                return None
            conversion = _CONVERSIONS[conversion_tok.text]
        endpoint_kind = _ENDPOINT_KINDS[endpoint_tok.text]
        self.references.append(("datagroup", group_tok))
        self.references.append((endpoint_kind.value, name_tok))
        return DataMovement(
            kind=MOVEMENT_KEYWORDS[kind_tok.text],
            data_group=group_tok.text,
            counterpart=Endpoint(endpoint_kind, name_tok.text),
            conversion=conversion,
            span=kind_tok.span,
        )

    # -- recovery -----------------------------------------------------------

    def _sync_top_level(self) -> None:
        """Skip to the next top-level statement boundary."""
        while not self.at("}") and self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in _TOP_LEVEL_STARTERS:
                return
            self.advance()

    def _sync_body(self, starters: frozenset[str]) -> bool:
        """Skip within a block body; False when the block was abandoned."""
        while self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in starters:
                return True
            if self.at("}"):
                self.advance()
                return False
            if tok.kind is TokenKind.KEYWORD and tok.text in _DECL_KEYWORDS:
                return False
            self.advance()
        return False


def _check_references(parser: _Parser, diagnostics: list[Diagnostic]) -> None:
    """Report S3 for every reference that names no declaration."""
    for category, name_tok in parser.references:
        name = name_tok.text
        if name not in parser.declared[category]:
            message = f"unresolved {category} reference {name!r}"
            diagnostics.append(error("S3", message, name, name_tok.span))
