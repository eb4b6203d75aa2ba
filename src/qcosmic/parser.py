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

The parser recovers at statement boundaries so a single run reports multiple
errors. A model is only returned when no error-severity diagnostic was
produced; in particular every reference in a returned model resolves.

Diagnostic codes: L1 lexical error, S1 syntax error, S2 duplicate
declaration, S3 unresolved reference, W1 empty system (warning).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Severity, Span, has_errors
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
_SIMPLE_DECLS = {"layer": Layer, "user": FunctionalUser, "storage": PersistentStorage}
_NATURES = {"classical": Nature.CLASSICAL, "quantum": Nature.QUANTUM}
_ENDPOINT_KINDS = {
    "user": EndpointKind.USER,
    "storage": EndpointKind.STORAGE,
    "process": EndpointKind.PROCESS,
    "layer": EndpointKind.LAYER,
}
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
                diagnostics.append(_lex_error("unterminated string literal", lines.span(start, length)))
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
            diagnostics.append(_lex_error(f"illegal character {match[_OTHER]!r}", lines.span(start, 1)))
    return tokens, diagnostics


def _lex_error(message: str, span: Span) -> Diagnostic:
    return Diagnostic(Severity.ERROR, "L1", message, span=span)


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

    def at_keyword(self, *words: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.KEYWORD and tok.text in words

    def at_punct(self, ch: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.PUNCT and tok.text == ch

    def error(self, message: str, span: Span | None = None, subject: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, "S1", message, subject=subject, span=span or self.current.span)
        )

    def duplicate(self, category: str, name: str, span: Span) -> None:
        self.diagnostics.append(
            Diagnostic(
                Severity.ERROR,
                "S2",
                f"duplicate {category} name {name!r}",
                subject=name,
                span=span,
            )
        )

    def _describe(self, token: Token) -> str:
        if token.kind is TokenKind.EOI:
            return "end of input"
        if token.kind is TokenKind.STRING:
            return f'string "{token.text}"'
        return f"{token.text!r}"

    def expect_keyword(self, word: str) -> Token | None:
        if self.at_keyword(word):
            return self.advance()
        self.error(f"expected {word!r}, found {self._describe(self.current)}")
        return None

    def expect_punct(self, ch: str) -> Token | None:
        if self.at_punct(ch):
            return self.advance()
        self.error(f"expected {ch!r}, found {self._describe(self.current)}")
        return None

    def expect_string(self, what: str) -> Token | None:
        if self.current.kind is TokenKind.STRING:
            return self.advance()
        self.error(f"expected {what} string, found {self._describe(self.current)}")
        return None

    def expect_nature(self) -> Nature | None:
        if self.at_keyword("classical", "quantum"):
            return _NATURES[self.advance().text]
        self.error(f"expected 'classical' or 'quantum', found {self._describe(self.current)}")
        return None

    def declare(self, category: str, name_tok: Token, decl) -> None:
        names = self.declared[category]
        if name_tok.text in names:
            self.duplicate(category, name_tok.text, name_tok.span)
        else:
            names[name_tok.text] = decl

    def record_reference(self, category: str, name_tok: Token) -> None:
        self.references.append((category, name_tok))

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Model | None:
        if self.expect_keyword("system") is None:
            return None
        name_tok = self.expect_string("system name")
        if name_tok is None:
            return None
        if self.expect_punct("{") is None:
            return None

        purpose, scope = self._parse_headers()
        while not self.at_punct("}") and self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in _SIMPLE_DECLS:
                self._parse_simple_decl(tok.text)
            elif self.at_keyword("datagroup"):
                self._parse_datagroup()
            elif self.at_keyword("process"):
                self._parse_process()
            elif self.at_keyword("purpose", "scope"):
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
            self.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "W1",
                    "empty system: no declarations",
                    subject=model.name,
                    span=name_tok.span,
                )
            )
        return model

    def _parse_headers(self) -> tuple[str, str]:
        purpose: str | None = None
        scope: str | None = None
        while self.at_keyword("purpose", "scope"):
            word = self.advance().text
            value_tok = self.expect_string(word)
            if value_tok is None:
                self._sync_top_level()
                continue
            if word == "purpose":
                if purpose is not None:
                    self.duplicate("purpose header", word, value_tok.span)
                purpose = value_tok.text
            else:
                if scope is not None:
                    self.duplicate("scope header", word, value_tok.span)
                scope = value_tok.text
        return purpose or "", scope or ""

    def _parse_simple_decl(self, category: str) -> None:
        self.advance()
        nature = self.expect_nature()
        name_tok = self.expect_string(f"{category} name") if nature is not None else None
        if nature is None or name_tok is None:
            self._sync_top_level()
            return
        decl = _SIMPLE_DECLS[category](name_tok.text, nature, span=name_tok.span)
        self.declare(category, name_tok, decl)

    def _parse_datagroup(self) -> None:
        self.advance()
        name_tok = self.expect_string("datagroup name")
        if name_tok is None or self.expect_punct("{") is None:
            self._sync_top_level()
            return
        attributes: dict[str, Attribute] = {}
        while not self.at_punct("}") and self.current.kind is not TokenKind.EOI:
            if not self.at_keyword("attr"):
                self.error(f"expected 'attr' or '}}', found {self._describe(self.current)}")
                if not self._sync_body({"attr"}):
                    return
                continue
            self.advance()
            attr_tok = self.current
            if attr_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                self.error(f"expected attribute name, found {self._describe(attr_tok)}")
                if not self._sync_body({"attr"}):
                    return
                continue
            self.advance()
            if self.expect_punct(":") is None:
                if not self._sync_body({"attr"}):
                    return
                continue
            nature = self.expect_nature()
            if nature is None:
                if not self._sync_body({"attr"}):
                    return
                continue
            if attr_tok.text in attributes:
                self.duplicate("attribute", attr_tok.text, attr_tok.span)
            else:
                attributes[attr_tok.text] = Attribute(attr_tok.text, nature)
        if self.at_punct("}"):
            self.advance()
        else:
            self.error("expected '}' to close the datagroup block")
        group = DataGroup(name_tok.text, tuple(attributes.values()), span=name_tok.span)
        self.declare("datagroup", name_tok, group)

    def _parse_process(self) -> None:
        self.advance()
        name_tok = self.expect_string("process name")
        if name_tok is None:
            self._sync_top_level()
            return
        if self.expect_keyword("in") is None or self.expect_keyword("layer") is None:
            self._sync_top_level()
            return
        layer_tok = self.expect_string("layer name")
        if layer_tok is None:
            self._sync_top_level()
            return
        self.record_reference("layer", layer_tok)

        uses: list[str] = []
        if self.at_keyword("uses"):
            self.advance()
            while True:
                used_tok = self.expect_string("process name")
                if used_tok is None:
                    self._sync_top_level()
                    return
                uses.append(used_tok.text)
                self.record_reference("process", used_tok)
                if self.at_punct(","):
                    self.advance()
                    continue
                break

        if self.expect_punct("{") is None:
            self._sync_top_level()
            return
        movements: list[DataMovement] = []
        while not self.at_punct("}") and self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in MOVEMENT_KEYWORDS:
                movement = self._parse_movement()
                if movement is not None:
                    movements.append(movement)
            elif tok.kind is TokenKind.KEYWORD and tok.text in _DECL_KEYWORDS:
                # a declaration keyword here means the closing brace is missing
                self.error("expected '}' to close the process block before this declaration")
                break
            else:
                self.error(f"expected a movement or '}}', found {self._describe(tok)}")
                if not self._sync_body(set(MOVEMENT_KEYWORDS)):
                    return
        if self.at_punct("}"):
            self.advance()

        process = FunctionalProcess(
            name_tok.text, layer_tok.text, tuple(movements), tuple(uses), span=name_tok.span
        )
        self.declare("process", name_tok, process)

    def _parse_movement(self) -> DataMovement | None:
        kind_tok = self.advance()
        kind = MOVEMENT_KEYWORDS[kind_tok.text]
        group_tok = self.expect_string("data group")
        if group_tok is None:
            return None
        if not self.at_keyword("from", "to"):
            self.error(f"expected 'from' or 'to', found {self._describe(self.current)}")
            return None
        self.advance()
        if not self.at_keyword(*_ENDPOINT_KINDS):
            self.error(
                f"expected 'user', 'storage', 'process', or 'layer', found {self._describe(self.current)}"
            )
            return None
        endpoint_kind = _ENDPOINT_KINDS[self.advance().text]
        endpoint_tok = self.expect_string("endpoint name")
        if endpoint_tok is None:
            return None
        conversion = Conversion.NONE
        if self.at_keyword("via"):
            self.advance()
            if not self.at_keyword("prepare", "measure"):
                self.error(f"expected 'prepare' or 'measure', found {self._describe(self.current)}")
                return None
            conversion = Conversion.PREPARE if self.advance().text == "prepare" else Conversion.MEASURE
        self.record_reference("datagroup", group_tok)
        self.record_reference(endpoint_kind.value, endpoint_tok)
        return DataMovement(
            kind=kind,
            data_group=group_tok.text,
            counterpart=Endpoint(endpoint_kind, endpoint_tok.text),
            conversion=conversion,
            span=kind_tok.span,
        )

    # -- recovery -----------------------------------------------------------

    def _sync_top_level(self) -> None:
        """Skip to the next top-level statement boundary."""
        while self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in _DECL_KEYWORDS | {"purpose", "scope"}:
                return
            if self.at_punct("}"):
                return
            self.advance()

    def _sync_body(self, starters: set[str]) -> bool:
        """Skip within a block body; False when the block was abandoned."""
        while self.current.kind is not TokenKind.EOI:
            tok = self.current
            if tok.kind is TokenKind.KEYWORD and tok.text in starters:
                return True
            if self.at_punct("}"):
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
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "S3",
                    f"unresolved {category} reference {name!r}",
                    subject=name,
                    span=name_tok.span,
                )
            )
