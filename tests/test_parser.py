"""Lexing, parsing, diagnostics, and error recovery."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcosmic import (
    Conversion,
    DataMovement,
    Endpoint,
    EndpointKind,
    Model,
    MovementKind,
    Nature,
    Severity,
    Span,
    TokenKind,
    format_model,
    parse_model,
    tokenize,
)
from qcosmic import parser
from qcosmic.parser import quote
from conftest import FIXTURES, bench_corpus, load_fixture
from gen import hostile_texts


def spans(text: str) -> list[Span]:
    """Each token's span, from ``tokenize``'s offsets and lengths."""
    _, _, offsets, lengths, lines, _ = tokenize(text)
    return list(map(lines.span, offsets, lengths))


def lexemes(text: str) -> list[tuple[str, str, tuple[int, int, int]]]:
    kinds, texts = tokenize(text)[:2]
    return [
        (kind.value, word, (span.line, span.column, span.length))
        for kind, word, span in zip(kinds, texts, spans(text), strict=True)
    ]


def l1_spans(text: str) -> list[tuple[str, tuple[int, int, int]]]:
    diagnostics = tokenize(text)[-1]
    assert all(d.code == "L1" for d in diagnostics)
    return [(d.message, (d.span.line, d.span.column, d.span.length)) for d in diagnostics]


class TestTokenize:
    def test_keywords_and_string(self):
        kinds, texts, *_, diagnostics = tokenize('layer classical "Frontend"')
        assert not diagnostics
        assert list(zip(kinds, texts)) == [
            (TokenKind.KEYWORD, "layer"),
            (TokenKind.KEYWORD, "classical"),
            (TokenKind.STRING, "Frontend"),
            (TokenKind.EOI, ""),
        ]

    def test_empty_input(self):
        kinds, *_, diagnostics = tokenize("")
        assert not diagnostics
        assert kinds == [TokenKind.EOI]

    def test_unterminated_string(self):
        diagnostics = tokenize('"unterminated')[-1]
        assert len(diagnostics) == 1
        d = diagnostics[0]
        assert d.code == "L1" and d.severity is Severity.ERROR
        assert d.span.line == 1 and d.span.column == 1

    def test_string_broken_by_newline(self):
        diagnostics = tokenize('layer classical "half\nway"')[-1]
        assert any(d.code == "L1" for d in diagnostics)

    def test_illegal_character(self):
        diagnostics = tokenize("layer @ classical")[-1]
        assert len(diagnostics) == 1
        assert "@" in diagnostics[0].message
        assert diagnostics[0].span.column == 7

    def test_lexing_continues_past_errors(self):
        diagnostics = tokenize("@ # $")[-1]
        assert len(diagnostics) == 3

    def test_comments_and_whitespace_are_skipped(self):
        texts = tokenize("// a comment\nlayer // trailing\nquantum")[1]
        assert texts[:-1] == ["layer", "quantum"]

    def test_crlf_line_counting(self):
        span = spans('layer\r\nquantum "Q"')[1]
        assert span.line == 2
        assert span.column == 1

    def test_string_escapes(self):
        texts = tokenize(r'"a\"b\\c\nd\te"')[1]
        assert texts[0] == 'a"b\\c\nd\te'

    def test_spans_are_one_based_with_lengths(self):
        first, second = spans('  datagroup "ab"')[:2]
        assert first.column == 3
        assert first.length == len("datagroup")
        assert second.column == 13
        assert second.length == 4  # includes the quotes

    def test_identifier_token(self):
        kinds, texts = tokenize("attr qubit_budget: classical")[:2]
        assert kinds[1] is TokenKind.IDENT
        assert texts[1] == "qubit_budget"

    def test_tokens_tile_without_overlap(self):
        text = 'layer quantum "Q" { attr a: b } // tail'
        located = spans(text)
        for before, after in zip(located, located[1:]):
            assert before.column + before.length <= after.column
        assert tokenize(text)[0][-1] is TokenKind.EOI

    def test_offset_and_length_locate_the_source(self):
        text = 'x\r\n  "a\\"b" {'
        _, _, offsets, lengths, _, _ = tokenize(text)
        assert list(zip(offsets, lengths)) == [(0, 1), (5, 6), (12, 1), (13, 0)]
        assert text[5:11] == '"a\\"b"'

    def test_end_of_input_after_trailing_comment_keeps_comment_column(self):
        # the column never advanced through a comment, and S1 prints this location
        assert lexemes("layer // tail")[-1] == ("end-of-input", "", (1, 7, 0))
        result = parse_model('system "S" { // open', file="c.qcm")
        assert result.diagnostics[0].render() == (
            "error[S1]: expected '}' to close the system block (c.qcm:1:14)"
        )

    def test_unterminated_string_keeps_trailing_backslash(self):
        assert lexemes('"abc\\') == [("end-of-input", "", (1, 6, 0))]
        assert l1_spans('"abc\\') == [("unterminated string literal", (1, 1, 5))]
        assert lexemes('"abc\\\nlayer')[0] == ("keyword", "layer", (2, 1, 5))
        assert l1_spans('"abc\\\nlayer') == [("unterminated string literal", (1, 1, 5))]

    def test_unknown_escape_keeps_the_character(self):
        assert lexemes('"a\\qb"')[0] == ("string", "aqb", (1, 1, 6))

    def test_lone_slash_is_illegal(self):
        assert lexemes("/") == [("end-of-input", "", (1, 2, 0))]
        assert l1_spans("/") == [("illegal character '/'", (1, 1, 1))]

    @pytest.mark.parametrize(
        "text,line", [("a\rb", 2), ("a\r\nb", 2), ("a\r\rb", 3), ("a\n\rb", 3)]
    )
    def test_cr_and_crlf_each_end_one_line(self, text, line):
        assert lexemes(text)[1] == ("identifier", "b", (line, 1, 1))

    def test_columns_count_code_points(self):
        assert lexemes('"é€" layer')[:2] == [
            ("string", "é€", (1, 1, 4)),
            ("keyword", "layer", (1, 6, 5)),
        ]
        assert lexemes("\t\tx")[0] == ("identifier", "x", (1, 3, 1))

    def test_trailing_whitespace_gives_one_end_token(self):
        assert lexemes("layer  \t\n  ") == [
            ("keyword", "layer", (1, 1, 5)),
            ("end-of-input", "", (2, 3, 0)),
        ]

    @given(st.text())
    def test_quote_reads_back_as_one_string(self, value):
        kinds, texts, *_, diagnostics = tokenize(quote(value))
        assert not diagnostics
        assert list(zip(kinds, texts)) == [
            (TokenKind.STRING, value),
            (TokenKind.EOI, ""),
        ]


class TestSizeStress:
    """Megabyte inputs lex in one pass and never recurse."""

    def test_megabyte_string_literal_round_trips(self):
        name = ('ab\\"c\n' * 200_000)[:1_000_000]
        text = f'system "S" {{\n  layer classical {quote(name)}\n}}\n'
        result = parse_model(text)
        assert result.model is not None
        assert result.model.layers[0].name == name
        assert format_model(result.model) == text

    def test_megabyte_of_whitespace(self):
        assert lexemes(" \t\r\n" * 250_000) == [("end-of-input", "", (250_001, 1, 0))]

    def test_backslashes_in_unterminated_string(self):
        text = '"' + "\\" * 500_000
        assert lexemes(text) == [("end-of-input", "", (1, 500_002, 0))]
        assert l1_spans(text) == [("unterminated string literal", (1, 1, 500_001))]

    def test_many_comment_lines(self):
        assert lexemes("// comment\n" * 100_000 + "layer") == [
            ("keyword", "layer", (100_001, 1, 5)),
            ("end-of-input", "", (100_001, 6, 0)),
        ]


class TestParseModel:
    def test_factoring_fixture_shape(self, factoring_model):
        assert len(factoring_model.processes) == 2
        assert len(factoring_model.layers) == 2
        assert len(factoring_model.users) == 2
        assert factoring_model.processes[0].name == "Factor Large Integer"
        assert factoring_model.processes[1].uses == ("Factor Large Integer",)

    def test_movement_details(self, factoring_model):
        process = factoring_model.processes[0]
        first, last = process.movements[0], process.movements[-1]
        assert first.kind is MovementKind.E
        assert first.counterpart.kind is EndpointKind.LAYER
        assert last.kind is MovementKind.QX
        assert last.conversion is Conversion.MEASURE

    def test_empty_system_warns_but_parses(self):
        result = parse_model('system "S" { }')
        assert result.model is not None
        assert result.model.layers == ()
        assert [d.code for d in result.diagnostics] == ["W1"]
        assert result.diagnostics[0].severity is Severity.WARNING

    def test_duplicate_layer_is_an_error(self):
        result = parse_model('system "S" { layer classical "A" layer classical "A" }')
        assert result.model is None
        assert [d.code for d in result.diagnostics] == ["S2"]
        assert "duplicate layer" in result.diagnostics[0].message

    @pytest.mark.parametrize(
        "category,first,second",
        [
            ("layer", 'layer classical "X"', 'layer quantum "X"'),
            ("user", 'user classical "X"', 'user quantum "X"'),
            ("storage", 'storage classical "X"', 'storage classical "X"'),
            ("datagroup", 'datagroup "X" {}', 'datagroup "X" { attr a: quantum }'),
            ("process", 'process "X" in layer "A" {}', 'process "X" in layer "A" {}'),
        ],
    )
    def test_duplicate_declaration_of_each_category(self, category, first, second):
        text = f'system "S" {{\n  layer classical "A"\n  {first}\n  {second}\n}}\n'
        result = parse_model(text, file="d.qcm")
        assert result.model is None
        assert [d.code for d in result.diagnostics] == ["S2"]
        d = result.diagnostics[0]
        assert d.message == f"duplicate {category} name 'X'"
        assert (d.span.line, d.span.column, d.span.length) == (4, 3 + second.index('"X"'), 3)

    @pytest.mark.parametrize(
        "category,statement",
        [
            ("layer", 'process "Q" in layer "ghost" {}'),
            ("process", 'process "Q" in layer "A" uses "ghost" {}'),
            ("datagroup", 'process "Q" in layer "A" { entry "ghost" from user "U" }'),
            ("user", 'process "Q" in layer "A" { entry "g" from user "ghost" }'),
            ("storage", 'process "Q" in layer "A" { read "g" from storage "ghost" }'),
        ],
    )
    def test_unresolved_reference_of_each_category(self, category, statement):
        text = (
            'system "S" {\n  layer classical "A"\n  user classical "U"\n'
            f'  storage classical "D"\n  datagroup "g" {{}}\n  {statement}\n}}\n'
        )
        result = parse_model(text, file="r.qcm")
        assert result.model is None
        assert [d.code for d in result.diagnostics] == ["S3"]
        d = result.diagnostics[0]
        assert d.message == f"unresolved {category} reference 'ghost'"
        assert d.subject == "ghost"
        assert (d.span.line, d.span.column) == (6, 3 + statement.index('"ghost"'))

    def test_headers(self):
        result = parse_model('system "S" { purpose "p" scope "s" layer classical "A" }')
        assert result.model.purpose == "p"
        assert result.model.scope == "s"

    def test_duplicate_purpose_is_an_error(self):
        result = parse_model('system "S" { purpose "a" purpose "b" }')
        assert result.model is None
        assert any(d.code == "S2" for d in result.diagnostics)

    def test_header_after_declaration_is_an_error(self):
        result = parse_model('system "S" { layer classical "A" purpose "late" }')
        assert result.model is None
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("S1", "'purpose' must appear before declarations"),
        ]

    def test_unresolved_references_are_reported(self):
        # every category interleaved with the others: the S3s come in text order
        result = parse_model(
            'system "S" {\n'
            '  layer classical "A"\n'
            '  user classical "U"\n'
            '  datagroup "g" {}\n'
            '  process "P" in layer "B" uses "Q", "X" {\n'
            '    entry "h" from user "V"\n'
            '    read "g" from storage "D"\n'
            '    exit "k" to process "Y"\n'
            '    write "g" to user "U"\n'
            '  }\n'
            '  process "Q" in layer "C" uses "P" { exit "h" to storage "E" }\n'
            '}\n'
        )
        assert result.model is None
        assert [d.code for d in result.diagnostics] == ["S3"] * 10
        assert [(d.message, d.subject, d.span.line, d.span.column) for d in result.diagnostics] == [
            ("unresolved layer reference 'B'", "B", 5, 24),
            ("unresolved process reference 'X'", "X", 5, 38),
            ("unresolved datagroup reference 'h'", "h", 6, 11),
            ("unresolved user reference 'V'", "V", 6, 25),
            ("unresolved storage reference 'D'", "D", 7, 27),
            ("unresolved datagroup reference 'k'", "k", 8, 10),
            ("unresolved process reference 'Y'", "Y", 8, 25),
            ("unresolved layer reference 'C'", "C", 11, 24),
            ("unresolved datagroup reference 'h'", "h", 11, 44),
            ("unresolved storage reference 'E'", "E", 11, 59),
        ]

    _DECLARATIONS = {
        "layer": 'layer classical "A"',
        "user": 'user classical "U"',
        "storage": 'storage classical "D"',
        "datagroup": 'datagroup "g" { attr a: classical }',
        "process": 'process "Q" in layer "A" {}',
    }

    @pytest.mark.parametrize("category", list(_DECLARATIONS))
    def test_forward_references_resolve(self, category):
        """A name first read in a process declared before it resolves: the
        parser keeps exactly these references until the text is read."""
        earlier = [text for name, text in self._DECLARATIONS.items() if name != category]
        text = "\n".join([
            'system "S" {',
            *earlier,
            'process "P" in layer "A" uses "Q" {',
            '  entry "g" from user "U"',
            '  read "g" from storage "D"',
            '  exit "g" to process "Q"',
            '}',
            self._DECLARATIONS[category],
            '}',
        ])
        result = parse_model(text)
        assert result.diagnostics == []
        assert result.model is not None

    def test_recovery_reports_multiple_errors(self):
        text = (
            'system "S" {\n'
            '  layer classical\n'            # missing name
            '  user "NoNature"\n'            # missing nature
            '  storage classical "Disk"\n'   # fine
            "}\n"
        )
        result = parse_model(text)
        assert result.model is None
        errors = [d for d in result.diagnostics if d.severity is Severity.ERROR]
        assert len(errors) == 2
        assert "layer name" in errors[0].message
        assert "'classical' or 'quantum'" in errors[1].message

    def test_recovery_inside_process_body(self):
        text = (
            'system "S" {\n'
            '  layer classical "A"\n'
            '  user classical "U"\n'
            '  datagroup "g" {}\n'
            '  process "P" in layer "A" {\n'
            '    entry "g" from nowhere "U"\n'
            '    exit "g" to user "U"\n'
            "  }\n"
            "}\n"
        )
        result = parse_model(text)
        codes = [d.code for d in result.diagnostics]
        assert "S1" in codes
        assert result.model is None  # the bad movement is an error

    def test_failed_movement_reports_once_at_its_token(self):
        text = (
            'system "S" {\n'
            '  layer classical "A"\n'
            '  user classical "U"\n'
            '  datagroup "g" {}\n'
            '  process "P" in layer "A" {\n'
            '    entry "g" from user : "U"\n'
            '    exit "g" to user "U"\n'
            '    oops exit "g" to user "U"\n'
            "  }\n"
            "}\n"
        )
        result = parse_model(text)
        assert [(d.message, d.span.line, d.span.column) for d in result.diagnostics] == [
            ("expected endpoint name string, found ':'", 6, 25),
            ("expected a movement or '}', found 'oops'", 8, 5),
        ]

    def test_unclosed_blocks_each_report_at_end_of_input(self):
        # the end of input ends the block and the system; only the system reports
        for block in ('datagroup "g" {', 'layer classical "l" process "p" in layer "l" {'):
            result = parse_model('system "S" { ' + block)
            assert [d.message for d in result.diagnostics] == [
                "expected '}' to close the system block",
            ]

    @pytest.mark.parametrize(
        ("group", "movement", "error"),
        [
            ("attr a: classical attr b classical", 'entry "g" from layer "l"',
             ("S1", "expected ':', found 'classical'", 3, 44)),
            ("attr a: classical", 'entry "g" from layer "l" exit "g" to usr "u"',
             ("S1", "expected 'user', 'storage', 'process', or 'layer', found 'usr'", 4, 67)),
        ],
        ids=["last-attribute", "last-movement"],
    )
    def test_a_syntax_error_in_a_blocks_last_item_keeps_the_block(self, group, movement, error):
        text = (
            'system "S" {\n  layer classical "l"\n'
            '  datagroup "g" { ' + group + " }\n"
            '  process "p" in layer "l" { ' + movement + " }\n"
            '  process "q" in layer "l" uses "p" { read "g" from process "p" }\n}\n'
        )
        result = parse_model(text)
        # no S3 for the group or the process: both are declared
        assert [(d.code, d.message, d.span.line, d.span.column) for d in result.diagnostics] == [
            error
        ]

    def test_a_failed_only_declaration_leaves_the_system_not_empty(self):
        result = parse_model('system "S" { datagroup "g" { attr a classical } }')
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("S1", "expected ':', found 'classical'"),
        ]

    def test_a_stray_token_after_the_last_attribute_keeps_the_group(self):
        result = parse_model(
            'system "S" { layer classical "l" datagroup "g" { attr a: classical, } '
            'process "p" in layer "l" { entry "g" from layer "l" } }'
        )
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("S1", "expected 'attr' or '}', found ','"),
        ]

    @staticmethod
    def _missing_preposition(user: str):
        # the endpoint keyword ``user`` stands where ``from`` or ``to`` belongs
        return parse_model(
            'system "S" {\n  layer classical "l"\n  user classical "u"\n'
            '  user classical "x"\n  datagroup "g" { attr a: classical }\n'
            '  process "p" in layer "l" {\n    entry "g" user "u"\n'
            '    exit "g" to user "x"\n    read "g" from user ' + user + '\n'
            '    write "g" to user "x"\n  }\n'
            '  process "q" in layer "l" uses "p" { entry "g" from process "p" }\n}\n'
        )

    def test_a_movement_without_direction_reports_once_at_the_endpoint_keyword(self):
        # one S1 there, and the movement reads on as if the preposition were there
        result = self._missing_preposition('"x"')
        assert result.model is None
        assert [(d.code, d.message, d.span.line, d.span.column) for d in result.diagnostics] == [
            ("S1", "expected 'from' or 'to', found 'user'", 7, 15),
        ]

    def test_a_movement_without_direction_keeps_the_later_references(self):
        # the process keeps its later movements, so an undeclared user gets its S3
        result = self._missing_preposition('"nobody"')
        assert [(d.code, d.message, d.span.line, d.span.column) for d in result.diagnostics] == [
            ("S1", "expected 'from' or 'to', found 'user'", 7, 15),
            ("S3", "unresolved user reference 'nobody'", 9, 24),
        ]

    def test_recovery_never_leaves_dangling_references(self):
        # even with syntax errors, any returned model must resolve; broken
        # inputs therefore return no model at all
        text = 'system "S" { process "P" in layer "Ghost" { entry } }'
        result = parse_model(text)
        assert result.model is None

    def test_missing_closing_brace(self):
        result = parse_model('system "S" { layer classical "A"')
        assert result.model is None
        assert [d.message for d in result.diagnostics] == ["expected '}' to close the system block"]

    def test_trailing_content_is_an_error(self):
        result = parse_model('system "S" {} layer')
        assert result.model is None
        assert [d.message for d in result.diagnostics if d.code == "S1"] == [
            "unexpected content after system block: 'layer'"
        ]

    @pytest.mark.parametrize("declaration", ["layer quantum", "datagroup"])
    def test_a_header_after_a_failed_declaration_is_misplaced(self, declaration):
        # a failed declaration still ends the headers
        result = parse_model(f'system "S" {{ {declaration} purpose "Q" }}')
        assert "'purpose' must appear before declarations" in [
            d.message for d in result.diagnostics
        ]

    def test_headers_after_a_stray_token_are_read_as_headers(self):
        # no declaration keyword came before them: the repeated ``scope`` is
        # a duplicate header, not a misplaced one
        result = parse_model('system "S" { "a" purpose "b" scope "c" scope "d" layer classical "L" }')
        assert [(d.code, d.message, d.span.column) for d in result.diagnostics] == [
            ("S1", 'expected a declaration, found string "a"', 14),
            ("S2", "duplicate scope header name 'scope'", 46),
        ]

    def test_determinism(self, factoring_text):
        first = parse_model(factoring_text, file="f.qcm")
        second = parse_model(factoring_text, file="f.qcm")
        assert first.model == second.model
        assert first.diagnostics == second.diagnostics

    def test_span_fidelity(self):
        text = 'system "S" {\n  layer classical\n}\n'
        result = parse_model(text, file="t.qcm")
        lines = text.split("\n")
        for diagnostic in result.diagnostics:
            span = diagnostic.span
            assert span is not None
            assert 1 <= span.line <= len(lines)
            assert 1 <= span.column <= len(lines[span.line - 1]) + 1

    def test_duplicate_attribute_is_an_error(self):
        result = parse_model(
            'system "S" { datagroup "g" { attr a: classical attr a: quantum } }'
        )
        assert result.model is None
        assert any(d.code == "S2" for d in result.diagnostics)

    def test_both_prepositions_are_accepted(self):
        # the endpoint preposition is syntactic; 'entry ... to' still parses
        result = parse_model(
            'system "S" { layer classical "A" user classical "U" datagroup "g" {} '
            'process "P" in layer "A" { entry "g" to user "U" } }'
        )
        assert result.model is not None
        assert result.model.processes[0].movements[0].kind is MovementKind.E

    def test_natures_parse(self):
        result = parse_model(
            'system "S" { layer classical "A" layer quantum "B" '
            'process "P" in layer "B" {} }'
        )
        assert result.model.layers[0].nature is Nature.CLASSICAL
        assert result.model.layers[1].nature is Nature.QUANTUM

    def test_keyword_accepted_as_attribute_name(self):
        # the attr position is unambiguous, so reserved words are tolerated
        result = parse_model('system "S" { datagroup "g" { attr entry: classical } }')
        assert result.model.data_groups[0].attributes[0].name == "entry"

    def test_hostile_inputs_never_crash(self):
        for text in hostile_texts():
            result = parse_model(text)  # must diagnose, not raise
            assert result.model is not None or any(
                d.severity is Severity.ERROR for d in result.diagnostics
            )


def test_parse_model_calls_tokenize_once_through_the_module_global(monkeypatch):
    # the benchmark's tracer times the scan by wrapping this global
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.qcm"))]
    expected = [parse_model(text, file="t.qcm") for text in texts]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(parser, "tokenize", counting)
    for text, result in zip(texts, expected):
        calls.clear()
        assert parse_model(text, file="t.qcm") == result
        assert calls == [(text, "t.qcm")]


_MOVEMENT = '    entry "g" from user "u"\n'


def _one_process(body: str) -> str:
    return (
        'system "S" {\n  layer classical "l"\n  user classical "u"\n'
        '  datagroup "g" { attr a : classical }\n'
        '  process "p" in layer "l" {\n' + body + "  }\n}\n"
    )


@pytest.mark.parametrize(
    ("text", "codes", "built"),
    [
        # an L1 from the lexer: no model can follow, so no movement is built
        ("@" + _one_process(_MOVEMENT * 50), ["L1"], 0),
        # an S1 on the first movement, which lacks ``from user``: the 50 after
        # it are still read as movements, and checked but not built. (With only
        # ``from`` dropped, the declaration keyword ``user`` would end the block.)
        (_one_process('    entry "g" "u"\n' + _MOVEMENT * 50), ["S1"], 0),
        (_one_process(_MOVEMENT * 50), [], 50),
    ],
    ids=["illegal-first-character", "first-movement-lacks-direction", "clean"],
)
def test_a_failed_parse_builds_no_movements(monkeypatch, text, codes, built):
    calls = []

    def counting(*args):
        calls.append(args)
        return DataMovement(*args)

    monkeypatch.setattr(parser, "DataMovement", counting)
    result = parse_model(text)
    assert [d.code for d in result.diagnostics] == codes
    assert len(calls) == built
    if built:
        assert sum(len(p.movements) for p in result.model.processes) == built


# a name with an escaped quote, declared once and used twice; a string that
# reads as a keyword; and one value written with an escape and without one
_ESCAPED_NAMES = (
    'system "S" {\n'
    '  layer classical "a\\"b"\n'
    '  user classical "layer"\n'
    '  user classical "t\\tab"\n'
    '  datagroup "g" {}\n'
    '  process "P" in layer "a\\"b" { entry "g" from user "layer" exit "g" to user "t\tab" }\n'
    '  process "Q" in layer "a\\"b" uses "P" { exit "g" to user "layer" }\n'
    '}\n'
)
_CORPUS_BUILDS = ("resolve_model", "text_model", "bad_parse_model")
_SHARING_CASES = [
    *(path.name for path in sorted(FIXTURES.glob("*.qcm"))), *_CORPUS_BUILDS, "escaped-names"
]


def _sharing_text(case: str) -> str:
    """A fixture's text, a ``bench/corpus.py`` model at 4x, or ``_ESCAPED_NAMES``."""
    if case in _CORPUS_BUILDS:
        return getattr(bench_corpus(), case)(3, 4).source
    return _ESCAPED_NAMES if case == "escaped-names" else load_fixture(case)


def _parsed(case: str) -> Model:
    """The model the parser builds from a case's text, which a text with errors also yields."""
    return parser._Parser(*tokenize(_sharing_text(case))[:-1]).parse()


def _one_object_each(values: list) -> bool:
    """Equal values are one object: as many objects as distinct values."""
    return len({id(value) for value in values}) == len(set(values))


def _fresh(name: str) -> str:
    """An equal string that is a new object (a one-character string is a singleton)."""
    return (name + "_")[:-1]


def _fresh_copy(model: Model) -> Model:
    """``model`` rebuilt with a new object for every name and counterpart."""
    def movement(m):
        counterpart = Endpoint(m.counterpart.kind, _fresh(m.counterpart.name))
        return replace(m, data_group=_fresh(m.data_group), counterpart=counterpart)

    def declared(decls):
        return tuple(replace(d, name=_fresh(d.name)) for d in decls)

    return replace(
        model,
        name=_fresh(model.name),
        purpose=_fresh(model.purpose),
        scope=_fresh(model.scope),
        layers=declared(model.layers),
        users=declared(model.users),
        storages=declared(model.storages),
        data_groups=tuple(
            replace(g, name=_fresh(g.name), attributes=declared(g.attributes))
            for g in model.data_groups
        ),
        processes=tuple(
            replace(
                p,
                name=_fresh(p.name),
                layer=_fresh(p.layer),
                movements=tuple(map(movement, p.movements)),
                uses=tuple(map(_fresh, p.uses)),
            )
            for p in model.processes
        ),
    )


class TestSharing:
    """One object per distinct spelling and per distinct counterpart in a parse."""

    @pytest.mark.parametrize("case", _SHARING_CASES)
    def test_equal_token_texts_are_one_object(self, case):
        text = _sharing_text(case)
        _, texts, offsets, lengths, _, _ = tokenize(text)
        by_spelling: dict[str, set[int]] = {}
        for value, offset, length in zip(texts, offsets, lengths):
            by_spelling.setdefault(text[offset:offset + length], set()).add(id(value))
        assert all(len(ids) == 1 for ids in by_spelling.values())

    @pytest.mark.parametrize("case", _SHARING_CASES)
    def test_equal_counterparts_are_one_object(self, case):
        model = _parsed(case)
        counterparts = [m.counterpart for p in model.processes for m in p.movements]
        assert _one_object_each(counterparts)
        assert _one_object_each([c.name for c in counterparts])

    def test_escaped_names_share_one_string(self):
        model = parse_model(_ESCAPED_NAMES).model
        first, second = model.processes
        assert model.layers[0].name == first.layer == 'a"b'
        assert first.layer is second.layer is model.layers[0].name
        assert first.movements[0].counterpart is second.movements[0].counterpart
        assert model.users[0].name is first.movements[0].counterpart.name == "layer"
        assert model.users[1].name == first.movements[1].counterpart.name == "t\tab"

    @pytest.mark.parametrize("case", _SHARING_CASES)
    def test_model_equals_a_fresh_copy(self, case):
        model = _parsed(case)
        copy = _fresh_copy(model)
        assert copy == model
        assert hash(copy) == hash(model)

    @pytest.mark.parametrize(("build", "bound"), [("resolve_model", 1300), ("text_model", 780)])
    def test_parse_peak_memory_per_movement(self, build, bound):
        text = getattr(bench_corpus(), build)(3, 4).source
        parse_model(text)  # anything the first parse builds once is not counted
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model = parse_model(text).model
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        movements = sum(len(process.movements) for process in model.processes)
        assert peak / movements <= bound
