"""CLI behavior: exit codes, stream separation, output files."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from qcosmic import cli, parse_model
from qcosmic.cli import main
from conftest import FIXTURES, load_fixture

SRC = FIXTURES.parent / "src"
REPORT_COMMANDS = (
    ("measure",),
    ("measure", "--format", "json"),
    ("measure", "--format", "csv"),
    ("diagram",),
    ("fmt",),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestExitCodes:
    def test_measure_ok(self, capsys):
        code, out, err = run(capsys, "measure", fixture("factoring.qcm"), "--format", "json")
        assert code == 0
        assert json.loads(out)["total_qcfp"] == 10
        assert err == ""

    def test_check_validation_error(self, capsys):
        code, out, err = run(capsys, "check", fixture("bad_r1.qcm"))
        assert code == 1
        assert out == ""
        assert "error[R1]" in err

    def test_check_clean_fixture(self, capsys):
        code, out, err = run(capsys, "check", fixture("factoring.qcm"))
        assert code == 0
        assert out == "" and err == ""

    def test_check_warning_fixture_exits_zero(self, capsys):
        code, out, err = run(capsys, "check", fixture("warn_p1.qcm"))
        assert code == 0
        assert "warning[P1]" in err

    def test_parse_failure(self, capsys):
        code, out, err = run(capsys, "check", fixture("bad_syntax.qcm"))
        assert code == 2
        assert out == ""
        assert "error[S2]" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "measure", "nonexistent.qcm")
        assert code == 3
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["check", "measure", "diagram", "fmt"])
    def test_non_utf8_input(self, capsys, tmp_path, command):
        source = tmp_path / "bad.qcm"
        source.write_bytes(b'system "x" {\xff}')
        code, out, err = run(capsys, command, str(source))
        assert code == 3
        assert out == ""
        assert err.startswith(f"qcosmic: cannot read {source}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "measure", "diagram", "fmt"])
    def test_internal_error_exits_four(self, capsys, monkeypatch, command):
        def broken(text, file):
            raise RuntimeError("lexer fell over")

        monkeypatch.setattr(cli, "parse_model", broken)
        code, out, err = run(capsys, command, fixture("factoring.qcm"))
        assert code == 4
        assert out == ""
        assert err == "qcosmic: internal error: RuntimeError: lexer fell over\n"

    @pytest.mark.parametrize("command", ["check", "measure", "diagram", "fmt"])
    def test_interrupt_exits_130(self, capsys, monkeypatch, command):
        def interrupted(text, file):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_model", interrupted)
        code, out, err = run(capsys, command, fixture("factoring.qcm"))
        assert code == 130
        assert out == ""
        assert err == "qcosmic: interrupted\n"

    def test_interrupt_while_parsing_arguments_exits_130(self, capsys, monkeypatch):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_build_parser", interrupted)
        code, out, err = run(capsys, "measure", fixture("factoring.qcm"))
        assert code == 130
        assert out == ""
        assert err == "qcosmic: interrupted\n"

    @pytest.mark.parametrize("argv, reason", [
        (("check", ""), "qcosmic: cannot read : No such file or directory\n"),
        (("measure", fixture("factoring.qcm"), "-o", ""),
         "qcosmic: [Errno 2] No such file or directory: ''\n"),
    ])
    def test_empty_path_exits_three(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == reason

    @pytest.mark.parametrize("command, target", [
        ("measure", "missing/r.txt"),  # a directory that does not exist
        ("diagram", ""),  # the directory itself
        ("fmt", "missing/m.qcm"),
    ])
    def test_unwritable_output_exits_three(self, capsys, tmp_path, command, target):
        output = tmp_path / target
        code, out, err = run(capsys, command, fixture("factoring.qcm"), "-o", str(output))
        assert code == 3
        assert out == ""
        assert err.startswith("qcosmic: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("measure", fixture("factoring.qcm"), "--bogus"),
        (),
        ("bogus", fixture("factoring.qcm")),
        ("measure", fixture("factoring.qcm"), "--format", "xml"),
        ("measure", fixture("factoring.qcm"), "--dedup", "nope"),
    ], ids=["unknown-flag", "no-arguments", "unknown-command", "bad-format", "bad-dedup"])
    def test_usage_error(self, capsys, argv):
        # argparse's wording differs between Python versions; only the shape is pinned
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("qcosmic: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("--help",), ("measure", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 0
        assert "usage:" in captured.out
        assert captured.err == ""

    def test_measure_refuses_invalid_model(self, capsys):
        code, out, err = run(capsys, "measure", fixture("bad_r4.qcm"))
        assert code == 1
        assert out == ""
        assert "error[R4]" in err

    def test_unknown_scope(self, capsys):
        code, _, err = run(
            capsys, "diagram", fixture("factoring.qcm"), "--scope", "Nope"
        )
        assert code == 3
        assert "--scope" in err


class TestOutputs:
    def test_text_report_on_stdout(self, capsys):
        code, out, err = run(capsys, "measure", fixture("factoring.qcm"))
        assert code == 0
        assert "TOTAL 10 QCFP (classical 8 / quantum 2)" in out
        assert err == ""

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "measure", fixture("factoring.qcm"), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("process,layer,nature,")

    def test_by_layer_flag(self, capsys):
        _, plain, _ = run(capsys, "measure", fixture("factoring.qcm"))
        _, layered, _ = run(capsys, "measure", fixture("factoring.qcm"), "--by-layer")
        assert len(layered.splitlines()) > len(plain.splitlines())

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            capsys, "measure", fixture("factoring.qcm"),
            "--format", "json", "-o", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total_qcfp"] == 10

    def test_diagram_prints_dot(self, capsys):
        code, out, _ = run(capsys, "diagram", fixture("factoring.qcm"))
        assert code == 0
        assert out.startswith('digraph "Integer Factoring Suite" {')

    def test_diagram_scope_edge_count(self, capsys):
        code, out, _ = run(
            capsys, "diagram", fixture("factoring.qcm"),
            "--scope", "Factor Large Integer",
        )
        assert code == 0
        assert sum(1 for line in out.splitlines() if " -> " in line) == 6

    def test_fmt_emits_reparsable_canonical_text(self, capsys):
        code, out, err = run(capsys, "fmt", fixture("factoring.qcm"))
        assert code == 0
        reparsed = parse_model(out)
        assert reparsed.model is not None

    def test_fmt_works_despite_rule_errors(self, capsys):
        code, out, _ = run(capsys, "fmt", fixture("bad_r4.qcm"))
        assert code == 0
        assert out.startswith('system "R4 Trigger"')

    def test_dedup_cosmic_flag(self, capsys, tmp_path):
        source = tmp_path / "dup.qcm"
        source.write_text(
            'system "S" { layer classical "A" '
            'user classical "U" user classical "V" datagroup "g" {} '
            'process "P" in layer "A" { '
            'entry "g" from user "U" entry "g" from user "V" } }'
        )
        _, endpoint_out, _ = run(capsys, "measure", str(source), "--format", "json")
        _, cosmic_out, _ = run(
            capsys, "measure", str(source), "--format", "json", "--dedup", "cosmic"
        )
        assert json.loads(endpoint_out)["total_qcfp"] == 2
        assert json.loads(cosmic_out)["total_qcfp"] == 1

    @pytest.mark.parametrize("command", REPORT_COMMANDS, ids=" ".join)
    def test_stdout_report_is_utf8_whatever_the_locale(self, tmp_path, command):
        # a name that an ASCII stdout cannot encode, in every report
        source = tmp_path / "cafe.qcm"
        text = load_fixture("factoring.qcm").replace("Break RSA", "Break RSA café")
        source.write_text(text, encoding="utf-8")
        target = tmp_path / "report"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": path}
        argv = [sys.executable, "-m", "qcosmic.cli", command[0], str(source), *command[1:]]
        to_stdout = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        to_file = subprocess.run([*argv, "-o", str(target)], env=env, timeout=60)
        assert (to_stdout.returncode, to_file.returncode) == (0, 0), to_stdout.stderr
        assert "café".encode() in to_stdout.stdout
        assert to_stdout.stdout == target.read_bytes()

    def test_consecutive_runs_are_byte_identical(self, capsys):
        _, first, err1 = run(capsys, "measure", fixture("factoring.qcm"), "--format", "json")
        _, second, err2 = run(capsys, "measure", fixture("factoring.qcm"), "--format", "json")
        assert first == second
        assert err1 == err2 == ""


class TestRuleCatalogExitCodes:
    @pytest.mark.parametrize("code", ["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"])
    def test_bad_fixtures_exit_one(self, capsys, code):
        exit_code, _, err = run(capsys, "check", fixture(f"bad_{code}.qcm"))
        assert exit_code == 1
        assert f"[{code.upper()}]" in err

    @pytest.mark.parametrize(
        "name",
        ["ok_r1", "ok_r2", "ok_r3", "ok_r4", "ok_r5", "ok_r6", "ok_r7", "ok_r8", "ok_r9",
         "ok_p1", "ok_p2", "ok_p3", "warn_p1", "warn_p2", "warn_p3"],
    )
    def test_pass_and_warning_fixtures_exit_zero(self, capsys, name):
        exit_code, _, _ = run(capsys, "check", fixture(f"{name}.qcm"))
        assert exit_code == 0
