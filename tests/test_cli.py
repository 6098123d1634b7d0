import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gtqft.cli
import gtqft.errors
import gtqft.orbifold
import gtqft.tqft
from conftest import dual_number_group_algebra
from gtqft import (
    CheckReport,
    builtin,
    closed_surface_word,
    frobenius_untwisted,
    group_algebra,
    save_algebra,
)
from gtqft.cli import (
    RunConfig,
    build_parser,
    config_from_args,
    format_report,
    main,
    minimize_word,
    run,
)
from gtqft.cobordism import CERF_CASES, Cobordism, PieceKind, cyl, parse as parse_word
from gtqft.errors import SchemaError
from gtqft.exactlin import Matrix, Tensor3
from gtqft.report import Witness, failing, passing
from test_algebra import DOCUMENT_ERRORS, trivial_algebra_doc


class TestFormatReport:
    def test_empty_report_header_only(self):
        report = CheckReport(())
        assert format_report(report, "human") == "checks: 0 passed, 0 failed"
        records = format_report(report, "records")
        assert records == '{"record": "summary", "passed": 0, "failed": 0}'

    def test_single_failure_record(self):
        report = CheckReport(
            (failing("some-law", (("g", "a"), ("h", "b")), "0", "1"),)
        )
        human = format_report(report, "human")
        assert "FAIL  some-law" in human and "g=a" in human
        records = format_report(report, "records").splitlines()
        assert len(records) == 2
        payload = json.loads(records[1])
        assert payload["witness"] == {"context": {"g": "a", "h": "b"}, "left": "0", "right": "1"}

    def test_records_round_trip(self):
        report = CheckReport(
            (passing("one"), passing("two"), failing("three", (("x", "0"),), "1", "2"))
        )
        records = [json.loads(line) for line in format_report(report, "records").splitlines()]
        assert records[0] == {"record": "summary", "passed": 2, "failed": 1}
        assert [(r["name"], r["passed"]) for r in records[1:]] == [
            ("one", True), ("two", True), ("three", False),
        ]


class TestCheckCommand:
    def test_builtin_group_algebra_passes(self, capsys):
        status = run(RunConfig(command="check", group="cyclic:2", algebra="builtin:group-algebra"))
        out = capsys.readouterr().out
        assert status == 0
        assert "0 failed" in out

    def test_check_from_file(self, tmp_path, z2, capsys):
        doc = save_algebra(group_algebra(z2))
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(doc))
        status = run(RunConfig(command="check", algebra=str(path)))
        assert status == 0
        assert "PASS  torus-identity" in capsys.readouterr().out

    def test_corrupted_file_fails(self, tmp_path, s3, capsys):
        doc = save_algebra(group_algebra(s3))
        for entry in doc["action"]:
            if entry["k"] == "p021" and entry["g"] == "e":
                entry["value"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        status = run(RunConfig(command="check", algebra=str(path)))
        out = capsys.readouterr().out
        assert status == 1
        assert "FAIL" in out

    def test_deterministic_output(self, capsys):
        cfg = RunConfig(command="check", group="symmetric:3", algebra="builtin:group-algebra")
        run(cfg)
        first = capsys.readouterr().out
        run(cfg)
        second = capsys.readouterr().out
        assert first == second


class TestEvalCommand:
    def test_identity_over_trivial_algebra(self, capsys):
        status = run(
            RunConfig(
                command="eval",
                group="cyclic:1",
                algebra="builtin:group-algebra",
                cobordism="id(e)",
            )
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "matrix (1 x 1)" in out and "[ 1 ]" in out

    def test_word_from_file(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_text("cap ; split(g1,g1) ; merge(g1,g1) ; cup\n")
        status = run(
            RunConfig(
                command="eval",
                group="cyclic:2",
                algebra="builtin:group-algebra",
                cobordism=str(path),
            )
        )
        assert status == 0
        assert "[ 1 ]" in capsys.readouterr().out

    def test_parse_error_category(self, capsys):
        status = run(
            RunConfig(
                command="eval",
                group="cyclic:2",
                algebra="builtin:group-algebra",
                cobordism="id(",
            )
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "error: category=parse" in captured.err

    def test_type_error_category(self, capsys):
        status = run(
            RunConfig(
                command="eval",
                group="symmetric:3",
                algebra="builtin:group-algebra",
                cobordism="merge(p021,p102) ; split(p102,p021)",
            )
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "error: category=type" in captured.err

    def test_degenerate_pairing_category(self, tmp_path, capsys):
        doc = {
            "group": "cyclic:1",
            "dims": {"e": 2},
            "product": [
                {"g": "e", "h": "e", "i": 0, "j": 0, "k": 0, "value": "1"},
                {"g": "e", "h": "e", "i": 0, "j": 1, "k": 1, "value": "1"},
                {"g": "e", "h": "e", "i": 1, "j": 0, "k": 1, "value": "1"},
            ],
            "action": [
                {"k": "e", "g": "e", "i": 0, "j": 0, "value": "1"},
                {"k": "e", "g": "e", "i": 1, "j": 1, "value": "1"},
            ],
            "unit": ["1", "0"],
            "trace": ["1", "0"],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        status = run(
            RunConfig(command="derive", algebra=str(path))
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "error: category=degenerate-pairing" in captured.err


class TestCommandSources:
    def _eval(self, capsys, cobordism, group="cyclic:2"):
        argv = ["eval", "--group", group, "--algebra", "builtin:group-algebra"]
        status = main(argv + ["--cobordism", cobordism])
        return status, capsys.readouterr()

    def test_inline_word_longer_than_a_file_name(self, capsys):
        word = " ; ".join(["id(g1)"] * 60)
        assert len(word.encode()) > 255
        status, captured = self._eval(capsys, word)
        assert status == 0
        assert "matrix (1 x 1)" in captured.out

    def test_inline_genus_two_word_matches_file(self, tmp_path, s3, capsys):
        text = closed_surface_word(s3, (5, 4, 5, 3)).to_text()
        assert len(text.encode()) > 255
        path = tmp_path / "genus2.txt"
        path.write_text(text)
        inline_status, inline = self._eval(capsys, text, "symmetric:3")
        file_status, from_file = self._eval(capsys, str(path), "symmetric:3")
        assert inline_status == file_status == 0
        assert inline.out == from_file.out and "matrix (1 x 1)" in inline.out

    @pytest.mark.parametrize("flag", ["--cobordism", "--group", "--algebra"])
    @pytest.mark.parametrize("kind", ["empty", "directory"])
    def test_empty_or_directory_source_is_a_parse_error(self, tmp_path, capsys, flag, kind):
        sources = {
            "--group": "cyclic:2",
            "--algebra": "builtin:group-algebra",
            "--cobordism": "id(e)",
        }
        sources[flag] = "" if kind == "empty" else str(tmp_path)
        argv = ["eval"]
        for name, value in sources.items():
            argv += [name, value]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert "error: category=parse" in captured.err

    @pytest.mark.parametrize("flag", ["--group", "--algebra"])
    @pytest.mark.parametrize(
        "content", [b"{bad", b'{"group": "cyclic:2", "name": "caf\xe9"}'], ids=["json", "utf8"]
    )
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, flag, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        sources = {"--group": "cyclic:2", "--algebra": "builtin:group-algebra", flag: str(path)}
        status = main(["check", *(x for pair in sources.items() for x in pair)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith(f"error: category=parse invalid JSON in {path}: ")
        assert captured.out == ""

    def test_long_group_name_is_a_parse_error(self, capsys):
        status, captured = self._eval(capsys, "id(e)", "nosuchgroup" * 30)
        assert status == 2
        assert "error: category=parse" in captured.err


S3_CHECK = ["check", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]

# usage errors that argparse finds, each with the part of its message naming it
USAGE_ERRORS = {
    "no-algebra": (S3_CHECK[:3], "the following arguments are required: --algebra"),
    "xml": ([*S3_CHECK, "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    "cerf-case": (
        ["cerf", "--algebra", "a.json", "--case", "999"], "--case: invalid choice: '999'"
    ),
    "fuzz-seed": (
        ["fuzz", "--algebra", "a.json", "--seed", "x"], "--seed: invalid int value: 'x'"
    ),
    # fuzz prints only text, so it takes no --format
    "fuzz-format": (
        ["fuzz", "--algebra", "a.json", "--format", "records"],
        "unrecognized arguments: --format records",
    ),
    "unknown": (["frobnicate"], "invalid choice: 'frobnicate'"),
    "no-command": ([], "the following arguments are required: command"),
    "case": ([*S3_CHECK, "--case", "111"], "unrecognized arguments: --case 111"),
}
COMMANDS = ("check", "derive", "orbifold", "eval", "cerf", "fuzz")


def _outcome(capsys, argv):
    """Status (or `SystemExit` code), stdout and stderr of one `main` call."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = ("exit", exc.code)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestBadInputIsAParseError:
    """Faults of the input exit 2 with category=parse, which is not kept
    for faults of the program."""

    def _status_and_error(self, capsys, argv):
        status = main(argv)
        return status, capsys.readouterr().err

    @pytest.mark.parametrize("where", ["product", "trace"])
    def test_zero_denominator_scalar(self, tmp_path, capsys, where):
        doc = save_algebra(group_algebra(builtin("cyclic", 2)))
        if where == "product":
            doc["product"][0]["value"] = "1/0"
        else:
            doc["trace"] = ["1/0"]
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        status, err = self._status_and_error(capsys, ["check", "--algebra", str(path)])
        assert status == 2
        assert err.startswith("error: category=parse ") and "not a rational literal" in err

    def test_word_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_bytes(b"\xff\xfeid(e)")
        argv = ["eval", "--group", "cyclic:2", "--algebra", "builtin:group-algebra"]
        status, err = self._status_and_error(capsys, [*argv, "--cobordism", str(path)])
        assert status == 2
        assert err.startswith(f"error: category=parse {path} is not UTF-8 text")

    def test_booleans_in_a_group_table(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"names": ["e", "a"], "table": [[0, True], [True, False]]}))
        argv = ["check", "--algebra", "builtin:group-algebra", "--group", str(path)]
        status, err = self._status_and_error(capsys, argv)
        assert status == 2
        assert err == "error: category=parse group table entries must be integers\n"

    @pytest.mark.parametrize("change,message", DOCUMENT_ERRORS.values(), ids=DOCUMENT_ERRORS.keys())
    def test_document_error(self, tmp_path, capsys, change, message):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(change(trivial_algebra_doc())))
        status, err = self._status_and_error(capsys, ["check", "--algebra", str(path)])
        assert status == 2
        assert err == f"error: category=parse {message}\n"

    def test_group_document_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text("[[0]]")
        argv = ["check", "--algebra", "builtin:group-algebra", "--group", str(path)]
        status, err = self._status_and_error(capsys, argv)
        assert status == 2
        assert err == "error: category=parse group document must be an object\n"

    def test_json_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        status, err = self._status_and_error(capsys, ["check", "--algebra", str(path)])
        assert status == 2
        assert err.startswith(f"error: category=parse invalid JSON in {path}: ")

    def test_integer_literal_over_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text('{"names": ["e"], "table": [[' + "1" * 5000 + "]]}")
        argv = ["check", "--algebra", "builtin:group-algebra", "--group", str(path)]
        status, err = self._status_and_error(capsys, argv)
        assert status == 2
        assert err.startswith(f"error: category=parse invalid JSON in {path}: ")

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_usage_error_is_a_parse_error(self, capsys, argv, message):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: category=parse ") and message in line

    def test_help_exits_zero(self, capsys):
        for command in ("", *COMMANDS):
            status, out, err = _outcome(capsys, [command, "--help"] if command else ["--help"])
            assert status == ("exit", 0)
            assert out.startswith(f"usage: gtqft {command}".rstrip() + " ") and err == ""


class TestSharedParser:
    """`main` reuses one parser per process; no call leaves state in it."""

    def test_calls_leave_no_state(self, tmp_path, capsys):
        saved = json.loads((Path(__file__).parent / "saved_algebras.json").read_text())
        doc = saved["mixed-z2"]
        for entry in doc["action"]:
            if entry["k"] == entry["g"] == "g1" and entry["i"] == entry["j"] == 0:
                entry["value"] = "2"
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        errors = [argv for argv, _ in USAGE_ERRORS.values()]
        help_, bad_check = ["fuzz", "--help"], ["check", "--algebra", str(path)]
        sequence = [errors[0], help_, errors[1], S3_CHECK, errors[2], bad_check, *errors[3:]]
        first = [_outcome(capsys, argv) for argv in sequence]
        assert [status for status, _, _ in first] == [2, ("exit", 0), 2, 0, 2, 1, 2, 2, 2, 2, 2]
        assert [_outcome(capsys, argv) for argv in sequence] == first

    def test_main_builds_no_parser_after_the_first_call(self, monkeypatch):
        built = []
        init = gtqft.cli._Parser.__init__
        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(gtqft.cli._Parser, "__init__", counted)
        main(S3_CHECK)
        before = len(built)
        main(S3_CHECK)
        main(["fuzz", "--group", "cyclic:2", "--algebra", "builtin:group-algebra", "--count", "5"])
        assert len(built) == before
        assert build_parser() is build_parser()
        # the counter sees a build: the top level and its six subcommands
        build_parser.__wrapped__()
        assert len(built) == before + 7

    def test_help_follows_the_terminal_width(self, monkeypatch, capsys):
        wraps = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            shared = _outcome(capsys, ["fuzz", "--help"])
            with pytest.raises(SystemExit):
                build_parser.__wrapped__().parse_args(["fuzz", "--help"])
            assert capsys.readouterr().out == shared[1]
            wraps.append(shared[1])
        assert wraps[0] != wraps[1]


class TestCerfCommand:
    def test_all_labels_pass(self, capsys):
        status = run(
            RunConfig(
                command="cerf",
                group="cyclic:3",
                algebra="builtin:group-algebra",
                case="111",
                all_labels=True,
            )
        )
        assert status == 0
        assert "PASS" in capsys.readouterr().out

    def test_single_labeling(self, capsys):
        status = run(
            RunConfig(
                command="cerf",
                group="symmetric:3",
                algebra="builtin:group-algebra",
                case="301",
                labels="p021,p102,p120,e",
            )
        )
        assert status == 0
        capsys.readouterr()

    def test_corrupted_algebra_nonzero_exit_with_witness(self, tmp_path, s3, capsys):
        doc = save_algebra(group_algebra(s3))
        for entry in doc["action"]:
            if entry["k"] == "p021" and entry["g"] == "e":
                entry["value"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        status = run(
            RunConfig(command="cerf", algebra=str(path), case="111", all_labels=True)
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "FAIL" in out and "labels=" in out

    @pytest.mark.parametrize("case", CERF_CASES)
    def test_every_table_case_runs(self, capsys, case):
        argv = ["cerf", "--group", "cyclic:3", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", case, "--all-labels"])
        out = capsys.readouterr().out
        assert status == 0
        assert out.startswith("checks: ") and "FAIL" not in out

    def test_the_sphere_row_is_gone(self, capsys):
        # its two words, cap ; cup and cap ; id(e) ; cup, differ only by an
        # id layer, so no algebra could fail it
        argv = ["cerf", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "sphere", "--all-labels"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: category=parse ") and "invalid choice: 'sphere'" in line

    def test_all_labels_over_the_budget(self, monkeypatch, capsys):
        # estimated only: building a word would raise
        monkeypatch.setattr(gtqft.tqft, "cerf_case_words", lambda *args: 1 / 0)
        argv = ["cerf", "--group", "cyclic:60", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "111", "--all-labels"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error: category=budget 12960000 labellings exceed the budget of 10000000\n"
        )

    def test_a_document_over_the_budget(self, monkeypatch, tmp_path, capsys):
        # 3 cells: product (e, e) and action (e, e), (g1, e) of a one-dimensional
        # identity grade over cyclic:2; the budget is lowered, never the document raised
        doc = save_algebra(group_algebra(builtin("cyclic", 2)))
        doc["dims"] = {"e": 1}
        doc["product"] = doc["product"][:1]
        doc["action"] = [entry for entry in doc["action"] if entry["g"] == "e"]
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 2)
        status = main(["check", "--algebra", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=budget 3 table cells exceed the budget of 2\n"

    def test_wrong_label_count_is_a_type_error(self, capsys):
        argv = ["cerf", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "twist", "--labels", "p021"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=type case twist takes 2 labels, got 1\n"

    @pytest.mark.parametrize(
        "labels, message",
        [
            # the empty name was dropped, and the other four labels checked
            ("p021,,p102,e,e", "--labels 'p021,,p102,e,e' has an empty element name"),
            ("p021,p102,p120,e,", "--labels 'p021,p102,p120,e,' has an empty element name"),
            (" , ", "--labels ' , ' has an empty element name"),
        ],
        ids=["inner", "trailing", "blank"],
    )
    def test_an_empty_label_name_is_a_parse_error(self, capsys, labels, message):
        argv = ["cerf", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "111", "--labels", labels])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: category=parse {message}\n"

    def test_labels_with_all_labels_is_a_parse_error(self, capsys):
        # --labels was ignored, and every labelling checked
        argv = ["cerf", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "111", "--labels", "p021,p102,p120,e", "--all-labels"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error: category=parse cerf takes --labels or --all-labels, not both\n"
        )


class TestRescaledWitnesses:
    """A negative control for the scaled running maps: the rescaled rich S3
    with one action block doubled.  Its words hold entries over many
    denominators, so each witness is divided at the edge; every expected
    text here was printed by the evaluator on Fraction rows that came
    before the scaled ones."""

    EXPECTED = {
        (("e", "p102"), "cylinder"): (
            "checks: 5 passed, 1 failed\n"
            "FAIL  cerf-cylinder-alt1  [labels=p102 alternative=1]"
            "  left=[[2, 0], [0, 2]]  right=[[1, 0], [0, 1]]\n"
            "PASS  cerf-cylinder-alt2\nPASS  cerf-cylinder-alt3\nPASS  cerf-cylinder-alt4\n"
            "PASS  cerf-cylinder-alt5\nPASS  cerf-cylinder-alt6\n"
        ),
        (("e", "p102"), "pants"): (
            "checks: 0 passed, 1 failed\n"
            "FAIL  cerf-pants-alt1  [labels=p102, e alternative=1]"
            "  left=[[5/4, 0, 0, 0], [0, 9/32, 5/4, 0]]"
            "  right=[[5/2, 0, 0, 0], [0, 9/16, 5/2, 0]]\n"
        ),
        (("e", "p102"), "111"): (
            "checks: 0 passed, 1 failed\n"
            "FAIL  cerf-111-alt1  [labels=e, e, e, p102 alternative=1]"
            "  left=[[0, 0], [3/8, 0]]  right=[[0, 0], [3/4, 0]]\n"
        ),
        (("p102", "p201"), "twist"): (
            "checks: 1 passed, 3 failed\n"
            "FAIL  cerf-twist-alt1  [labels=p201, p021 alternative=1]"
            "  left=[[1/3, 0], [0, 6/5]]  right=[[1/6, 0], [0, 3/5]]\n"
            "FAIL  cerf-twist-alt2  [labels=p201, p102 alternative=2]"
            "  left=[[1/6, 0], [0, 3/5]]  right=[[1/3, 0], [0, 6/5]]\n"
            "PASS  cerf-twist-alt3\n"
            "FAIL  cerf-twist-alt4  [labels=p201, p021 alternative=4]"
            "  left=[[1/3, 0], [0, 6/5]]  right=[[1/6, 0], [0, 3/5]]\n"
        ),
    }

    @pytest.mark.parametrize("block, case", sorted(EXPECTED), ids=lambda x: "-".join(x))
    def test_witness_text(self, tmp_path, capsys, block, case):
        saved = json.loads((Path(__file__).parent / "saved_algebras.json").read_text())
        doc = saved["rescaled-rich-s3"]
        for entry in doc["action"]:
            if (entry["k"], entry["g"]) == block:
                entry["value"] = str(2 * Fraction(entry["value"]))
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(doc))
        status = main(["cerf", "--algebra", str(path), "--case", case, "--all-labels"])
        assert (status, capsys.readouterr().out) == (1, self.EXPECTED[(block, case)])


class TestOrbifoldCommand:
    def test_emits_trivial_group_document(self, capsys):
        status = run(
            RunConfig(command="orbifold", group="symmetric:3", algebra="builtin:group-algebra")
        )
        out = capsys.readouterr().out
        assert status == 0
        doc = json.loads(out)
        assert doc["group"] == "cyclic:1"
        assert doc["dims"] == {"e": 3}

    @pytest.mark.parametrize(
        "block,failure",
        [
            # the identity acts as 2 on p102
            (("e", "p102"), "[k=e i=2]  left=(0, 0, 2, 0, 0, 0)  right=(0, 0, 1, 0, 0, 0)"),
            # p021 doubles delta_e: every other orbifold entry passes
            (("p021", "e"), "[k=p021 i=0]  left=(2, 0, 0, 0, 0, 0)  right=(1, 0, 0, 0, 0, 0)"),
        ],
        ids=["identity-doubles-p102", "p021-doubles-e"],
    )
    def test_non_invariant_basis_is_a_failed_check(self, tmp_path, s3, capsys, block, failure):
        doc = save_algebra(group_algebra(s3))
        for entry in doc["action"]:
            if (entry["k"], entry["g"]) == block:
                entry["value"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        status = main(["orbifold", "--algebra", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert json.loads(captured.out)["group"] == "cyclic:1"
        assert captured.err.splitlines()[-1] == f"FAIL  orbifold-invariance  {failure}"

    S3_GROUP_ALGEBRA = ["--group", "symmetric:3", "--algebra", "builtin:group-algebra"]

    def test_work_over_the_budget(self, monkeypatch, capsys):
        # estimated only: the S3 group algebra has total dimension 6, so
        # 6**3 = 216 units of work, one more than the lowered budget, and
        # building the projector would raise
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 215)
        monkeypatch.setattr(gtqft.orbifold, "invariant_projector", lambda a: 1 / 0)
        status = main(["orbifold", *self.S3_GROUP_ALGEBRA])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=budget 216 units of orbifold work exceed the budget of 215\n"

    def test_work_at_the_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 216)
        assert main(["orbifold", *self.S3_GROUP_ALGEBRA]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == {"e": 3}


class TestFuzzCommand:
    def test_small_run_passes(self, capsys):
        status = run(
            RunConfig(
                command="fuzz",
                group="symmetric:3",
                algebra="builtin:group-algebra",
                seed=11,
                budget=6,
                count=150,
            )
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "150 words" in out

    def test_deterministic(self, capsys):
        cfg = RunConfig(
            command="fuzz",
            group="cyclic:4",
            algebra="builtin:group-algebra",
            seed=7,
            budget=5,
            count=50,
        )
        run(cfg)
        first = capsys.readouterr().out
        run(cfg)
        second = capsys.readouterr().out
        assert first == second

    def test_rescaled_run_makes_no_dense_product(self, tmp_path, monkeypatch, capsys):
        # the rescaled rich algebra has no identity pieces for the kernel to
        # skip, so every split of every word multiplies a suffix by a prefix
        saved = json.loads((Path(__file__).parent / "saved_algebras.json").read_text())
        path = tmp_path / "rescaled-rich-s3.json"
        path.write_text(json.dumps(saved["rescaled-rich-s3"]))
        products = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
        argv = ["--algebra", str(path), "--seed", "1", "--budget", "8", "--count", "200"]
        assert main(["fuzz", *argv]) == 0
        assert "200 words over budget 8 passed" in capsys.readouterr().out
        assert products == []

    def test_each_word_goes_through_the_probe_once(self, monkeypatch, capsys):
        calls = []
        probe = gtqft.cli.word_functoriality_witness
        monkeypatch.setattr(
            gtqft.cli, "word_functoriality_witness", lambda *a: calls.append(1) or probe(*a)
        )
        argv = ["--group", "cyclic:4", "--algebra", "builtin:group-algebra", "--count", "50"]
        assert main(["fuzz", *argv]) == 0
        assert "50 words" in capsys.readouterr().out
        assert len(calls) == 50


class TestFuzzGolden:
    """Byte-exact stdout of fuzz runs, passing and failing."""

    def _fuzz(self, capsys, *argv):
        status = main(["fuzz", *argv])
        return status, capsys.readouterr().out

    @pytest.mark.parametrize(
        "group,seed,budget,count",
        [("symmetric:3", 11, 6, 150), ("cyclic:4", 7, 5, 50)],
    )
    def test_passing_runs(self, capsys, group, seed, budget, count):
        status, out = self._fuzz(
            capsys, "--group", group, "--algebra", "builtin:group-algebra",
            "--seed", str(seed), "--budget", str(budget), "--count", str(count),
        )
        assert status == 0
        assert out == (
            f"fuzz: {count} words over budget {budget} passed functoriality, "
            f"rewrite-equality and type checks (seed={seed})\n"
        )

    S3_FAILURES = {
        0: "fuzz: rewrite equality failed at word 94\n"
        "word: id(p021) ; split(p102,p120) ; merge(p102,p120) ; "
        "split(p210,p201) ; swap(p210,p201)\n"
        "rewritten: cyl(p021;p021)\n",
        1: "fuzz: rewrite equality failed at word 7\n"
        "word: cyl(p021;e) ; split(p201,p102)\n"
        "rewritten: cyl(p021;p021)\n",
        2: "fuzz: rewrite equality failed at word 57\n"
        "word: cap * id(p021)\n"
        "rewritten: cap * cyl(p021;p021)\n",
    }

    RICH_S3_FAILURES = {
        0: "fuzz: rewrite equality failed at word 115\n"
        "word: id(p021) ; id(p021) ; id(p021) ; cyl(p021;p021) ; id(p021) ; cyl(p021;p021)\n"
        "rewritten: cyl(e;e)\n",
        3: "fuzz: rewrite equality failed at word 73\n"
        "word: cap * split(p021,p201) ; merge(e,p021) * split(p021,p102)\n"
        "rewritten: cyl(e;e) * id(e) * id(e)\n",
    }

    @staticmethod
    def _mutated(tmp_path, doc, i, value):
        # the self-conjugation of p021 is no longer the identity
        for entry in doc["action"]:
            if entry["k"] == entry["g"] == "p021" and entry["i"] == entry["j"] == i:
                entry["value"] = value
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("seed", sorted(S3_FAILURES))
    def test_failing_group_algebra(self, tmp_path, s3, capsys, seed):
        path = self._mutated(tmp_path, save_algebra(group_algebra(s3)), 0, "-1")
        status, out = self._fuzz(capsys, "--algebra", path, "--seed", str(seed), "--budget", "6")
        assert status == 1
        assert out == self.S3_FAILURES[seed]

    @pytest.mark.parametrize("seed", sorted(RICH_S3_FAILURES))
    def test_failing_rich_algebra(self, tmp_path, s3, capsys, seed):
        doc = save_algebra(dual_number_group_algebra(s3))
        path = self._mutated(tmp_path, doc, 1, "1/2")
        status, out = self._fuzz(capsys, "--algebra", path, "--seed", str(seed), "--budget", "6")
        assert status == 1
        assert out == self.RICH_S3_FAILURES[seed]

    FORCED = ("--group", "symmetric:3", "--algebra", "builtin:group-algebra", "--seed", "3")

    def test_functoriality_failure_report(self, monkeypatch, capsys):
        # every word of more than one layer fails, so the first word is
        # reported and shrinks to two layers
        real = gtqft.cli.word_functoriality_witness

        def fails(ev, word):
            value, _ = real(ev, word)
            if len(word.layers) > 1:
                return value, Witness((("split-after-layer", "1"),), "(1)", "(0)")
            return value, None

        # the fuzz loop's own pass and the minimizer's probe both call it
        monkeypatch.setattr(gtqft.cli, "word_functoriality_witness", fails)
        status, out = self._fuzz(capsys, *self.FORCED, "--budget", "6", "--count", "20")
        assert status == 1
        assert out == (
            "fuzz: functoriality failed at word 0\n"
            "word: split(p021,p120) ; swap(p021,p120) ; cyl(p120;p102) * cyl(p021;p201) ; "
            "cyl(p201;p201) * id(p102)\n"
            "minimized: cyl(p120;p102) * cyl(p021;p201) ; cyl(p201;e) * id(p102)\n"
            "witness: {'split-after-layer': '1'}\n"
        )

    def test_tensor_failure_report(self, monkeypatch, capsys):
        # the separate value of two words is zero, so the first tensor check
        # (word 10 beside word 9) fails
        def zero_kron(left, right):
            return Matrix.zeros(left.rows * right.rows, left.cols * right.cols)

        monkeypatch.setattr(Matrix, "kron", zero_kron)
        status, out = self._fuzz(capsys, *self.FORCED, "--budget", "6", "--count", "20")
        assert status == 1
        assert out == (
            "fuzz: tensor functoriality failed at word 10\n"
            "left: id(p201) ; cyl(p201;e) ; cyl(p201;p201) ; cyl(p201;p102) ; cyl(p120;p201) ; "
            "split(p102,p021)\n"
            "right: cap ; cap * cyl(e;e) ; merge(e,e) ; cyl(e;p120) ; id(e)\n"
        )

    @pytest.mark.parametrize("flag,value", [("--budget", "0"), ("--count", "-5")])
    def test_invalid_arguments_are_parse_errors(self, capsys, flag, value):
        status = main(
            ["fuzz", "--group", "cyclic:2", "--algebra", "builtin:group-algebra", flag, value]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "error: category=parse" in captured.err
        assert captured.out == ""


class TestArguments:
    """Options not given on the command line keep the `RunConfig` defaults."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["fuzz", "--algebra", "a.json"], RunConfig(command="fuzz", algebra="a.json")),
            (
                ["fuzz", "--algebra", "a.json", "--seed", "3", "--budget", "5", "--count", "0"],
                RunConfig(command="fuzz", algebra="a.json", seed=3, budget=5, count=0),
            ),
            (
                ["check", "--group", "cyclic:2", "--algebra", "b", "--format", "records"],
                RunConfig(command="check", group="cyclic:2", algebra="b", fmt="records"),
            ),
            (
                ["cerf", "--algebra", "a.json", "--case", "202", "--all-labels"],
                RunConfig(command="cerf", algebra="a.json", case="202", all_labels=True),
            ),
            (
                ["cerf", "--algebra", "a.json", "--case", "twist", "--labels", "e,g1"],
                RunConfig(command="cerf", algebra="a.json", case="twist", labels="e,g1"),
            ),
            (
                ["cerf", "--algebra", "a.json", "--case", "pants", "--all-labels"],
                RunConfig(command="cerf", algebra="a.json", case="pants", all_labels=True),
            ),
        ],
    )
    def test_config(self, argv, expected):
        assert config_from_args(build_parser().parse_args(argv)) == expected

    def test_cerf_cases_are_the_table(self):
        for case in CERF_CASES:
            args = build_parser().parse_args(["cerf", "--algebra", "a.json", "--case", case])
            assert args.case == case
        with pytest.raises(SchemaError, match="invalid choice: 'nope'"):
            build_parser().parse_args(["cerf", "--algebra", "a.json", "--case", "nope"])

    def test_defaults(self):
        config = RunConfig(command="fuzz")
        assert (config.seed, config.budget, config.count, config.fmt) == (0, 8, 1000, "human")


class TestMinimize:
    def test_greedy_layer_deletion(self, s3):
        word = parse_word(
            "split(p021,p021) ; id(p021) * id(p021) ; merge(p021,p021) ; id(e) ; cyl(e;p120)",
            s3,
        )

        def has_split(w):
            return any(p.kind is PieceKind.SPLIT for layer in w.layers for p in layer)

        shrunk = minimize_word(word, has_split)
        assert has_split(shrunk)
        assert len(shrunk.layers) == 1

    def test_label_simplification(self, s3):
        word = parse_word("cyl(p120;p021)", s3)

        def has_cyl(w):
            return any(p.kind is PieceKind.CYL for layer in w.layers for p in layer)

        shrunk = minimize_word(word, has_cyl)
        assert shrunk.layers[0][0].labels == (s3.identity, s3.identity)

    def test_a_mistyped_candidate_is_skipped(self, s3):
        # three conjugating cylinders; dropping the middle one leaves a gap
        g, k = s3.index("p021"), s3.index("p120")
        h = s3.conj(k, g)
        h2 = s3.conj(k, h)
        assert h2 != h
        word = Cobordism(s3, ((cyl(g, k),), (cyl(h, k),), (cyl(h2, k),)))
        candidates = list(gtqft.cli._well_typed(s3, gtqft.cli._layer_drops(word)))
        assert [c.layers for c in candidates] == [word.layers[1:], word.layers[:2]]

    def test_an_engine_fault_while_building_a_candidate_propagates(self, monkeypatch, s3):
        # only a mistyped candidate is skipped; any other error is a fault to report
        def faulty(group, layers):
            raise gtqft.errors.EngineError("fault")

        word = parse_word("cyl(p120;p021) ; id(p201)", s3)
        monkeypatch.setattr(gtqft.cli, "Cobordism", faulty)
        with pytest.raises(gtqft.errors.EngineError, match="^fault$"):
            minimize_word(word, lambda w: True)


class TestMainEntry:
    def test_main_check(self, capsys):
        status = main(["check", "--group", "cyclic:2", "--algebra", "builtin:group-algebra"])
        assert status == 0
        capsys.readouterr()

    def test_records_format(self, capsys):
        status = main(
            [
                "check",
                "--group",
                "cyclic:2",
                "--algebra",
                "builtin:group-algebra",
                "--format",
                "records",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        summary, *checks = [json.loads(line) for line in out.splitlines()]
        assert summary == {"record": "summary", "passed": len(checks), "failed": 0}
        assert len(checks) >= 10 and all(r["passed"] for r in checks)

    def test_missing_algebra_file(self, capsys):
        status = main(["check", "--algebra", "/nonexistent/path.json"])
        captured = capsys.readouterr()
        assert status == 2
        assert "error:" in captured.err

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys):
        # the associativity witness of this algebra names basis index 1
        # through the one-element group, which raises IndexError
        product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 2})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(save_algebra(frobenius_untwisted(2, product, (1, 0), (0, 1)))))
        status = main(["check", "--algebra", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: category=internal IndexError: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_an_output_error(self, unbuffered):
        # the read end is closed before the run starts, so no write can race it
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(gtqft.cli.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = ["check", "--group", "cyclic:3", "--algebra", "builtin:group-algebra"]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "gtqft.cli", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr.startswith("error: category=output ")
        assert len(done.stderr.splitlines()) == 1


class TestReachableUsageOutputs:
    """Outputs that `main` reaches on flags argparse cannot judge alone, and
    what `run` does with a `RunConfig` that argparse never built."""

    def test_the_group_algebra_needs_a_group(self, capsys):
        status = main(["check", "--algebra", "builtin:group-algebra"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=parse builtin:group-algebra needs --group\n"

    def test_cerf_needs_a_labels_flag(self, capsys):
        argv = ["cerf", "--group", "cyclic:2", "--algebra", "builtin:group-algebra"]
        status = main([*argv, "--case", "111"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=parse cerf needs --labels or --all-labels\n"

    def test_derive_prints_empty_grades(self, tmp_path, zero_grade_z3, capsys):
        path = tmp_path / "zero-grade.json"
        path.write_text(json.dumps(save_algebra(zero_grade_z3)))
        assert main(["derive", "--algebra", str(path)]) == 0
        splitting = "(matrix of the splitting map, rows flatten the two output legs):"
        euler = "(rows: grade, cols: inverse grade):"
        identity_block = ["[ 0  1 ]", "[ 1  0 ]"]
        expected = ["pairing[e]:", *identity_block]
        expected += [line for g in ("g1", "g2") for line in (f"pairing[{g}]:", "[ ] (0x0)")]
        expected += [f"euler-element[e] {euler}", *identity_block]
        for g in ("g1", "g2"):
            expected += [f"euler-element[{g}] {euler}", "[ ] (0x0)"]
        expected += [f"coproduct[e,e] {splitting}", "[ 0  0 ]", "[ 1  0 ]", "[ 1  0 ]", "[ 0  1 ]"]
        for g, h in itertools.product(("e", "g1", "g2"), repeat=2):
            if (g, h) != ("e", "e"):
                # (g1, g2) and (g2, g1) split the two-dimensional e grade
                shape = "0x2" if {g, h} == {"g1", "g2"} else "0x0"
                expected += [f"coproduct[{g},{h}] {splitting}", f"[ ] ({shape})"]
        assert capsys.readouterr().out.splitlines() == expected

    S3 = {"group": "symmetric:3", "algebra": "builtin:group-algebra"}

    @pytest.mark.parametrize(
        "config,err",
        [
            (
                RunConfig(command="check"),
                "error: category=parse empty source: expected a file name or an inline value",
            ),
            (
                RunConfig(command="eval", **S3),
                "error: category=parse empty source: expected a file name or an inline value",
            ),
            (
                RunConfig(command="cerf", all_labels=True, **S3),
                "error: category=type unknown move case None; expected one of "
                "('111', '202', '301', '103', 'cylinder', 'twist', 'pants')",
            ),
            (
                RunConfig(command="frobnicate", **S3),
                "error: category=internal KeyError: 'frobnicate'",
            ),
        ],
        ids=["no-algebra", "no-cobordism", "no-case", "unknown-command"],
    )
    def test_a_config_argparse_never_built(self, capsys, config, err):
        # `main` cannot build these: argparse requires the flags and knows the commands
        status = run(config)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == err + "\n"
