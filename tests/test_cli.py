import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordanform.cli
from jordanform import Mat
from jordanform.cli import (
    EmptyInput,
    EXIT_INTERNAL,
    ParseError,
    RaggedRows,
    _matrix_rows,
    parse_matrix_json,
    parse_matrix_text,
    run,
)

from helpers import CONJUGATE_5X5_A, CONJUGATE_5X5_B, MIXED_4X4, ROTATION_2X2


class TestParseText:
    def test_simple(self):
        assert parse_matrix_text("0 1\n0 0\n") == Mat([[0, 1], [0, 0]])
        # Rows end at \n only, and only ASCII whitespace separates entries.
        assert parse_matrix_text("1 2\r\n3 4\r\n") == Mat([[1, 2], [3, 4]])
        assert parse_matrix_text("1 2\x0c3 4") == Mat([[1, 2, 3, 4]])
        for text in ("1\u30002\n3 4", "1 2\u20283 4"):
            with pytest.raises(ParseError):
                parse_matrix_text(text)

    def test_fractions_and_negatives(self):
        assert parse_matrix_text("1/2 -3\n0 4\n") == Mat([["1/2", -3], [0, 4]])

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1 0\n  # indented comment\n0 1\n"
        assert parse_matrix_text(text) == Mat.identity(2)

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            parse_matrix_text("1 2\n3\n")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_matrix_text("# nothing here\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_matrix_text("1 2\n3 x\n", source="m.txt")
        assert "m.txt:2:3" in str(info.value)

    def test_bad_token_position_is_its_own_offset(self):
        # The bad token "/2" also occurs inside the earlier token "1/2".
        with pytest.raises(ParseError) as info:
            parse_matrix_text("1/2 /2\n")
        assert str(info.value) == "<input>:1:5: bad rational token '/2'"


class TestParseJson:
    def test_integer_entries(self):
        assert parse_matrix_json('{"matrix": [[0, 1], [0, 0]]}') == Mat([[0, 1], [0, 0]])

    def test_string_entries(self):
        m = parse_matrix_json('{"matrix": [["1/2", "-3"], ["0", "4"]]}')
        assert m == Mat([["1/2", -3], [0, 4]])

    def test_ragged(self):
        with pytest.raises(RaggedRows):
            parse_matrix_json('{"matrix": [[1], [2, 3]]}')

    @pytest.mark.parametrize("entry", ["0.5", "true", "null", "[1]", '"1.5"'])
    def test_rejects_floats(self, entry):
        with pytest.raises(ParseError):
            parse_matrix_json(f'{{"matrix": [[{entry}]]}}')

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_matrix_json("{matrix:")

    def test_rejects_missing_key(self):
        with pytest.raises(ParseError):
            parse_matrix_json('{"rows": [[1]]}')

    def test_round_trip(self):
        # The rows `jordan --json` prints for J and P read back as input.
        m = Mat([["1/2", -3], [0, 4]])
        assert parse_matrix_json(json.dumps({"matrix": _matrix_rows(m)})) == m


def write_matrix(path, m: Mat) -> str:
    lines = [" ".join(str(x) for x in m.row(i)) for i in range(m.nrows)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    return write_matrix(tmp_path / "mixed.txt", MIXED_4X4)


class TestJordanCommand:
    def test_human_output(self, mixed_file, capsys):
        assert run(["jordan", mixed_file]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue 2: blocks [2, 1]" in out
        assert "eigenvalue 4: blocks [1]" in out
        assert "J =" in out and "P =" in out

    def test_machine_output(self, mixed_file, capsys):
        assert run(["jordan", mixed_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == [
            {"value": "2", "blocks": [2, 1]},
            {"value": "4", "blocks": [1]},
        ]
        assert payload["J"] == [
            ["2", "1", "0", "0"],
            ["0", "2", "0", "0"],
            ["0", "0", "2", "0"],
            ["0", "0", "0", "4"],
        ]
        p = Mat(payload["P"])
        j = Mat(payload["J"])
        assert MIXED_4X4 * p == p * j
        assert p.rank() == 4

    def test_machine_output_is_stable(self, mixed_file, capsys):
        run(["jordan", mixed_file, "--json"])
        first = capsys.readouterr().out
        run(["jordan", mixed_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_irrational_spectrum_exit_code(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "rot.txt", ROTATION_2X2)
        assert run(["jordan", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "x^2 + 1" in captured.err

    def test_json_input_format(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": _matrix_rows(MIXED_4X4)}))
        assert run(["jordan", str(path)]) == 0
        assert "eigenvalue 2" in capsys.readouterr().out

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n0 0\n"))
        assert run(["jordan", "-"]) == 0
        assert "eigenvalue 0: blocks [2]" in capsys.readouterr().out


class TestBlocksCommand:
    def test_eigenvalue_two(self, mixed_file, capsys):
        assert run(["blocks", mixed_file, "--eigenvalue", "2"]) == 0
        out = capsys.readouterr().out
        assert "d-sequence: 2 1 0" in out
        assert "block sizes: 2 1" in out

    def test_not_an_eigenvalue(self, mixed_file, capsys):
        assert run(["blocks", mixed_file, "--eigenvalue", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an eigenvalue" in captured.err

    def test_bad_eigenvalue_token(self, mixed_file, capsys):
        assert run(["blocks", mixed_file, "--eigenvalue", "2.5"]) == 2

    def test_rational_eigenvalue_beside_an_irrational_pair(self, tmp_path, capsys):
        # The spectrum of rotation (+) [2] is not all rational, so `blocks`
        # must read the multiplicity of 2 without computing every eigenvalue.
        path = write_matrix(tmp_path / "r.txt", Mat([[0, -1, 0], [1, 0, 0], [0, 0, 2]]))
        assert run(["blocks", path, "--eigenvalue", "2"]) == 0
        assert capsys.readouterr().out == "d-sequence: 1 0\nblock sizes: 1\n"


class TestSimilarCommand:
    def test_similar_pair(self, tmp_path, capsys):
        fa = write_matrix(tmp_path / "a.txt", CONJUGATE_5X5_A)
        fb = write_matrix(tmp_path / "b.txt", CONJUGATE_5X5_B)
        assert run(["similar", fa, fb]) == 0
        assert capsys.readouterr().out == "similar\n"

    def test_witness_satisfies_conjugation(self, tmp_path, capsys):
        fa = write_matrix(tmp_path / "a.txt", CONJUGATE_5X5_A)
        fb = write_matrix(tmp_path / "b.txt", CONJUGATE_5X5_B)
        assert run(["similar", fa, fb, "--witness"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()[2:]]
        s = Mat(rows)
        assert CONJUGATE_5X5_A * s == s * CONJUGATE_5X5_B

    def test_not_similar(self, tmp_path, capsys):
        fa = write_matrix(tmp_path / "a.txt", Mat([[0, 1], [0, 0]]))
        fb = write_matrix(tmp_path / "b.txt", Mat.zeros(2, 2))
        assert run(["similar", fa, fb]) == 1
        assert capsys.readouterr().out == "not similar\n"

    def test_dimension_mismatch(self, tmp_path, capsys):
        fa = write_matrix(tmp_path / "a.txt", Mat.zeros(2, 2))
        fb = write_matrix(tmp_path / "b.txt", Mat.zeros(3, 3))
        assert run(["similar", fa, fb]) == 4
        assert capsys.readouterr().out == ""


class TestExpmCommand:
    def test_shift_block(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "n.txt", Mat([[0, 1], [0, 0]]))
        assert run(["expm", path]) == 0
        out = capsys.readouterr().out
        assert "exp(0*t) *" in out
        assert "[1, t]" in out and "[0, 1]" in out

    def test_irrational(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "rot.txt", ROTATION_2X2)
        assert run(["expm", path]) == 3
        assert capsys.readouterr().out == ""


class TestValidateCommand:
    def test_valid_decomposition(self, tmp_path, capsys):
        from jordanform import jordan_form

        dec = jordan_form(MIXED_4X4)
        fa = write_matrix(tmp_path / "a.txt", MIXED_4X4)
        fp = write_matrix(tmp_path / "p.txt", dec.p)
        fj = write_matrix(tmp_path / "j.txt", dec.j)
        assert run(["validate", fa, "--p", fp, "--j", fj]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_invalid_decomposition(self, tmp_path, capsys):
        fa = write_matrix(tmp_path / "a.txt", MIXED_4X4)
        fp = write_matrix(tmp_path / "p.txt", Mat.identity(4))
        fj = write_matrix(tmp_path / "j.txt", Mat.identity(4))
        assert run(["validate", fa, "--p", fp, "--j", fj]) == 1
        assert capsys.readouterr().out == "invalid\n"


class TestErrorPaths:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        assert run(["jordan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    def test_invalid_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n\xff\xfe 3\n")
        assert run(["jordan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no integer string conversion limit",
    )
    def test_json_integer_over_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "big.json"
        path.write_text('{"matrix": [[' + digits + "]]}")
        assert run(["jordan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON")

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run(["jordan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON")

    def test_non_ascii_digits_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("\uff13\n", encoding="utf-8")  # FULLWIDTH DIGIT THREE
        assert run(["jordan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad rational token" in captured.err

    def test_missing_file(self, capsys):
        assert run(["jordan", "/no/such/file.txt"]) == 2
        assert capsys.readouterr().out == ""

    def test_non_square(self, tmp_path, capsys):
        path = tmp_path / "rect.txt"
        path.write_text("1 2 3\n4 5 6\n")
        assert run(["jordan", str(path)]) == 4
        assert capsys.readouterr().out == ""

    def test_usage_error(self, capsys):
        assert run(["jordan"]) == 2
        assert run(["frobnicate"]) == 2
        assert run([]) == 2

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n0 0\n")
        assert run(["blocks", str(path), "--eigenvalue", "0"]) == 0
        first = capsys.readouterr()

        def forbidden():
            raise AssertionError("parser rebuilt for a second command")

        monkeypatch.setattr(jordanform.cli, "build_parser", forbidden)
        assert run(["blocks", str(path), "--eigenvalue", "0"]) == 0
        assert capsys.readouterr() == first
        assert run(["blocks", str(path)]) == 2
        assert "--eigenvalue" in capsys.readouterr().err


class TestInternalErrors:
    """Failures that are neither a negative answer nor bad input exit 5."""

    @pytest.mark.parametrize("error", [AssertionError("A P != P J"), ValueError("bug")])
    def test_exit_code_and_message(self, error, mixed_file, monkeypatch, capsys):
        def failing(a):
            raise error

        monkeypatch.setattr(jordanform.cli, "jordan_form", failing)
        assert run(["jordan", mixed_file, "--json"]) == EXIT_INTERNAL == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: internal: {type(error).__name__}: {error}\n"

    def test_main_passes_the_exit_code_through(self, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("1 2 3\n4 5 6\n")
        src = str(Path(jordanform.cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "jordanform.cli", "jordan", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == f"error: {path}: matrix is 2x3, expected square and nonempty\n"
