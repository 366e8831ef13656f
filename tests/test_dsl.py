import gc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expreg.dsl import (
    IndexOutOfRange,
    ParseError,
    parse_colouring,
    parse_matrix,
    parse_system,
    print_colouring,
    print_matrix,
    print_system,
)
from expreg.eqsys import Edge
from expreg.rado import IntMatrix
from expreg.search import Mod, OmegaOf, RadoP, RadoPNu, Table

from helpers import systems_strategy


class TestParseSystem:
    def test_shared_head_example(self):
        s = parse_system("system 4\neq X1 ^ Y1*Y2 = X3\neq X2 ^ Y3*Y4 = X3\n")
        assert s.num_vertices == s.num_y == 4
        assert s.edges == (Edge(1, 3, (1, 1, 0, 0)), Edge(2, 3, (0, 0, 1, 1)))

    def test_parallel_edges_example(self):
        s = parse_system("system 2\neq X1 ^ Y1^2 = X2\neq X1 ^ Y2 = X2\n")
        assert s.edges == (Edge(1, 2, (2, 0)), Edge(1, 2, (0, 1)))

    def test_tautology(self):
        s = parse_system("system 1\neq X1 ^ 1 = X1\n")
        assert s.edges == (Edge(1, 1, (0,)),)

    def test_edge_statement(self):
        s = parse_system("system 3\nedge 2 1 : 0 -2 5\n")
        assert s.edges == (Edge(2, 1, (0, -2, 5)),)

    def test_mixed_statements_and_comments(self):
        text = "# header\nsystem 2\neq X1 ^ Y1 = X2  # sugar\n\nedge 2 1 : 0 1\n"
        s = parse_system(text)
        assert s.edges == (Edge(1, 2, (1, 0)), Edge(2, 1, (0, 1)))

    def test_crlf(self):
        s = parse_system("system 1\r\neq X1 ^ Y1 = X1\r\n")
        assert s.edges == (Edge(1, 1, (1,)),)

    def test_repeated_y_sums(self):
        a = parse_system("system 1\neq X1 ^ Y1*Y1 = X1\n")
        b = parse_system("system 1\neq X1 ^ Y1^2 = X1\n")
        assert a == b

    def test_negative_exponent(self):
        s = parse_system("system 2\neq X1 ^ Y1^-2*Y2 = X2\n")
        assert s.edges == (Edge(1, 2, (-2, 1)),)


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_system("eq X1 ^ Y1 = X1\n")
        assert err.value.line == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as err:
            parse_system("system 2\neq X1 ^ Y3 = X2\n")
        assert err.value.line == 2
        assert err.value.column == 9

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse_system("system 2\neq X1 ^ Y1 + Y2 = X2\n")
        assert (err.value.line, err.value.column) == (2, 12)

    def test_short_coefficient_row(self):
        with pytest.raises(ParseError) as err:
            parse_system("system 3\nedge 1 2 : 1 2\n")
        assert err.value.line == 2

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_system("system 1\neq X1 ^ Y1 = X1 X1\n")

    @pytest.mark.parametrize(
        "line,message,column",
        [
            ("eq X1 ^ Y1+ = X2", "unexpected character '+'", 11),
            ("eq X1 ^ Y1 = X2;", "unexpected character ';'", 16),
            ("eq X1 ^ Y1 = X2 ;  ", "unexpected character ';'", 17),
            ("eq X1 ^ Y1^- = X2", "unexpected character '-'", 12),
            ("eq Z1 ^ Y1 = X2", "expected X-variable, found 'Z1'", 4),
            ("eq X ^ Y1 = X2", "expected X-variable, found 'X'", 4),
            ("eq X1a ^ Y1 = X2", "expected X-variable, found 'X1a'", 4),
            ("eq X1 ^ Y0 = X2", "Y0 out of range 1..2", 9),
            ("eq X1 ^ Y1 = X03", "X03 out of range 1..2", 14),
            ("eq X1 ^ Y1^", "expected exponent, found end of line", 12),
            ("eq X1 ^ Y1^  ", "expected exponent, found end of line", 14),
            # a symbol where another symbol belongs
            ("eq X1 * Y1 = X2", "expected '^', found '*'", 7),
            ("eq X1 ^ Y1 : X2", "expected '=', found ':'", 12),
            ("edge 1 2 = 1 1", "expected ':', found '='", 10),
            ("eq X1 ^ Y1 * = X2", "expected Y-variable, found '='", 14),
            ("eq X1 ^ Y1 ^ Y2 = X2", "expected exponent, found 'Y2'", 14),
            ("eq X1 ^ Y1", "expected '=', found end of line", 11),
            ("eq X1 ^ Y1 = X2 X1", "unexpected trailing 'X1'", 17),
            ("edge 3 1 : 1 1", "tail 3 out of range 1..2", 6),
            ("edge 1 0 : 1 1", "head 0 out of range 1..2", 8),
            ("system 2", "duplicate 'system' header", 1),
            ("equation X1 ^ Y1 = X2", "unknown statement 'equation'", 1),
        ],
    )
    def test_error_position(self, line, message, column):
        with pytest.raises(ParseError) as err:
            parse_system(f"system 2\n{line}\n")
        assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)

    @pytest.mark.parametrize("header", ["system 0", "system -1"])
    def test_variable_count_below_one(self, header):
        with pytest.raises(ParseError) as err:
            parse_system(f"{header}\n")
        assert (err.value.message, err.value.line, err.value.column) == (
            "variable count must be at least 1",
            1,
            1,
        )


@settings(max_examples=500, deadline=None)
@given(systems_strategy(max_n=5, max_edges=6, coeff=9))
def test_round_trip(s):
    assert parse_system(print_system(s)) == s


def test_fixtures_are_canonical():
    from helpers import FIXTURES

    for path in sorted(FIXTURES.glob("*.xps")):
        text = path.read_text()
        assert print_system(parse_system(text)) == text


@settings(max_examples=400, deadline=None)
@given(st.text(min_size=0, max_size=120))
@example("system 1\neq X1 ^ Y1 = X1")
@example("system\x00 1")
def test_fuzz_never_crashes(text):
    try:
        parse_system(text)
    except ParseError:
        pass


class TestMatrix:
    def test_parse_single_row(self):
        m = parse_matrix("1 1 -1\n")
        assert m == IntMatrix.from_rows([[1, 1, -1]])

    def test_round_trip(self):
        m = IntMatrix.from_rows([[2, -1], [0, 3]])
        assert parse_matrix(print_matrix(m)) == m

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1 2\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("# nothing\n")

    def test_non_integer_token_rejected(self):
        with pytest.raises(ParseError, match=r"line 2, column 3: expected integer, found 'y'"):
            parse_matrix("1 2\n3 y\n")


class TestColouringSpecs:
    def test_simple_kinds(self):
        assert parse_colouring("mod:5") == Mod(5)
        assert parse_colouring("radop:3") == RadoP(3)
        assert parse_colouring("radop-nu:3") == RadoPNu(3)
        assert parse_colouring("omega:mod:2") == OmegaOf(Mod(2))

    def test_mod_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_colouring("mod:0")

    def test_composite_prime_rejected(self):
        with pytest.raises(ParseError):
            parse_colouring("radop:4")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_colouring("palette:3")

    def test_missing_colon(self):
        with pytest.raises(ParseError, match="expected 'kind:argument', found 'mod5'"):
            parse_colouring("mod5")

    def test_missing_table_file(self, tmp_path):
        with pytest.raises(ParseError, match="column 7: cannot read table file"):
            parse_colouring(f"table:{tmp_path / 'absent.txt'}")

    def test_non_integer_argument(self):
        with pytest.raises(ParseError, match="column 5: expected integer argument, found 'x'"):
            parse_colouring("mod:x")

    def test_table_file(self, tmp_path):
        path = tmp_path / "colours.txt"
        path.write_text("default 3\n1 2 1\n")
        spec = parse_colouring(f"table:{path}")
        assert spec == Table((1, 2, 1), default=3)

    def test_table_file_is_closed(self, tmp_path):
        path = tmp_path / "colours.txt"
        path.write_text("default 3\n1 2 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_colouring(f"table:{path}")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_print_round(self):
        texts = (
            "const:2",
            "mod:5",
            "radop:3",
            "radop-nu:3",
            "radop-nu:13",
            "omega:mod:4",
            "omega:radop-nu:3",
            "omega:omega:const:0",
        )
        for text in texts:
            assert print_colouring(parse_colouring(text)) == text

    def test_print_table_file(self, tmp_path):
        # a table prints its colours, not the file they came from, and the
        # printed form reads back as the same table
        path = tmp_path / "colours.txt"
        for content, printed in (
            ("default 3\n1 2 1\n", "table[default 3: 1 2 1]"),
            ("4 0\n", "table[default 0: 4 0]"),
            ("default 2\n", "table[default 2: ]"),
        ):
            path.write_text(content)
            for outer in ("", "omega:", "omega:omega:"):
                spec = parse_colouring(f"{outer}table:{path}")
                assert print_colouring(spec) == outer + printed
                assert parse_colouring(outer + printed) == spec
                assert print_colouring(parse_colouring(outer + printed)) == outer + printed

    @pytest.mark.parametrize(
        "text",
        ["table[default x: 1 2]", "table[default 3: 1 y]", "table[default -1: 1]", "table[3: 1]"],
    )
    def test_printed_table_errors(self, text):
        with pytest.raises(ParseError):
            parse_colouring(text)

    def test_print_rejects_other_values(self):
        with pytest.raises(TypeError):
            print_colouring(5)
