import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import spincalc
from spincalc import construct
from spincalc.construct import (
    CP,
    Bundle,
    CSum,
    ConstructionExpr,
    DehnRHS,
    IHS3,
    Lens,
    Prod,
    Sphere,
    Spin,
    Surface,
)
from spincalc.dsl import KINDS, ParseError, evaluate, evaluate_text, parse

leaves = st.one_of(
    st.builds(Sphere, st.integers(0, 20)),
    st.builds(CP, st.integers(0, 9)),
    st.builds(Surface, st.integers(0, 9)),
    st.builds(Lens, st.integers(0, 30), st.integers(0, 15)),
    st.builds(DehnRHS, st.integers(0, 50)),
    st.just(IHS3()),
    st.builds(Bundle, st.integers(0, 5), st.integers(-9, 9).filter(lambda d: d != 0)),
)
exprs = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Spin, st.integers(0, 6), sub),
        st.builds(CSum, sub, sub),
        st.builds(Prod, sub, sub),
    ),
    max_leaves=12,
)


class TestParse:
    def test_main_theorem_expression(self):
        assert parse("csum(E(1,7), spin(4, N(7)))") == CSum(
            Bundle(1, 7), Spin(4, DehnRHS(7))
        )

    def test_nested_spins(self):
        assert parse("spin(1, spin(1, spin(1, spin(1, N(7)))))") == Spin(
            1, Spin(1, Spin(1, Spin(1, DehnRHS(7))))
        )

    def test_whitespace_insensitive(self):
        assert parse(" prod( S(2) ,\n S(3) ) ") == Prod(Sphere(2), Sphere(3))

    def test_negative_euler_multiple(self):
        assert parse("E(2,-5)") == Bundle(2, -5)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("csum(S(3), )")
        assert exc.value.line == 1
        assert exc.value.column == 12

    def test_error_on_second_line(self):
        with pytest.raises(ParseError) as exc:
            parse("spin(1,\n  ?)")
        assert exc.value.line == 2

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse("torus(1)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("S(3) S(4)")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse("spin(1, S(3)")

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("", 1, 1, "expected 'a generator or combinator name', found 'end of input'"),
            ("\n", 2, 1, "expected 'a generator or combinator name', found 'end of input'"),
            ("foo", 1, 4, "expected '(', found 'end of input'"),
            ("IHS3(", 1, 5, "unexpected trailing input '('"),
            ("foo(1)", 1, 1,
             "unknown name 'foo'; expected one of S, CP, Sigma, L, N, IHS3, E, spin, csum, prod"),
            ("S(-1)", 1, 3, "expected a nonnegative integer, found -1"),
            ("spin(1,\n  ?)", 2, 3, "unexpected character '?'"),
            ("csum(S(3),\n\n  S(4)", 3, 7, "expected ')', found 'end of input'"),
            ("S(3)\r\n)", 2, 1, "unexpected trailing input ')'"),
            ("-x", 1, 1, "unexpected character '-'"),
            ("S(--1)", 1, 3, "unexpected character '-'"),
            ("L(3 5)", 1, 5, "expected ',', found '5'"),
            ("\u00e9", 1, 2, "expected '(', found 'end of input'"),  # a lone letter is a name
        ],
    )
    def test_malformed_input(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{line}:{column}: {message}"

    @given(exprs)
    def test_round_trip(self, ast):
        assert parse(str(ast)) == ast


class TestNodeTable:
    def test_one_row_per_node_class(self):
        nodes = [kind.node for kind in KINDS]
        for cls in ConstructionExpr.__subclasses__():
            assert nodes.count(cls) == 1, cls
        assert len(nodes) == len(ConstructionExpr.__subclasses__())

    def test_rows_match_their_classes(self):
        for kind in KINDS:
            assert len(kind.fields) == len(kind.node.__match_args__)
            assert callable(getattr(construct, kind.build))
            assert "__str__" not in vars(kind.node)


def run_batch(command: str, text: str) -> subprocess.CompletedProcess:
    src = Path(spincalc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "spincalc.cli", command, "-"],
        input=text, capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "command, depth", [("eval", 300), ("chirality", 900), ("degrees", 900), ("validate", 900)]
)
def test_deep_spin_chain_is_answered(command, depth):
    """Parsing, printing and evaluating cost one Python frame per nesting level."""
    result = run_batch(command, "spin(1," * depth + "S(3)" + ")" * depth + "\n")
    assert (result.returncode, result.stderr) == (0, "")


def test_too_deep_line_is_reported_and_the_batch_goes_on():
    deep = "spin(1," * 1500 + "S(3)" + ")" * 1500
    result = run_batch("eval", f"S(3)\n{deep}\nN(7)\n")
    assert result.stdout.count("expression:") == 2
    assert "expression:    N(7)" in result.stdout
    assert result.stderr == "error: line 2: expression nested too deeply\n"
    assert result.returncode == 2


class TestEvaluate:
    def test_dehn_descriptor(self):
        m = evaluate_text("N(7)")
        assert m.dim == 3
        assert str(m.homology.group(1)) == "Z_14"

    def test_three_sphere(self):
        m = evaluate_text("S(3)")
        assert m.dim == 3 and m.connectivity == 2

    def test_table_row(self):
        m = evaluate_text("spin(2, spin(2, N(7)))")
        assert m.dim == 7
        assert str(m.homology.group(3)) == "Z_14^2"

    def test_semantic_error_spin_radius(self):
        with pytest.raises(ValueError, match="spin radius"):
            evaluate_text("spin(0, S(3))")

    def test_semantic_error_nonprime_dehn(self):
        with pytest.raises(ValueError, match="prime"):
            evaluate_text("N(4)")

    def test_semantic_error_even_lens(self):
        with pytest.raises(ValueError, match="odd"):
            evaluate_text("L(3,4)")

    def test_referential_transparency_modulo_ids(self):
        text = "csum(E(1,7), spin(4, N(7)))"
        a, b = evaluate_text(text), evaluate_text(text)
        assert a.homology == b.homology
        assert a.dim == b.dim
        assert a.connectivity == b.connectivity
        assert {type(f) for f in a.facts} == {type(f) for f in b.facts}

    def test_rejects_non_expression(self):
        with pytest.raises(TypeError):
            evaluate("S(3)")  # a string is not an AST
