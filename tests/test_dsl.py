import functools
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import spincalc
from spincalc import cli, construct, dsl
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

from helpers import corpus, random_ast, reference_evaluate

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

    def test_referential_transparency(self):
        text = "csum(E(1,7), spin(4, N(7)))"
        assert evaluate_text(text) == evaluate_text(text)

    def test_rejects_non_expression(self):
        with pytest.raises(TypeError):
            evaluate("S(3)")  # a string is not an AST


@pytest.fixture
def empty_table(monkeypatch):
    """The process's hash-consing table, empty for this test and restored after it."""
    for name in ("_nodes", "_lines"):
        monkeypatch.setattr(dsl, name, {})


class TestMemo:
    """One command builds each distinct sub-expression of its lines once."""

    def test_equal_sub_expressions_are_one_node(self, empty_table):
        ast = parse("csum(spin(1,IHS3),spin(1, IHS3))")
        assert ast.left is ast.right
        assert parse("IHS3") is ast.left.child
        assert parse("prod(IHS3,N(7))").left is ast.left.child
        assert len(dsl._nodes) == 5  # added to the table: IHS3, spin, csum, N(7), prod

    def test_repeated_lines_build_each_node_at_most_twice_per_call(self, monkeypatch, capsys):
        calls = {"product": 0, "lens": 0}
        for name in calls:

            def counted(*args, real=getattr(construct, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(construct, name, counted)
        line = "prod(L(3,101),L(3,101))\n"
        counts = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(line * 50))
            assert cli.main(["eval", "-"]) == 0
            assert capsys.readouterr().out.count("expression:    prod(L(3,101),L(3,101))") == 50
            counts.append(dict(calls))
        assert counts[0]["product"] <= 2 and counts[0]["lens"] <= 2
        # the second call builds as much again: no descriptor survives a call
        assert counts[1] == {name: 2 * n for name, n in counts[0].items()}

    def test_each_line_numbers_its_hyperbolic_generators_from_1(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("N(7)\nN(7)\ncsum(N(7),N(7))\n"))
        assert cli.main(["eval", "-"]) == 0
        pi1 = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pi_1:")]
        assert [line.split(None, 1)[1] for line in pi1] == [
            "pi_1(hyperbolic 3-manifold #1)",
            "pi_1(hyperbolic 3-manifold #1)",
            "pi_1(hyperbolic 3-manifold #1) * pi_1(hyperbolic 3-manifold #2)",
        ]


@pytest.fixture(scope="module")
def oracle_batch() -> str:
    """The seed-2024 corpus and 2000 random ASTs, many of them invalid."""
    lines = [str(expr) for expr, _ in corpus(2024, 1000)]
    leaves = [
        Sphere(1), Sphere(3), CP(2), Surface(2), Lens(3, 3), DehnRHS(7), IHS3(), Bundle(1, 7)
    ]
    rng = random.Random(2024)
    lines += [str(random_ast(rng, leaves, 5)) for _ in range(2000)]
    return "\n".join(lines) + "\n"


BATCH_COMMANDS = [
    ["eval", "-"], ["eval", "-", "--json"], ["chirality", "-"], ["degrees", "-"], ["validate", "-"]
]


def run_commands(monkeypatch, capsys, batch: str, commands: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of each command on ``batch``, in one process."""
    results = []
    for argv in commands:
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        status = cli.main(argv)
        out = capsys.readouterr()
        results.append((status, out.out, out.err))
    return results


@pytest.mark.parametrize("argv", BATCH_COMMANDS, ids=" ".join)
def test_batch_output_matches_the_reference_evaluator(argv, oracle_batch, monkeypatch, capsys):
    """Stdout, stderr and exit code, generator ids included, as if nothing were kept."""
    [memoized] = run_commands(monkeypatch, capsys, oracle_batch, [argv])
    monkeypatch.setattr(cli, "evaluate_text", lambda text, memo: reference_evaluate(parse(text)))
    assert run_commands(monkeypatch, capsys, oracle_batch, [argv]) == [memoized]
    assert memoized[2].count("error: line") > 100


def line_records(monkeypatch, capsys, argv: list[str], batches: list[str]) -> list[tuple]:
    """(line, status, stdout, stderr) of each line of ``batches``, one ``cli.main`` call a batch.

    A line's stdout and stderr are what its call prints from the start of
    its evaluation to the start of the next line's, without the stdin line
    number of an error.  Its status is what its handler returned, or 2 if
    it failed; each call must exit with the worst status of its lines.
    """
    records: list[list] = []
    real_run_each, real_evaluate_text = cli._run_each, cli.evaluate_text

    def end_record():
        out = capsys.readouterr()
        if records and len(records[-1]) == 2:
            records[-1] += [out.out, re.sub(r"(?m)^error: line \d+: ", "error: ", out.err)]

    def evaluate_text(text, memo):
        end_record()
        records.append([text, 2])
        return real_evaluate_text(text, memo)

    def run_each(arg, handle):
        def recorded(text, m):
            records[-1][1] = handle(text, m)
            return records[-1][1]

        return real_run_each(arg, recorded)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "evaluate_text", evaluate_text)
        patch.setattr(cli, "_run_each", run_each)
        # one parser for all calls: building it costs more than most lines
        patch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
        for batch in batches:
            first = len(records)
            patch.setattr("sys.stdin", io.StringIO(batch))
            status = cli.main(argv)
            end_record()
            assert status == max(record[1] for record in records[first:])
    return [tuple(record) for record in records]


@pytest.mark.parametrize("argv", BATCH_COMMANDS, ids=" ".join)
def test_a_line_prints_the_same_in_any_batch(argv, oracle_batch, monkeypatch, capsys):
    """A line's output depends on the line alone, not on the lines or calls before it."""
    lines = oracle_batch.splitlines(keepends=True)

    def run() -> list[tuple]:
        forward = line_records(monkeypatch, capsys, argv, ["".join(lines)])
        backward = line_records(monkeypatch, capsys, argv, ["".join(reversed(lines))])
        alone = line_records(monkeypatch, capsys, argv, lines)
        assert len(alone) == len(lines)
        assert forward == backward[::-1] == alone
        return alone

    first = run()
    assert sum(status == 2 for _, status, _, _ in first) > 100
    assert run() == first


class TestTable:
    """Each line is parsed once per process; sharing it between commands changes no output."""

    def test_sharing_changes_no_output(self, oracle_batch, empty_table, monkeypatch, capsys):
        sizes = []  # the number of nodes in the table after each command
        real = cli.main

        def main(argv):
            status = real(argv)
            sizes.append(len(dsl._nodes))
            return status

        monkeypatch.setattr(cli, "main", main)
        shared = run_commands(monkeypatch, capsys, oracle_batch, BATCH_COMMANDS)
        assert shared[0][2].count("error: line") > 100
        # after the first command, the later ones intern no new node
        assert sizes == sizes[:1] * len(BATCH_COMMANDS)
        monkeypatch.setattr(dsl, "TABLE_CAP", -1)  # empty the table as each command starts
        assert run_commands(monkeypatch, capsys, oracle_batch, BATCH_COMMANDS) == shared

    def test_a_failed_parse_is_never_kept(self, empty_table, monkeypatch, capsys):
        # the prefix S(3) of the first line parses; the trailing input fails it
        batch = "S(3) S(4)\ncsum(S(3), )\nS(3) S(4)\ncsum(S(3), )\n"
        errors = [
            "error: line 1: 1:6: unexpected trailing input 'S'",
            "error: line 2: 1:12: expected 'a generator or combinator name', found ')'",
            "error: line 3: 1:6: unexpected trailing input 'S'",
            "error: line 4: 1:12: expected 'a generator or combinator name', found ')'",
        ]
        expected = (2, "", "\n".join(errors) + "\n")
        assert run_commands(monkeypatch, capsys, batch, [["chirality", "-"], ["eval", "-"]]) == [expected] * 2
        assert dsl._lines == {}

    def test_the_cap_empties_the_table_only_as_a_command_starts(
        self, oracle_batch, empty_table, monkeypatch, capsys
    ):
        commands = [["eval", "-"], ["chirality", "-"]]
        uncapped = run_commands(monkeypatch, capsys, oracle_batch, commands)
        sizes = []  # the table's size as each line starts
        real = cli.evaluate_text

        def evaluate_text(text, memo):
            sizes.append(len(dsl._nodes) + len(dsl._lines))
            return real(text, memo)

        monkeypatch.setattr(cli, "evaluate_text", evaluate_text)
        monkeypatch.setattr(dsl, "TABLE_CAP", 100)
        assert run_commands(monkeypatch, capsys, oracle_batch, commands) == uncapped
        assert max(sizes) > 100
        # emptied as each command starts, never during one
        half = len(sizes) // 2
        assert sizes[0] == sizes[half] == 0
        assert [i for i in range(1, len(sizes)) if sizes[i] < sizes[i - 1]] == [half]

    def test_each_line_numbers_its_hyperbolic_generators_from_1_after_the_table_is_emptied(
        self, empty_table, monkeypatch, capsys
    ):
        monkeypatch.setattr(dsl, "TABLE_CAP", 2)
        batch = "N(7)\nN(7)\ncsum(N(7),N(7))\n"
        nodes = []
        for _ in range(2):
            [(status, out, _)] = run_commands(monkeypatch, capsys, batch, [["eval", "-"]])
            nodes.append(parse("N(7)"))
            pi1 = [line.split(None, 1)[1] for line in out.splitlines() if line.startswith("pi_1:")]
            assert (status, pi1) == (0, [
                "pi_1(hyperbolic 3-manifold #1)",
                "pi_1(hyperbolic 3-manifold #1)",
                "pi_1(hyperbolic 3-manifold #1) * pi_1(hyperbolic 3-manifold #2)",
            ])
        assert nodes[0] is not nodes[1]  # the second command emptied the table
