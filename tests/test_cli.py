import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincalc
from spincalc import cli, graded
from spincalc.cli import main
from spincalc.manifold import Violation


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


# the exact stdout of `eval "S(3)" --json` and of `eval "S(3)"`
S3_JSON = """\
{
  "schema": "1",
  "expr": "S(3)",
  "dim": 3,
  "homology": {
    "top": 3,
    "groups": {
      "0": {
        "rank": 1,
        "factors": []
      },
      "3": {
        "rank": 1,
        "factors": []
      }
    }
  },
  "pi1": "1",
  "connectivity": 2,
  "facts": [
    "degree set known: Z (all integers)"
  ],
  "cohomology": {
    "top": 3,
    "groups": {
      "0": {
        "rank": 1,
        "factors": []
      },
      "3": {
        "rank": 1,
        "factors": []
      }
    }
  },
  "euler_characteristic": 0,
  "duality": true,
  "violations": []
}
"""
S3_TEXT = """\
expression:    S(3)
dimension:     3
pi_1:          1
connectivity:  2
euler char:    0
homology H_i:
  Z, for i = 0, 3
  0, otherwise
cohomology H^i:
  Z, for i = 0, 3
  0, otherwise
duality check: ok
facts:
  - degree set known: Z (all integers)
violations:    none
"""


# the exact stdout of `eval` for the two hyperbolic generators, whose facts
# are listed sorted, one line each
N7_TEXT = """\
expression:    N(7)
dimension:     3
pi_1:          pi_1(hyperbolic 3-manifold #1)
connectivity:  0
euler char:    0
homology H_i:
  Z, for i = 0, 3
  Z_14, for i = 1
  0, otherwise
cohomology H^i:
  Z, for i = 0, 3
  Z_14, for i = 2
  0, otherwise
duality check: ok
facts:
  - admits a closed real hyperbolic metric
  - full isometry group has odd order
violations:    none
"""
IHS3_TEXT = """\
expression:    IHS3
dimension:     3
pi_1:          pi_1(hyperbolic 3-manifold #1)
connectivity:  0
euler char:    0
homology H_i:
  Z, for i = 0, 3
  0, otherwise
cohomology H^i:
  Z, for i = 0, 3
  0, otherwise
duality check: ok
facts:
  - admits a closed real hyperbolic metric
violations:    none
"""

HYPERBOLIC = "admits a closed real hyperbolic metric"
ODD_ISOMETRY = "full isometry group has odd order"


def hyperbolic_json(expr: str, torsion: list[int], facts: list[str]) -> str:
    """The exact stdout of `eval --json` of a hyperbolic generator; ``torsion`` factors H_1."""
    z = {"rank": 1, "factors": []}
    tor = {"rank": 0, "factors": torsion}
    payload = {
        "schema": "1",
        "expr": expr,
        "dim": 3,
        "homology": {"top": 3, "groups": {"0": z, **({"1": tor} if torsion else {}), "3": z}},
        "pi1": "pi_1(hyperbolic 3-manifold #1)",
        "connectivity": 0,
        "facts": facts,
        "cohomology": {"top": 3, "groups": {"0": z, **({"2": tor} if torsion else {}), "3": z}},
        "euler_characteristic": 0,
        "duality": True,
        "violations": [],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestEval:
    def test_text_report(self, capsys):
        status, out, _ = run(capsys, "eval", "N(7)")
        assert status == 0
        assert "dimension:     3" in out
        assert "Z_14" in out
        assert "violations:    none" in out

    def test_json_report(self, capsys):
        status, out, _ = run(capsys, "eval", "csum(E(1,7), spin(4, N(7)))", "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["dim"] == 7
        assert payload["homology"]["groups"]["3"] == {"rank": 0, "factors": [14]}
        assert payload["duality"] is True

    def test_schema_1_report_of_a_sphere_byte_for_byte(self, capsys):
        """Schema "1" is pinned: key order (connectivity between pi1 and facts) and layout."""
        assert run(capsys, "eval", "S(3)", "--json") == (0, S3_JSON, "")
        assert run(capsys, "eval", "S(3)") == (0, S3_TEXT, "")

    def test_parse_error_exit_code(self, capsys):
        status, _, err = run(capsys, "eval", "spin(1,")
        assert status == 2
        assert "error:" in err

    def test_semantic_error_exit_code(self, capsys):
        status, _, err = run(capsys, "eval", "N(4)")
        assert status == 2
        assert "prime" in err

    @pytest.mark.parametrize(
        "p",
        [
            318665857834031151167461,  # strong pseudoprime to the 12 bases 2..37
            2**89 - 1,  # prime, but above the exact Miller-Rabin bound
        ],
    )
    def test_pseudoprimes_and_probable_primes_exit_code(self, capsys, p):
        status, out, err = run(capsys, "eval", f"N({p})")
        assert status == 2
        assert out == ""
        assert "prime" in err

    def test_nineteen_digit_dehn_filling_is_strongly_chiral(self, capsys):
        # chirality asks whether -1 is a square mod 2p, so 2p must be factored
        status, out, _ = run(capsys, "chirality", "N(1000000000000000003)")
        assert status == 0
        assert "proven strongly chiral" in out

    def test_unfactorable_torsion_exit_code(self, capsys):
        # primes near 10^20 with p * q = 1 (mod 4), so -1 mod 2pq needs factoring
        p, q = 100000000000000000129, 300000000000000000053
        status, out, err = run(capsys, "chirality", f"E(0,{p * q})")
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot factor {p * q}: ")
        assert err.count("\n") == 1

    def test_odd_part_3_mod_4_needs_no_factoring(self, capsys):
        # p * q = 3 (mod 4), so -1 is no square mod 2pq whatever the factors
        p, q = 100000000000000000039, 300000000000000000053
        status, out, _ = run(capsys, "chirality", f"E(0,{p * q})")
        assert status == 0
        assert "proven strongly chiral" in out

    def test_duality_is_checked_once_per_line(self, empty_rules, capsys, monkeypatch):
        original = graded.check_poincare_duality
        calls = []

        def counting(h, n):
            calls.append(n)
            return original(h, n)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("spincalc") and vars(module).get(
                "check_poincare_duality"
            ) is original:
                monkeypatch.setattr(module, "check_poincare_duality", counting)
        monkeypatch.setattr("sys.stdin", io.StringIO("S(3)\nN(7)\n"))
        status, out, _ = run(capsys, "eval", "-")
        assert status == 0
        assert out.count("duality check: ok") == 2
        assert calls == [3, 3]

    def test_batch_mode(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("S(3)\n\nN(7)\n"))
        status, out, _ = run(capsys, "eval", "-")
        assert status == 0
        assert out.count("expression:") == 2

    def test_a_bad_line_does_not_stop_the_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("S(3)\nS(0)\nN(7)\n"))
        status, out, err = run(capsys, "eval", "-")
        assert status == 2
        assert out.count("expression:") == 2
        assert "expression:    N(7)" in out
        assert err == "error: line 2: sphere dimension must be >= 1, got 0\n"

    def test_single_expression_error_text(self, capsys):
        status, out, err = run(capsys, "eval", "S(0)")
        assert (status, out) == (2, "")
        assert err == "error: sphere dimension must be >= 1, got 0\n"


class TestBatch:
    @pytest.mark.parametrize("command", ["eval", "chirality", "degrees", "validate"])
    def test_errors_name_the_physical_line(self, capsys, monkeypatch, command):
        # the blank line 2 is skipped but still counted
        monkeypatch.setattr("sys.stdin", io.StringIO("N(7)\n\nspin(1,\nN(4)\nS(5)\n"))
        status, out, err = run(capsys, command, "-")
        assert status == 2
        lines = err.splitlines()
        assert [line.split(":")[:2] for line in lines] == [["error", " line 3"], ["error", " line 4"]]
        assert "prime" in lines[1]
        assert "N(7)" in out and "S(5)" in out

    def test_exit_code_is_the_worst_status(self, capsys, monkeypatch):
        # no expression of the language has a violation, so one is planted on S(4)
        real = cli.validate_realizability
        monkeypatch.setattr(
            cli, "validate_realizability",
            lambda m: [Violation("planted", "test")] if m.dim == 4 else real(m),
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("S(4)\nN(7)\n"))
        assert run(capsys, "validate", "-")[0] == 1
        monkeypatch.setattr("sys.stdin", io.StringIO("S(4)\n)\nN(7)\n"))
        status, out, err = run(capsys, "validate", "-")
        assert status == 2
        assert "S(4): 1 violation(s)" in out and "N(7): ok" in out
        assert err.startswith("error: line 2: ")

    def test_a_line_is_evaluated_twice_and_replayed_after(self, capsys, monkeypatch):
        line = "csum(E(1,7),spin(4,N(7)))"
        _, answer, _ = run(capsys, "chirality", line)
        calls = []
        real = cli.chirality_verdict
        monkeypatch.setattr(cli, "chirality_verdict", lambda m: calls.append(m) or real(m))
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{line}\n" * 50))
        assert run(capsys, "chirality", "-") == (0, answer * 50, "")
        assert len(calls) == 2

    def test_a_repeated_violation_prints_its_whole_answer_each_time(self, capsys, monkeypatch):
        # no expression of the language has a violation, so two are planted
        calls = []
        planted = [Violation("planted", "one"), Violation("planted", "two")]
        monkeypatch.setattr(cli, "validate_realizability", lambda m: calls.append(m) or planted)
        monkeypatch.setattr("sys.stdin", io.StringIO("S(4)\n" * 3))
        answer = "S(4): 2 violation(s)\n  - [planted] one\n  - [planted] two\n"
        assert run(capsys, "validate", "-") == (1, answer * 3, "")
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "line, error",
        [
            ("S(3) S(4)", "1:6: unexpected trailing input 'S'"),
            # evaluates, and then fails as its report is written
            (
                "spin(1,Sigma(3000000000000000000000001))",
                "pi_1 is free of rank 6000000000000000000000002; "
                "a report writes out at most FREE_RANK_LIMIT = 1000000 factors",
            ),
        ],
        ids=["parse", "report"],
    )
    def test_a_failing_line_is_reported_at_each_copy(self, capsys, monkeypatch, line, error):
        _, report, _ = run(capsys, "eval", "S(3)")
        calls = []
        real = cli.evaluate_text
        monkeypatch.setattr(
            cli, "evaluate_text", lambda text, memo: calls.append(text) or real(text, memo)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{line}\nS(3)\n" * 3))
        status, out, err = run(capsys, "eval", "-")
        assert (status, out) == (2, report * 3)
        assert err == "".join(f"error: line {k}: {error}\n" for k in (1, 3, 5))
        # each copy of the failing line is evaluated again; S(3) is replayed once
        assert calls == [line, "S(3)"] * 2 + [line]

    @pytest.mark.parametrize("command", ["eval", "chirality", "degrees", "validate"])
    def test_a_failing_construction_is_never_kept(self, capsys, monkeypatch, command):
        """Each copy of a line whose construction fails reports its own error.

        The valid lines after them, which reuse their parts, answer as in a
        fresh process.
        """
        errors = {
            "csum(S(3),S(4))": "connected sum needs equal dimensions, got 3 and 4",
            "N(4)": "Dehn-filling parameter must be prime, got 4",
            "N(9)": "Dehn-filling parameter must be prime, got 9",
            "spin(0,S(3))": "spin radius must be >= 1, got 0",
            "E(0,0)": "Euler multiple must be nonzero (use prod for the trivial bundle)",
            "L(4,4)": "lens dimension must be odd and >= 3, got 4",
            "spin(1,Sigma(1))": "surface genus must be >= 2, got 1",
        }
        valid = "csum(spin(1,S(3)),S(4))\nprod(N(7),L(3,3))\nspin(1,Sigma(2))\nE(0,1)\n"
        src = Path(spincalc.__file__).resolve().parent.parent
        fresh = subprocess.run(
            [sys.executable, "-m", "spincalc.cli", command, "-"],
            input=valid, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
        )
        assert (fresh.returncode, fresh.stderr) == (0, "")
        bad = [line for line in errors for _ in range(2)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(bad) + "\n" + valid))
        status, out, err = run(capsys, command, "-")
        assert err == "".join(f"error: line {k}: {errors[line]}\n" for k, line in enumerate(bad, 1))
        assert (status, out) == (2, fresh.stdout)

    def test_only_a_repeated_line_keeps_its_answer(self, capsys, monkeypatch):
        class Answer(str):
            alive = 0

            def __init__(self, text):
                Answer.alive += 1

            def __del__(self):
                Answer.alive -= 1

        real = cli._descriptor_report
        monkeypatch.setattr(cli, "_descriptor_report", lambda m, as_json: Answer(real(m, as_json)))
        alive = []  # the answers not yet freed as each line is read

        def read(lines):
            for line in lines:
                alive.append(Answer.alive)
                yield line

        lines = [f"S({n})\n" for n in range(1, 51)] * 2
        monkeypatch.setattr("sys.stdin", read(lines))
        assert run(capsys, "eval", "-")[0] == 0
        # at most the answer being printed, until lines repeat: then each keeps its second
        assert max(alive[:51]) <= 1 and alive[-1] == 49
        assert Answer.alive == 0


class TestChirality:
    def test_strongly_chiral(self, capsys):
        status, out, _ = run(capsys, "chirality", "csum(E(1,7), spin(4, N(7)))")
        assert status == 0
        assert "proven strongly chiral" in out

    def test_json(self, capsys):
        status, out, _ = run(capsys, "chirality", "S(3)", "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "admits_degree_minus_one"


@pytest.mark.parametrize(
    "command, answer",
    [
        ("chirality", "{}: admits a self-map of degree -1"),
        ("degrees", "D({}) = Z (all integers)"),
        ("validate", "{}: ok"),
    ],
    ids=["chirality", "degrees", "validate"],
)
def test_a_spun_surface_of_huge_genus_is_answered(capsys, command, answer):
    # its pi_1 is free of rank 2g, far more factors than a list could hold
    line = "spin(1,Sigma(3000000000000000000000001))"
    status, out, err = run(capsys, command, line)
    assert (status, out.splitlines()[0], err) == (0, answer.format(line), "")


@pytest.mark.parametrize("stdin", [None, "{}\nS(3)\n"], ids=["expression", "batch"])
def test_eval_of_a_spun_surface_of_huge_genus_exits_2(stdin):
    """Its pi_1 has more factors than a report writes out: an error, not a traceback."""
    line = "spin(1,Sigma(3000000000000000000000001))"
    src = Path(spincalc.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "spincalc.cli", "eval", "-" if stdin else line],
        input=stdin and stdin.format(line), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
    )
    prefix = "error: line 1: " if stdin else "error: "
    assert (result.returncode, result.stderr) == (2, prefix + (
        "pi_1 is free of rank 6000000000000000000000002; "
        "a report writes out at most FREE_RANK_LIMIT = 1000000 factors\n"
    ))
    if stdin:  # a batch goes on after the line
        assert result.stdout.startswith("expression:    S(3)\n")


def test_a_reader_that_closes_early_gets_exit_2_and_no_traceback():
    src = Path(spincalc.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "spincalc.cli", "eval", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    # the reports of 2000 lines overflow the pipe, so the batch writes after the close
    proc.stdin.write("S(3)\n" * 2000)
    proc.stdin.close()
    assert proc.stdout.readline() == "expression:    S(3)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


class TestDegrees:
    def test_all_integers(self, capsys):
        status, out, _ = run(
            capsys, "degrees", "spin(5, csum(prod(S(2),S(3)), prod(S(1),S(4))))"
        )
        assert status == 0
        assert "Z (all integers)" in out

    def test_dehn(self, capsys):
        _, out, _ = run(capsys, "degrees", "N(7)")
        assert "{0, 1}" in out


class TestGeneratorFacts:
    """What a generator takes on faith, as `eval` and `degrees` print it."""

    @pytest.mark.parametrize(
        "expr, text, payload",
        [
            ("N(7)", N7_TEXT, hyperbolic_json("N(7)", [14], [HYPERBOLIC, ODD_ISOMETRY])),
            ("IHS3", IHS3_TEXT, hyperbolic_json("IHS3", [], [HYPERBOLIC])),
        ],
    )
    def test_eval_of_a_hyperbolic_generator_byte_for_byte(self, capsys, expr, text, payload):
        assert run(capsys, "eval", expr) == (0, text, "")
        assert run(capsys, "eval", expr, "--json") == (0, payload, "")

    @pytest.mark.parametrize("expr", ["csum(S(3),N(7))", "spin(4,IHS3)"])
    def test_a_combinator_root_lists_no_facts(self, capsys, expr):
        status, out, err = run(capsys, "eval", expr)
        assert (status, err) == (0, "")
        assert "facts:" not in out
        status, out, err = run(capsys, "eval", expr, "--json")
        assert (status, err) == (0, "")
        assert '\n  "facts": [],\n' in out

    @pytest.mark.parametrize(
        "expr, text, bound, exact, rule",
        [
            (
                "IHS3", "contains [0, 1]; contained in {-1, 0, 1}", "{-1, 0, 1}", False,
                "positive-simplicial-volume",
            ),
            ("N(7)", "{0, 1}", "{0, 1}", True, "hyperbolic-odd-isometry"),
        ],
    )
    def test_degrees_of_a_hyperbolic_generator(self, capsys, expr, text, bound, exact, rule):
        assert run(capsys, "degrees", expr) == (0, f"D({expr}) = {text}\n", "")
        payload = {
            "schema": "1", "expr": expr, "known": [0, 1], "upper_bound": bound,
            "exact": exact, "rules": [rule],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "degrees", "--json", expr) == (0, expected, "")


class TestTable1:
    def test_rows_in_order(self, capsys):
        status, out, _ = run(capsys, "table1", "--p", "7")
        assert status == 0
        lines = [l for l in out.splitlines() if "H_3" in l]
        values = [l.split("H_3 = ")[1] for l in lines]
        assert values == ["Z_14^6", "Z_14^2", "0", "Z_14^2"]
        labels = [l.split("   H_3")[0].strip() for l in lines]
        assert labels[0].startswith("sigma_1 sigma_1 sigma_1 sigma_1")
        assert labels[1].startswith("sigma_2 sigma_1 sigma_1")
        assert labels[2].startswith("sigma_3 sigma_1")
        assert labels[3].startswith("sigma_2 sigma_2")

    def test_an_order_with_other_homology_fails(self, capsys, monkeypatch):
        # one order of the row (2, 1, 1) spins N(11) in place of N(7)
        real, other = cli.iterated_spin, cli.dehn_rhs(11)

        def iterated_spin(radii, base):
            return real(radii, other if radii == [1, 1, 2] else base)

        monkeypatch.setattr(cli, "iterated_spin", iterated_spin)
        status, out, err = run(capsys, "table1", "--p", "7")
        assert (status, out) == (1, "")
        assert err == "order-independence FAILED for (2, 1, 1) vs (1, 1, 2)\n"

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "table1", "--p", "11")
        _, second, _ = run(capsys, "table1", "--p", "11")
        assert first == second


class TestVerify:
    @pytest.mark.parametrize("theorem", ["main", "main2"])
    def test_success(self, capsys, theorem):
        status, out, _ = run(capsys, "verify", "--theorem", theorem, "--m", "3", "--p", "11")
        assert status == 0
        assert "ok" in out

    def test_repeated_calls_print_the_same_line(self, capsys):
        argv = ("verify", "--theorem", "main", "--m", "1", "--p", "7")
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        assert first[1] == "main(m=1, p=7): ok (dim 7, pi_1 = pi_1(hyperbolic 3-manifold #1))\n"

    def test_wrong_prime_is_semantic_error(self, capsys):
        status, _, err = run(capsys, "verify", "--theorem", "main", "--m", "1", "--p", "5")
        assert status == 2
        assert "mod 4" in err


class TestValidate:
    def test_clean_expression(self, capsys):
        status, out, _ = run(capsys, "validate", "N(7)")
        assert status == 0
        assert "ok" in out
