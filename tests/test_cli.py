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

    def test_duality_is_checked_once_per_line(self, capsys, monkeypatch):
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
