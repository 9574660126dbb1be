"""Tests of the benchmark itself: generators, oracles, probes and scoring."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Call, Workload, render  # noqa: E402

from spincalc.cli import main as cli_main  # noqa: E402


def cli_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().rstrip("\n")


# -- generators ---------------------------------------------------------------------


def inputs(name: str, seed: int, pass_index: int = 0) -> tuple:
    # probes are compared by their text: the nested probe is too deep for ==
    w = workloads.generate(name, seed, pass_index)
    return w.exprs, w.calls, [p.argv for p in w.probes]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(name):
    assert inputs(name, 11) == inputs(name, 11)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_another_seed_gives_other_inputs(name):
    a, b = workloads.generate(name, 11), workloads.generate(name, 12)
    assert (a.exprs, a.calls) != (b.exprs, b.calls)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_work_per_pass_does_not_depend_on_the_seed(name):
    assert workloads.generate(name, 11).ops_per_pass() == workloads.generate(name, 12).ops_per_pass()


def test_rendered_text_parses_back_to_the_same_expression():
    from spincalc.dsl import parse

    for ast in workloads.generate("highdim", 3).exprs + workloads.generate("bignum", 3).exprs:
        assert str(parse(render(ast))) == render(ast)


def test_corpus_first_pass_is_the_acceptance_corpus():
    from helpers import corpus

    first = workloads.generate("corpus", 2024)
    assert [render(e) for e in first.exprs] == [str(e) for e, _ in corpus(2024, 1000)]
    props = workloads.input_properties(first)
    assert 0.6 < props["input.repeat_share"] < 0.75
    assert props["input.max_int_digits"] <= 2


def test_only_the_corpus_draws_new_inputs_for_each_pass():
    for name in workloads.NAMES:
        same = inputs(name, 5, 0) == inputs(name, 5, 1)
        assert same == (name != "corpus")


# -- oracles reject wrong answers ------------------------------------------------


def test_eval_oracle_accepts_the_right_report_and_rejects_a_wrong_one():
    ast = ("csum", ("E", 1, 7), ("spin", 4, ("N", 7)))
    report = cli_output("eval", render(ast))
    assert oracle.check_eval(report, ast) is None
    assert oracle.check_eval(report.replace("Z_14, for i = 1", "Z_7, for i = 1", 1), ast) is not None
    assert oracle.check_eval(report.replace("euler char:    0", "euler char:    2"), ast) is not None


def test_product_homology_is_checked_by_kunneth():
    ast = ("prod", ("L", 3, 3), ("N", 5))
    report = cli_output("eval", render(ast))
    assert oracle.check_eval(report, ast) is None
    assert oracle.check_eval(report, ("prod", ("L", 3, 3), ("N", 7))) is not None


def test_bignum_groups_are_compared_without_divisor_enumeration():
    p, q = 1000003, 1000033
    assert oracle.same_group((0, [2 * p, 2 * q]), (0, [2, 2 * p * q]))
    assert not oracle.same_group((0, [2 * p, 2 * q]), (0, [4 * p * q]))


def test_chirality_oracle_rejects_a_wrong_verdict():
    ast = ("N", 7)
    record = cli_output("chirality", render(ast))
    assert oracle.check_chirality(record, ast) is None
    wrong = record.replace("proven strongly chiral", "inconclusive", 1)
    assert oracle.check_chirality(wrong, ast) is not None
    # -1 is a square mod 2*13, so N(13) must not be proven chiral
    assert oracle.check_chirality(record.replace("N(7)", "N(13)", 1), ("N", 13)) is not None


def test_degrees_oracle_rejects_a_wrong_degree_set():
    assert oracle.check_degrees(cli_output("degrees", "S(5)"), ("S", 5)) is None
    assert oracle.check_degrees("D(S(5)) = {0, 1}", ("S", 5)) is not None
    assert oracle.check_degrees("D(N(7)) = Z (all integers)", ("N", 7)) is not None
    assert oracle.check_degrees("D(CP(2)) = {k^3 | k in Z}", ("CP", 2)) is not None


def test_pipeline_oracles_reject_wrong_answers():
    record = cli_output("verify", "--theorem", "main", "--m", "2", "--p", "7")
    assert oracle.check_verify(record, "main", 2, 7) is None
    assert oracle.check_verify(record.replace("dim 11", "dim 12"), "main", 2, 7) is not None
    table = cli_output("table1", "--p", "7")
    assert oracle.check_table1(table, 7) is None
    assert oracle.check_table1(table.replace("Z_14", "Z_7", 1), 7) is not None


def test_euler_criterion_reference():
    assert oracle.minus_one_is_square(2 * 13 * 17)
    assert not oracle.minus_one_is_square(2 * 7)
    assert not oracle.minus_one_is_square(4 * 5)
    assert not oracle.minus_one_is_square(1000003 * 1000033)  # 1000003 = 3 (mod 4)


# -- probes and scoring ----------------------------------------------------------------


def test_a_crashing_probe_is_counted_not_fatal():
    nested = ("S", 3)
    for _ in range(1500):
        nested = ("spin", 1, nested)
    probe = Call(("eval", render(nested)), ("eval", nested))
    [outcome] = run.run_probes(Workload("t", probes=[probe]))
    assert outcome.startswith("RecursionError")


def test_an_overrunning_probe_is_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.3)
    probe = Call(("eval", "S(3000000)"), ("eval", ("S", 3000000)))
    assert run.run_probes(Workload("t", probes=[probe])) == ["timeout"]


def test_a_passing_probe_is_checked_by_the_oracle():
    probe = Call(("eval", "N(7)"), ("eval", ("N", 7)))
    assert run.run_probes(Workload("t", probes=[probe])) == ["ok"]


def test_a_lost_pass_counts_every_op_as_failed():
    w = Workload("t", exprs=[("S", 3), ("N", 7)])
    score = run.Checker(w).score(None, 3)
    assert score["attempted"] == score["failed"] == 6


def test_a_pass_is_scored_and_wrong_records_are_counted():
    w = Workload("t", exprs=[("S", 3), ("N", 7)])
    units, n_batch = run.batch_units(w)
    _, result, reason = run.run_pass(units)
    assert reason == ""
    assert run.Checker(w).score(result, n_batch)["failed"] == 0
    result["units"][0]["records"][1] = result["units"][0]["records"][1].replace("Z_14", "Z_2")
    score = run.Checker(w).score(result, n_batch)
    assert (score["answered"], score["wrong"], score["failed"]) == (6, 1, 1)


def test_traced_pass_counts_calls_and_self_time():
    w = Workload("t", exprs=[("prod", ("S", 2), ("N", 7))])
    units, _ = run.batch_units(w)
    result = run.run_pass(units, trace=True)[1]
    layers = run._group(result["layers"], result["clock"].median_scale())
    assert layers["construct.product"][0] == 3  # once per batch command
    assert layers["dsl.parse"][0] == 3
    assert layers["construct.generators"][0] == 6
    assert all(self_ns >= 0 for _, self_ns in layers.values())


def test_runs_report_exactly_the_metrics_of_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics, _, correct, _, _ = run.measure("pipeline", 3, 0)
    assert correct and sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    w = Workload("t", exprs=[("N", 7)], calls=[workloads.generate("pipeline", 3).calls[0]])
    metrics, _, correct, _, _ = run.trace(w)
    assert correct and sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
