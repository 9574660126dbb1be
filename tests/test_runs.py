"""Graded groups stored as runs, against references that list every degree.

``helpers.dense_homology`` evaluates an AST degree by degree from the
closed forms, spin's shift, csum's degreewise sum and ``kunneth_orders``;
``helpers.dense_uct`` and ``helpers.dense_duality_report`` check the
cohomology and the duality check the same way.  None of them reads a run.
"""

import random

import pytest

from spincalc import cli
from spincalc.abelian import TRIVIAL, Z, cyclic
from spincalc.construct import CP, Bundle, DehnRHS, Lens, Prod, Sphere, Surface
from spincalc.dsl import evaluate, evaluate_text
from spincalc.graded import (
    GradedGroup,
    check_poincare_duality,
    cohomology_from_homology,
    homology_from_cohomology,
)

from helpers import (
    DenseGraded,
    _dim_of,
    all_asts,
    corpus,
    dense_duality_report,
    dense_homology,
    dense_uct,
    expand_runs,
)

# every leaf has at most 64 nonzero degrees, so these groups keep a run per degree
SMALL_LEAVES = [Sphere(2), Sphere(3), CP(2), Lens(3, 5), DehnRHS(7), Bundle(1, 7), Surface(2)]
# more than 64 degrees: these keep long runs, which spins and sums cut and join
LARGE_LEAVES = [CP(70), Sphere(130), Lens(3, 131), Lens(5, 131), Sphere(131), Lens(3, 129)]
# products of these pass 64 degrees
MEDIUM_LEAVES = [CP(40), Sphere(80), Lens(3, 81), Lens(5, 81), Sphere(81), Lens(3, 79)]


def report(h, n):
    r = check_poincare_duality(h, n)
    return r.ok, r.failing_degree, r.message


def check_against_dense(e, m, dense) -> None:
    """Homology, cohomology, Euler characteristic and duality of ``m`` degree by degree,
    and canonical runs."""
    n, groups = dense
    h = m.homology
    assert m.dim == n and dict(expand_runs(h.runs)) == groups, str(e)
    assert dict(expand_runs(m.cohomology().runs)) == dense_uct(groups, n), str(e)
    assert h.euler_characteristic() == sum((-1) ** d * g.rank for d, g in groups.items())
    # the same groups entered degree by degree give the same runs
    assert GradedGroup.from_dict(groups, n).runs == h.runs, str(e)
    assert report(h, n) == dense_duality_report(DenseGraded(n, groups), n) == (True, None, "")
    # perturbed: one degree changed, one dropped, and the dimension moved
    middle = n // 2
    for changed in (
        {**groups, middle: groups.get(middle, TRIVIAL).direct_sum(cyclic(2))},
        {d: g for d, g in groups.items() if d != max(1, middle - 1)},
    ):
        g = GradedGroup.from_dict(changed, n)
        assert report(g, n) == dense_duality_report(DenseGraded(n, changed), n), str(e)
    assert report(h, n + 1) == dense_duality_report(DenseGraded(n, groups), n + 1)


def evaluated(asts):
    """(AST, descriptor, dense homology) for each AST whose dimensions fit."""
    for e in asts:
        try:
            dense = dense_homology(e)
        except ValueError:
            with pytest.raises(ValueError):
                evaluate(e)
            continue
        yield e, evaluate(e), dense


def test_every_ast_of_depth_two_over_small_leaves_matches_the_dense_reference(empty_rules):
    seen = {}
    count = 0
    for e, m, dense in evaluated(all_asts(SMALL_LEAVES, 2)):
        check_against_dense(e, m, dense)
        # equal homologies built by different paths have equal runs
        key = (dense[0], frozenset(dense[1].items()))
        assert seen.setdefault(key, m.homology.runs) == m.homology.runs, str(e)
        count += 1
    assert count > 1000


def products(e) -> int:
    children = [getattr(e, name) for name in ("left", "right", "child") if hasattr(e, name)]
    return sum(map(products, children)) + isinstance(e, Prod)


def test_asts_over_long_runs_match_the_dense_reference(empty_rules):
    """Every AST of depth two without a product over leaves of long runs, and a
    seeded sample of 150 with one product over smaller leaves, up to dimension 170:
    the dense Kunneth reference costs the square of the dimension per degree.
    """
    with_product = [
        e for e in all_asts(MEDIUM_LEAVES, 2) if _dim_of(e) <= 170 and products(e) == 1
    ]
    asts = [e for e in all_asts(LARGE_LEAVES, 2) if not products(e)]
    asts += random.Random(28).sample(with_product, 150)
    seen = {}
    joined = 0
    for e, m, dense in evaluated(asts):
        check_against_dense(e, m, dense)
        key = (dense[0], frozenset(dense[1].items()))
        assert seen.setdefault(key, m.homology.runs) == m.homology.runs, str(e)
        joined += any(c > 1 for _, _, c, _ in m.homology.runs)
    assert joined > 200


def test_the_seed_corpus_matches_the_dense_reference(empty_rules):
    for e, m in corpus(2024, 1000):
        check_against_dense(e, m, dense_homology(e))


def test_a_group_of_few_degrees_keeps_one_run_per_degree():
    assert evaluate_text("CP(32)").homology.runs == tuple(
        (d, 1, 1, Z) for d in range(0, 65, 2)
    )
    assert evaluate_text("CP(64)").homology.runs == ((0, 2, 65, Z),)


def test_a_group_of_many_runs_lists_its_degrees_only_if_no_run_joins_another():
    alternating = [(d, 1, 1, Z if d % 2 else cyclic(2)) for d in range(100)]
    mixed = alternating + [(100, 1, 50, cyclic(3))]
    for runs, listed in [(alternating, True), (mixed, False)]:
        h = GradedGroup(200, runs)
        assert h.runs == tuple(runs)
        assert (h._by_degree.__class__ is dict) is listed
        expected = {d: g for f, s, c, g in runs for d in range(f, f + s * c, s)}
        assert [h.group(d) for d in range(201)] == [expected.get(d, TRIVIAL) for d in range(201)]


# -- dimensions near 10^12 -----------------------------------------------------

HUGE = [
    ("CP(1000000000000)", 1),
    ("L(3,1000000000003)", 3),
    ("spin(2,CP(1000000000000))", 3),
    ("csum(L(3,1000000000003),L(5,1000000000003))", 3),
]


@pytest.mark.parametrize("text, runs", HUGE, ids=[t for t, _ in HUGE])
def test_a_dimension_near_10_to_12_is_answered_in_process(text, runs, capsys):
    assert len(evaluate_text(text).homology.runs) == runs
    for command in ("chirality", "degrees", "validate"):
        assert cli.main([command, text]) == 0
    out = capsys.readouterr().out
    assert f"{text}: ok" in out and f"D({text}) = " in out


def test_a_lens_space_near_10_to_12_is_proven_strongly_chiral(capsys):
    """The middle torsion is one degree inside the run of odd degrees."""
    m = evaluate_text("L(3,1000000000003)")
    assert m.homology.group(500000000001) == cyclic(3)
    assert m.homology.group(500000000002) == TRIVIAL
    assert cli.main(["chirality", "L(3,1000000000003)"]) == 0
    assert capsys.readouterr().out.startswith("L(3,1000000000003): proven strongly chiral")


def test_sums_and_spins_of_long_runs_keep_a_handful_of_runs():
    for text in (
        "spin(1,CP(1000000000000))",
        "spin(3,L(3,1000000000003))",
        "csum(CP(1000000000000),spin(2,CP(999999999999)))",
        "spin(1,spin(1,L(7,1000000000001)))",
    ):
        h = evaluate_text(text).homology
        assert len(h.runs) <= 6, text
        assert check_poincare_duality(h, h.top_degree)
    assert evaluate_text("CP(1000000000000)").homology.euler_characteristic() == 1000000000001


def test_the_conversions_of_long_runs_cut_at_the_dimension_asked_for():
    """Degrees past n, and torsion shifted past n, are left out as degree by degree."""
    groups = {d: cyclic(3).direct_sum(Z) if d % 3 else Z for d in range(0, 151)}
    h = GradedGroup.from_dict(groups, 150)
    assert any(c > 1 for _, _, c, _ in h.runs)
    for n in (150, 149, 100, 77, 0):
        kept = {d: g for d, g in groups.items() if d <= n}
        assert dict(expand_runs(cohomology_from_homology(h, n).runs)) == dense_uct(kept, n), n
    c = GradedGroup.from_dict({0: Z, **{d: cyclic(5) for d in range(2, 121)}}, 120)
    expected = {0: Z, **{d: cyclic(5) for d in range(1, 120)}}
    assert dict(expand_runs(homology_from_cohomology(c, 120).runs)) == expected
