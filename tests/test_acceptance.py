"""Acceptance suite: one pass/fail line per criterion (run with -s to see them)."""

import contextlib
import random
import time
from itertools import permutations

from spincalc.abelian import Z, cyclic
from spincalc.analysis import PROVEN_STRONGLY_CHIRAL, chirality_verdict, degree_set
from spincalc.cli import main as cli_main
from spincalc.construct import (
    bundle,
    connected_sum,
    iterated_spin,
    lens,
    pipeline_main,
    pipeline_main2,
    spin,
)
from spincalc.dsl import evaluate_text
from spincalc.graded import GradedGroup, check_poincare_duality
from spincalc.manifold import validate_realizability

from helpers import corpus, dense_cohomology, minus_one_square_euler, minus_one_square_scan

PRIMES_3_MOD_4 = [3, 7, 11, 19]
GRID_M = range(9)

_corpus_cache = None


def shared_corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = corpus(seed=2024, size=1000, depth=5)
    return _corpus_cache


@contextlib.contextmanager
def criterion(number, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"FAIL criterion {number}: {description} (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)")
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "table of 7-dimensional iterated spinnings", limit=1.0):
        for p in (3, 7, 11):
            assert cli_main(["table1", "--p", str(p)]) == 0
            out = capsys.readouterr().out
            rows = [line.split("H_3 = ")[1] for line in out.splitlines() if "H_3" in line]
            t = cyclic(2 * p)
            expected = [
                str(t.direct_sum(t).direct_sum(t).direct_sum(t).direct_sum(t).direct_sum(t)),
                str(t.direct_sum(t)),
                "0",
                str(t.direct_sum(t)),
            ]
            assert rows == expected, f"p = {p}"


def _closed_form(m, p, degrees):
    dim = 4 * m + 3
    groups = {0: Z, dim: Z}
    for i in degrees:
        groups[i] = cyclic(2 * p)
    return GradedGroup.from_dict(groups, dim)


def test_criterion_2_main_theorem_homology():
    with criterion(2, "pipeline homology matches the closed forms", limit=1.0):
        for m in GRID_M:
            for p in PRIMES_3_MOD_4:
                expected = _closed_form(m, p, {1, 2 * m + 1, 4 * m + 1})
                assert pipeline_main(m, p).homology == expected, (m, p, "main")
                expected2 = _closed_form(m, p, {2 * m + 1})
                assert pipeline_main2(m, p).homology == expected2, (m, p, "main2")


def test_criterion_3_chirality_certification():
    with criterion(3, "chirality verdicts on pipelines and lens spaces"):
        for m in GRID_M:
            for p in PRIMES_3_MOD_4:
                assert chirality_verdict(pipeline_main(m, p)).is_strongly_chiral, (m, p)
                assert chirality_verdict(pipeline_main2(m, p)).is_strongly_chiral, (m, p)
                assert chirality_verdict(lens(p, 4 * m + 3)).is_strongly_chiral, (m, p)
            for p in (5, 13, 17):
                verdict = chirality_verdict(lens(p, 4 * m + 3))
                assert verdict.kind == "inconclusive", (m, p)


def test_criterion_4_residue_oracle():
    with criterion(4, "exhaustive scan agrees with the Euler criterion", limit=2.0):
        sieve = bytearray([1]) * 10_000
        sieve[0:2] = b"\x00\x00"
        for i in range(2, 100):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for q in range(3, 10_000, 2):
            if sieve[q]:
                scan = minus_one_square_scan(q)
                assert scan == minus_one_square_euler(q), q
                assert scan == (q % 4 == 1), q


def test_criterion_5_gysin_uct_consistency():
    """The homology ``bundle`` writes down, and the Gysin cohomology it must convert to."""
    with criterion(5, "sphere-bundle cohomology, homology and duality"):
        semiprime = 999_983 * 1_000_003  # 12 digits
        for m in range(5):
            dim = 4 * m + 3
            for d in (1, 3, 7, -1, -5, semiprime, -semiprime):
                e = bundle(m, d)
                torsion = cyclic(2 * abs(d))
                assert dict(e.homology.entries) == {0: Z, 2 * m + 1: torsion, dim: Z}, (m, d)
                expected_cohom = GradedGroup.from_dict({0: Z, 2 * m + 2: torsion, dim: Z}, dim)
                assert e.cohomology() == expected_cohom, (m, d)
                assert check_poincare_duality(e.homology, dim), (m, d)


def test_criterion_6_structural_properties():
    with criterion(6, "randomized corpus: duality, realizability, spin laws", limit=30.0):
        descriptors = shared_corpus()
        assert len(descriptors) >= 1000
        for expr, m in descriptors:
            assert check_poincare_duality(m.homology, m.dim), expr
            assert validate_realizability(m) == [], expr
            if m.dim % 2 == 1:
                assert m.homology.euler_characteristic() == 0, expr
            assert m.cohomology() == dense_cohomology(m.homology, m.dim), expr

        rng = random.Random(99)
        spinnable = [m for _, m in descriptors if m.dim >= 3][:40]
        for m in spinnable:
            radii = [rng.randint(1, 3) for _ in range(3)]
            reference = iterated_spin(radii, m).homology
            for perm in set(permutations(radii)):
                assert iterated_spin(list(perm), m).homology == reference, (m.expr, radii)

        same_dim = {}
        for _, m in descriptors:
            if m.dim >= 3:
                same_dim.setdefault(m.dim, []).append(m)
        checked = 0
        for dim, group in sorted(same_dim.items()):
            if len(group) < 2 or checked >= 25:
                continue
            a, b = group[0], group[1]
            r = rng.randint(1, 3)
            lhs = spin(r, connected_sum(a, b)).homology
            rhs = connected_sum(spin(r, a), spin(r, b)).homology
            assert lhs == rhs, (a.expr, b.expr)
            checked += 1
        assert checked >= 5


def test_criterion_7_degree_set_rules():
    with criterion(7, "degree-set rules for the named classes"):
        all_integer_exprs = [
            "S(4)",
            "prod(S(2), S(3))",
            "prod(S(1), prod(S(2), S(4)))",
            "csum(prod(S(2),S(3)), prod(S(1),S(4)))",
            "spin(2, S(4))",
            "spin(3, prod(S(2), S(3)))",
            "spin(1, csum(prod(S(2),S(3)), prod(S(1),S(4))))",
            "spin(2, spin(1, prod(S(1), prod(S(2), S(4)))))",
            "spin(2, CP(3))",
        ]
        for text in all_integer_exprs:
            ds = degree_set(evaluate_text(text))
            assert ds.exact and ds.upper_bound.kind == "all", text
        for g in (2, 3):
            ds = degree_set(evaluate_text(f"Sigma({g})"))
            assert ds.exact and ds.upper_bound.kind == "signed_unit", g
        for n in (2, 3, 4):
            ds = degree_set(evaluate_text(f"CP({n})"))
            assert ds.exact and ds.upper_bound.kind == "perfect_powers"
            assert ds.upper_bound.exponent == n
        for p in (3, 7, 11):
            ds = degree_set(evaluate_text(f"N({p})"))
            assert ds.exact and ds.upper_bound.kind == "nonnegative_unit", p


def test_criterion_8_exclusivity():
    with criterion(8, "no descriptor is both strongly chiral and degree -1 capable"):
        for expr, m in shared_corpus():
            verdict = chirality_verdict(m)  # raises on internal contradiction
            ds = degree_set(m)
            assert not (
                verdict.kind == PROVEN_STRONGLY_CHIRAL and -1 in ds.known_subset
            ), expr
