import json
import os
import random
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spincalc
from spincalc import analysis, cli, residues
from spincalc.analysis import (
    ADMITS_DEGREE_MINUS_ONE,
    INCONCLUSIVE,
    PROVEN_STRONGLY_CHIRAL,
    _sphere_level,
    chirality_verdict,
    degree_set,
)
from spincalc.construct import (
    CP,
    DehnRHS,
    IHS3,
    Lens,
    Sphere,
    Surface,
    cp,
    dehn_rhs,
    lens,
    pipeline_main,
    pipeline_main2,
    sphere,
    spin,
    surface,
)
from spincalc.dsl import evaluate_text
from spincalc.manifold import ManifoldDescriptor, Trivial
from spincalc.residues import (
    MR_EXACT_BOUND,
    factorize,
    is_prime,
    minus_one_is_square_mod,
)

from helpers import (
    all_asts,
    is_sphere_product_sum,
    minus_one_square_euler,
    minus_one_square_scan,
    random_ast,
    reference_degree_set,
    rewrite,
    thirteen_base_is_prime,
    trial_division_factorization,
)

# psi_k of OEIS A014233, the least strong pseudoprime to the first k prime
# bases, for k = 1, ..., 7, 9 and 12; psi_8 = psi_7 and psi_10 = psi_11 = psi_9
LEAST_STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)


class TestResidues:
    def test_modulus_one(self):
        assert minus_one_is_square_mod(1) is True

    def test_small_scan_values(self):
        assert minus_one_square_scan(5) is True  # 2^2 = 4
        assert minus_one_square_scan(7) is False
        assert minus_one_square_scan(14) is False

    def test_dispatch_matches_scan(self):
        for q in range(1, 200):
            assert minus_one_is_square_mod(q) == minus_one_square_scan(q), q

    def test_euler_requires_odd_prime(self):
        with pytest.raises(ValueError):
            minus_one_square_euler(15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            minus_one_is_square_mod(0)

    def test_odd_primes_follow_euler(self):
        big = (1000003, 1000000000039, 1000000000000000003, MR_EXACT_BOUND - 168)
        for q in [q for q in range(3, 2000, 2) if is_prime(q)] + list(big):
            assert minus_one_is_square_mod(q) == minus_one_square_euler(q), q

    def test_large_composite_path(self):
        # composites go through factorization: 101 and 13 are both 1 mod 4
        assert minus_one_is_square_mod(101 * 101 * 13) is True
        assert minus_one_is_square_mod(101 * 103 * 13) is False

    def test_odd_part_3_mod_4_needs_no_factoring(self, monkeypatch):
        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(residues, "factorize", no_factoring)
        p, q = 100000000000000000039, 300000000000000000053  # p * q = 3 (mod 4)
        for modulus in (p * q, 2 * p * q, 7, 14, 3 * 5 * 13):
            assert minus_one_is_square_mod(modulus) is False, modulus

    def test_primality(self):
        assert is_prime(2) and is_prime(7919)
        assert not is_prime(1) and not is_prime(7917)

    def test_strong_pseudoprime_to_twelve_bases(self):
        # 399165290221 * 798330580441 passes bases 2..37; base 41 is a witness
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(318665857834031151167461)

    @pytest.mark.parametrize("psi", LEAST_STRONG_PSEUDOPRIMES)
    def test_least_strong_pseudoprimes_are_rejected(self, psi):
        # psi_k passes the first k bases, so the prefix below it must go one further
        assert not is_prime(psi)

    def test_base_prefixes_agree_with_all_thirteen_bases(self):
        assert [n for n in range(300000) if is_prime(n)] == [
            n for n in range(300000) if thirteen_base_is_prime(n)
        ]
        rng = random.Random(2024)
        for _ in range(5000):
            bits = rng.randint(40, 80)
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            assert is_prime(n) == thirteen_base_is_prime(n), n

    def test_probable_prime_above_exact_bound_raises(self):

        assert is_prime(MR_EXACT_BOUND - 168)  # the largest prime below the bound
        for n in (MR_EXACT_BOUND, 2**89 - 1):
            with pytest.raises(ValueError):
                is_prime(n)
        # a Miller-Rabin witness proves a composite at any size
        assert not is_prime((2**89 - 1) * (2**61 - 1))


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _primes(lo: int, hi: int, max_size: int):
    return st.lists(st.integers(lo, hi).map(_next_prime), max_size=max_size)


# Products of primes below and above the trial bound 1000, up to 10^12,
# with repeats; at most one prime above 10^9 keeps each rho search short.
_prime_multisets = st.builds(
    lambda small, medium, large, huge, square: small + medium + large + huge + square * 2,
    _primes(2, 999, 6),
    _primes(1000, 10**6, 3),
    _primes(10**6, 10**9, 2),
    _primes(10**9, 10**12, 1),
    _primes(1000, 10**6, 1),
)


class TestFactorize:
    @settings(max_examples=150, deadline=None)
    @given(_prime_multisets)
    def test_products_of_primes(self, primes):
        n = prod(primes)
        factors = factorize(n)
        assert prod(p**e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)
        ordered = sorted([1, 1] + primes)
        # trial division runs to about max(second largest prime, sqrt(largest))
        if max(ordered[-2], isqrt(ordered[-1])) < 10**5:
            assert factors == trial_division_factorization(n)

    def test_the_primes_below_1000_come_from_one_gcd(self):
        """Edge cases of dividing out the primes that a gcd with their product reveals."""
        cases = [1, *(2**k for k in range(1, 70)), 997**2, 991 * 997, 997 * 1009, 991 * 1009 * 1013]
        cases += [2 * 3 * 5 * 997 * 1009, 2**5 * 997**3 * 1019]
        # 2pq near the semiprimes of the bignum benchmark: p < q of similar size
        for target in (10**3, 4 * 10**4, 10**5, 10**8):
            p = _next_prime(isqrt(target) * 7 // 10)
            cases.append(2 * p * _next_prime(target // p))
        for n in cases:
            factors = factorize(n)
            assert factors == trial_division_factorization(n), n
            small = [p for p in factors if p < 1000]
            assert list(factors)[: len(small)] == sorted(small), n

    def test_nineteen_digit_prime_cofactor(self):
        assert factorize(2 * 1000000000000000003) == {2: 1, 1000000000000000003: 1}

    def test_smallest_prime_factor_near_10_to_12(self):
        p, q = 1000000000039, 3000000000013
        assert factorize(2 * p * q) == {2: 1, p: 1, q: 1}

    def test_probable_prime_cofactor_raises(self):
        with pytest.raises(ValueError, match="probable prime"):
            minus_one_is_square_mod(2 * MR_EXACT_BOUND)

    def test_step_budget_ends_the_search(self):
        p, q = 100000000000000000039, 300000000000000000053  # primes near 10^20
        with pytest.raises(ValueError, match=f"cannot factor {p * q}: "):
            factorize(2 * p * q)


class TestChirality:
    def test_main_pipeline_is_strongly_chiral(self):
        verdict = chirality_verdict(pipeline_main(1, 7))
        assert verdict.kind == PROVEN_STRONGLY_CHIRAL
        assert any("mod 14" in step for step in verdict.trace)

    def test_lens_with_residue_is_inconclusive(self):
        verdict = chirality_verdict(lens(5, 7))
        assert verdict.kind == INCONCLUSIVE
        assert any("square mod 5" in step for step in verdict.trace)

    def test_sphere_admits_reflection(self):
        assert chirality_verdict(sphere(3)).kind == ADMITS_DEGREE_MINUS_ONE

    def test_noncyclic_torsion_is_inconclusive(self):
        m = evaluate_text("spin(1, spin(1, spin(1, spin(1, N(7)))))")
        verdict = chirality_verdict(m)
        assert verdict.kind == INCONCLUSIVE
        assert any("not cyclic" in step for step in verdict.trace)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("L(3,5)", "dimension 5 is not of the form 4k+3; torsion linking test inapplicable"),
            ("IHS3", "Tor H^2 = 0 is not cyclic of order >= 2"),
            ("csum(E(1,7),E(1,7))", "Tor H^4 = Z_14^2 is not cyclic of order >= 2"),
            ("N(13)", "-1 is a square mod 26, so the torsion linking test is silent"),
        ],
    )
    def test_a_silent_linking_test_gives_one_reason(self, capsys, text, reason):
        trace = [
            reason,
            "no externally proven chirality fact recorded",
            "degree-set engine does not realize -1",
        ]
        assert cli.main(["chirality", text]) == 0
        assert capsys.readouterr().out == "".join(
            [f"{text}: inconclusive\n", *(f"  - {step}\n" for step in trace)]
        )
        assert cli.main(["chirality", "--json", text]) == 0
        assert json.loads(capsys.readouterr().out)["trace"] == trace

    @pytest.mark.parametrize("text", ["N(13)", "csum(E(1,7),E(1,7))"])
    def test_an_inconclusive_verdict_reads_the_middle_torsion_once(self, monkeypatch, text):
        m = evaluate_text(text)
        calls = []
        original = analysis.middle_torsion
        monkeypatch.setattr(analysis, "middle_torsion", lambda d: calls.append(d) or original(d))
        assert chirality_verdict(m).kind == INCONCLUSIVE
        assert calls == [m]

    def test_dehn_filling_of_a_1_mod_4_prime_needs_no_primality_test(self, monkeypatch):
        """dehn_rhs certified p, so -1 mod 2p is read off p mod 4."""
        m = dehn_rhs(999999999989)  # prime, = 1 (mod 4)
        calls = []
        for name in ("is_prime", "factorize"):
            original = getattr(residues, name)
            monkeypatch.setattr(
                residues, name, lambda n, name=name, f=original: calls.append(name) or f(n)
            )
        verdict = chirality_verdict(m)
        assert calls == []
        assert verdict.describe() == (
            "inconclusive\n"
            "  - -1 is a square mod 1999999999978, so the torsion linking test is silent\n"
            "  - no externally proven chirality fact recorded\n"
            "  - degree-set engine does not realize -1"
        )

    def test_contradictory_analysis_raises(self, monkeypatch):
        """A proof of chirality beside a degree -1 witness is an internal error."""
        monkeypatch.setattr(analysis, "_linking_test", lambda m: (True, ("planted proof",)))
        with pytest.raises(ValueError, match="^contradictory analysis"):
            chirality_verdict(sphere(3))

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31, 43, 47])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_grid_instantiation(self, m, p):
        assert chirality_verdict(pipeline_main(m, p)).kind == PROVEN_STRONGLY_CHIRAL
        assert chirality_verdict(pipeline_main2(m, p)).kind == PROVEN_STRONGLY_CHIRAL


class TestDegreeSets:
    def test_spin_of_sphere_product(self):
        ds = degree_set(evaluate_text("spin(3, prod(S(2), S(5)))"))
        assert ds.exact and ds.upper_bound.kind == "all"

    def test_spin_of_cp_special_case(self):
        ds = degree_set(evaluate_text("spin(2, CP(3))"))
        assert ds.exact and ds.upper_bound.kind == "all"
        assert ds.rules == ("spin-of-complex-projective",)

    def test_dehn_generator(self):
        ds = degree_set(dehn_rhs(7))
        assert ds.exact and ds.upper_bound.kind == "nonnegative_unit"
        assert not ds.contains_minus_one()

    def test_surface(self):
        ds = degree_set(surface(3))
        assert ds.exact and ds.upper_bound.kind == "signed_unit"

    def test_complex_projective(self):
        ds = degree_set(cp(3))
        assert ds.exact and ds.upper_bound.kind == "perfect_powers"
        assert ds.upper_bound.exponent == 3
        assert ds.upper_bound.contains(-8) and not ds.upper_bound.contains(4)

    def test_cp1_is_a_sphere(self):
        ds = degree_set(cp(1))
        assert ds.exact and ds.upper_bound.kind == "all"

    def test_no_rule_matched(self):
        ds = degree_set(pipeline_main(1, 7))
        assert not ds.exact
        assert ds.known_subset == {0, 1}
        assert ds.upper_bound.kind == "unknown"

    def test_spin_of_surface(self):
        ds = degree_set(evaluate_text("spin(4, Sigma(2))"))
        assert ds.exact and ds.upper_bound.kind == "all"
        assert ds.rules == ("sphere-product-sum",)

    @pytest.mark.parametrize("command", ["degrees", "chirality"])
    @pytest.mark.parametrize(
        "text",
        ["spin(1,Sigma(600))", "spin(2,spin(1,Sigma(2000)))", "spin(2,spin(1,Sigma(200000)))"],
    )
    def test_spin_of_a_high_genus_surface_is_answered(self, command, text):
        """The sphere level of a spun surface is read off its nodes, whatever the genus."""
        src = Path(spincalc.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "spincalc.cli", command, text],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=10,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert "Z (all integers)" in result.stdout

    @pytest.mark.parametrize(
        "text, answer",
        [
            ("spin(1,csum(CP(2),CP(2)))", "Z (all integers)"),
            ("spin(3,spin(1,CP(2)))", "Z (all integers)"),
            ("spin(1,prod(prod(S(2),S(2)),S(2)))", "Z (all integers)"),
            ("prod(spin(1,spin(1,CP(2))),S(2))", "contains [0, 1]; no upper bound known"),
            ("csum(spin(1,CP(3)),spin(1,CP(3)))", "contains [0, 1]; no upper bound known"),
        ],
    )
    def test_spins_of_complex_projective_and_sphere_products(self, text, answer):
        assert degree_set(evaluate_text(text)).describe() == answer

    def test_spin_distributes_over_csum_of_sphere_products(self):
        ds = degree_set(evaluate_text("spin(5, csum(prod(S(2),S(3)), prod(S(1),S(4))))"))
        assert ds.exact and ds.upper_bound.kind == "all"

    def test_ihs3_hyperbolic_bound(self):
        from spincalc.construct import ihs3

        ds = degree_set(ihs3())
        assert ds.upper_bound.kind == "signed_unit"

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_dehn_filling_is_exact_for_either_residue_of_p(self, p):
        ds = degree_set(dehn_rhs(p))
        assert ds.exact and ds.known_subset == frozenset({0, 1})
        assert ds.rules == ("hyperbolic-odd-isometry",)
        assert not ds.contains_minus_one()

    @pytest.mark.parametrize(
        "text", ["csum(S(3),N(7))", "prod(N(7),E(1,7))", "spin(4,IHS3)"]
    )
    def test_a_combinator_of_a_hyperbolic_generator_matches_no_rule(self, text):
        """A generator's facts stay with its own node: no combinator inherits them."""
        ds = degree_set(evaluate_text(text))
        assert ds.rules == ("no-rule-matched",)
        assert not ds.exact and ds.upper_bound.kind == "unknown"

    def test_degree_set_reads_only_the_expression(self):
        m = dehn_rhs(7)
        other = ManifoldDescriptor(m.expr, 3, sphere(3).homology, Trivial())
        assert degree_set(other) == degree_set(m)

    def test_every_ast_of_depth_two_gets_the_set_of_a_fresh_build(self):
        h = sphere(3).homology
        asts = all_asts(TestSphereLevel.LEAVES + [IHS3()], 2)
        rules = set()
        for e in asts:
            m = ManifoldDescriptor(e, 3, h, Trivial())
            ds = degree_set(m)
            assert ds == reference_degree_set(m), str(e)
            rules.update(ds.rules)
        assert len(rules) == 7

    @pytest.mark.parametrize(
        "text", ["spin(2,CP(3))", "prod(S(2),S(3))", "Sigma(2)", "N(7)", "IHS3", "L(3,5)"]
    )
    def test_a_rule_that_ignores_the_expression_returns_one_shared_set(self, text):
        m = evaluate_text(text)
        assert degree_set(m) is degree_set(m)

    def test_exclusivity_on_samples(self):
        for m in (sphere(5), cp(2), surface(2), dehn_rhs(7), pipeline_main(1, 7)):
            verdict = chirality_verdict(m)
            ds = degree_set(m)
            assert not (verdict.kind == PROVEN_STRONGLY_CHIRAL and -1 in ds.known_subset)


class TestSphereLevel:
    """``_sphere_level`` against a rewrite that builds the spun tree."""

    LEAVES = [Sphere(1), Sphere(2), CP(1), CP(2), CP(3), Surface(2), Lens(3, 3), DehnRHS(7)]

    @staticmethod
    def disagreements(asts) -> list[str]:
        return [str(e) for e in asts if (_sphere_level(e) >= 2) != is_sphere_product_sum(rewrite(e))]

    def test_every_ast_of_depth_two_matches_the_rewrite(self):
        asts = all_asts(self.LEAVES, 2)
        assert len(asts) == 41624
        assert self.disagreements(asts) == []

    def test_random_deep_asts_match_the_rewrite(self):
        # a wrong level for spin(r, CP(2)) first shows at depth 3, beyond the set above
        rng = random.Random(2024)
        assert self.disagreements(random_ast(rng, self.LEAVES, 6) for _ in range(20000)) == []
