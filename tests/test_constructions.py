import gc
import io
import random
import re

import pytest

from spincalc import abelian, cli, construct
from spincalc.abelian import Z, cyclic, free, normalize
from spincalc.construct import (
    CP,
    Lens,
    Prod,
    Sphere,
    Spin,
    Surface,
    bundle,
    connected_sum,
    cp,
    dehn_rhs,
    ihs3,
    iterated_spin,
    lens,
    pipeline_main,
    pipeline_main2,
    product,
    sphere,
    spin,
    surface,
)
from spincalc.dsl import evaluate_text
from spincalc.graded import GradedGroup, check_poincare_duality
from spincalc.manifold import (
    FiniteCyclic,
    FreeGroup,
    HyperbolicThreeManifoldGroup,
    Trivial,
    make_descriptor,
)

from helpers import corpus, graded_as_orders, kunneth_orders, same_finite_group


def rules_size() -> int:
    """What ``construct._size`` should read: 1 plus the homology runs of every descriptor, per entry."""
    return sum(
        1 + sum(len(m.homology.runs) for m in entry) for entry in construct._rules.values()
    )


class TestSphere:
    def test_three_sphere(self):
        s = sphere(3)
        assert dict(s.homology.entries) == {0: Z, 3: Z}
        assert s.pi1 == Trivial()
        assert s.connectivity == 2

    def test_circle(self):
        s = sphere(1)
        assert dict(s.homology.entries) == {0: Z, 1: Z}
        assert s.pi1 == FreeGroup(1)

    def test_euler_characteristic_odd(self):
        assert sphere(7).homology.euler_characteristic() == 0

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            sphere(0)


class TestLens:
    def test_seven_dimensional(self):
        m = lens(7, 7)
        torsion = {d: g for d, g in m.homology.entries if d not in (0, 7)}
        assert torsion == {1: cyclic(7), 3: cyclic(7), 5: cyclic(7)}
        # oracle: duality and UCT must both hold for the stated grading
        assert check_poincare_duality(m.homology, 7)

    def test_three_dimensional(self):
        assert lens(2, 3).homology == GradedGroup.from_dict({0: Z, 1: cyclic(2), 3: Z}, 3)

    def test_middle_cohomology_torsion(self):
        for m_idx, p in [(0, 3), (1, 5), (2, 7)]:
            dim = 4 * m_idx + 3
            c = lens(p, dim).cohomology()
            assert c.group(2 * m_idx + 2).torsion() == cyclic(p)

    def test_rejects_even_dimension(self):
        with pytest.raises(ValueError):
            lens(3, 4)


class TestHyperbolicGenerators:
    def test_dehn_homology(self):
        assert dehn_rhs(7).homology == GradedGroup.from_dict({0: Z, 1: cyclic(14), 3: Z}, 3)
        assert dehn_rhs(3).homology.group(1) == cyclic(6)

    def test_dehn_rejects_composite(self):
        with pytest.raises(ValueError):
            dehn_rhs(4)

    @pytest.mark.parametrize(
        "text, ids",
        [
            ("N(7)", "#1"),
            ("csum(N(7),N(7))", "#1 * #2"),
            ("prod(csum(N(7),IHS3),spin(2,N(3)))", "(#1 * #2) x #3"),
        ],
    )
    def test_occurrences_are_numbered_in_source_order(self, text, ids):
        """Each N or IHS3 is another manifold: its pi_1 is numbered when printed."""
        assert dehn_rhs(7).pi1 == ihs3().pi1 == HyperbolicThreeManifoldGroup()
        described = evaluate_text(text).pi1.describe()
        assert re.sub(r"pi_1\(hyperbolic 3-manifold (#\d+)\)", r"\1", described) == ids

    def test_ihs3(self):
        m = ihs3()
        assert dict(m.homology.entries) == {0: Z, 3: Z}
        assert m.homology.euler_characteristic() == 0

    def test_spin_of_ihs3_upper_degrees(self):
        spun = spin(4, ihs3())
        assert dict(spun.homology.entries) == {0: Z, 7: Z}


HYPERBOLIC = "admits a closed real hyperbolic metric"
ODD_ISOMETRY = "full isometry group has odd order"


class TestGeneratorFacts:
    """A generator lists what is taken on faith about it; a combinator lists nothing."""

    @pytest.mark.parametrize(
        "text, facts",
        [
            ("S(3)", ("degree set known: Z (all integers)",)),
            ("CP(2)", ()),
            ("Sigma(2)", ()),
            ("L(7,3)", ()),
            ("N(7)", (HYPERBOLIC, ODD_ISOMETRY)),
            ("IHS3", (HYPERBOLIC,)),
            ("E(1,7)", ()),
            ("spin(4,N(7))", ()),
            ("csum(S(3),N(7))", ()),
            ("prod(N(7),IHS3)", ()),
        ],
    )
    def test_facts_of_each_expression_class(self, text, facts):
        assert evaluate_text(text).expr.facts == facts

    def test_facts_belong_to_the_class_not_the_value(self):
        assert Sphere(3).facts is Sphere(5).facts is Sphere.facts
        assert Sphere(3) != Sphere(5)
        assert "facts" not in Sphere.__match_args__


class TestBundle:
    def test_gysin_torsion(self):
        e1 = bundle(1, 7)
        assert dict(e1.cohomology().entries) == {0: Z, 4: cyclic(14), 7: Z}
        assert dict(e1.homology.entries) == {0: Z, 3: cyclic(14), 7: Z}

    def test_circle_bundle_over_two_sphere(self):
        e0 = bundle(0, 7)
        assert e0.dim == 3
        assert e0.homology == GradedGroup.from_dict({0: Z, 1: cyclic(14), 3: Z}, 3)
        assert e0.pi1 == FiniteCyclic(14)

    def test_unit_euler_multiple(self):
        e2 = bundle(2, 1)
        assert e2.dim == 11
        assert e2.homology.group(5) == cyclic(2)

    def test_rejects_zero_multiple(self):
        with pytest.raises(ValueError):
            bundle(1, 0)


def graded_groups_built(monkeypatch, build) -> int:
    """How many GradedGroups ``build()`` constructs."""
    init = GradedGroup.__init__
    count = 0

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedGroup, "__init__", counting)
    build()
    return count


class TestSpin:
    def test_builds_at_most_three_graded_groups(self, monkeypatch):
        m = dehn_rhs(7)
        assert graded_groups_built(monkeypatch, lambda: spin(4, m)) <= 3

    def test_four_spin_of_dehn(self):
        spun = spin(4, dehn_rhs(7))
        assert dict(spun.homology.entries) == {0: Z, 1: cyclic(14), 5: cyclic(14), 7: Z}

    def test_spin_of_sphere_is_bigger_sphere(self):
        assert spin(3, sphere(4)).homology == sphere(7).homology

    def test_double_spin(self):
        spun = spin(1, spin(1, dehn_rhs(7)))
        expected = GradedGroup.from_dict(
            {0: Z, 1: cyclic(14), 2: normalize([14, 14]), 3: cyclic(14), 5: Z}, 5
        )
        assert spun.homology == expected

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            spin(1, sphere(1))

    def test_surface_rewrite(self):
        spun = spin(2, surface(2))
        # homology of a connected sum of 4 copies of S^3 x S^1
        assert spun.homology.group(1).rank == 4
        assert spun.homology.group(3).rank == 4
        assert spun.expr == Spin(2, Surface(2))
        summand = product(sphere(3), sphere(1))
        expected = summand
        for _ in range(3):
            expected = connected_sum(expected, summand)
        assert spun.homology == expected.homology
        assert spun.pi1 == expected.pi1

    def test_torus_rewrite(self):
        torus = product(sphere(1), sphere(1))
        spun = spin(1, torus)
        expected = connected_sum(
            product(sphere(2), sphere(1)), product(sphere(2), sphere(1))
        )
        assert spun.homology == expected.homology
        assert spun.pi1 == expected.pi1
        assert spun.expr == Spin(1, Prod(Sphere(1), Sphere(1)))

    def test_spin_of_surface_keeps_its_expression(self):
        summand = product(sphere(2), sphere(1))
        for genus in (2, 300):
            spun = evaluate_text(f"spin(1,Sigma({genus}))")
            assert str(spun.expr) == f"spin(1,Sigma({genus}))"
            expected = summand
            for _ in range(2 * genus - 1):
                expected = connected_sum(expected, summand)
            assert spun.homology == expected.homology
            assert spun.pi1 == expected.pi1

    def test_spin_of_cp_matches_product_form(self):
        for n, r in [(2, 1), (3, 2)]:
            assert spin(r, cp(n)).homology == product(cp(n - 1), sphere(r + 2)).homology


class TestConnectedSum:
    def test_main_theorem_shape(self):
        m = connected_sum(bundle(1, 7), spin(4, dehn_rhs(7)))
        assert dict(m.homology.entries) == {
            0: Z, 1: cyclic(14), 3: cyclic(14), 5: cyclic(14), 7: Z
        }

    def test_sphere_is_unit(self):
        m = dehn_rhs(3)
        assert connected_sum(m, sphere(3)).homology == m.homology
        assert connected_sum(m, sphere(3)).pi1 == m.pi1

    def test_same_summand_twice(self):
        m = connected_sum(dehn_rhs(3), dehn_rhs(3))
        assert m.homology.group(1) == normalize([6, 6])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            connected_sum(sphere(3), sphere(4))

    def test_builds_at_most_two_graded_groups(self, monkeypatch):
        a, b = bundle(1, 7), spin(4, dehn_rhs(7))
        assert graded_groups_built(monkeypatch, lambda: connected_sum(a, b)) <= 2

    def test_groups_add_degreewise(self):
        pairs = [
            (dehn_rhs(3), dehn_rhs(3)),
            (lens(7, 7), pipeline_main(1, 7)),
            (bundle(1, 3), spin(4, dehn_rhs(5))),
        ]
        by_dim = {}
        for _, m in corpus(31, 300, 4):
            if m.dim >= 3:
                by_dim.setdefault(m.dim, []).append(m)
        for group in by_dim.values():
            pairs += zip(group[::2], group[1::2])
        assert len(pairs) > 50
        for a, b in pairs:
            s = connected_sum(a, b).homology
            n = a.dim
            assert s.group(0) == Z and s.group(n) == Z
            for i in range(1, n):
                ga, gb, gs = a.homology.group(i), b.homology.group(i), s.group(i)
                assert gs.rank == ga.rank + gb.rank, (a.expr, b.expr, i)
                assert same_finite_group(
                    list(ga.factors) + list(gb.factors), list(gs.factors)
                ), (a.expr, b.expr, i)


class TestProduct:
    def test_free_kunneth(self):
        m = product(sphere(2), sphere(3))
        assert dict(m.homology.entries) == {0: Z, 2: Z, 3: Z, 5: Z}

    def test_against_brute_force_expansion(self):
        rng = random.Random(5)
        pairs = [
            (dehn_rhs(7), bundle(1, 7)),
            (sphere(400), sphere(400)),
            (lens(5, 7), cp(3)),
            (lens(4, 5), lens(6, 7)),
            (product(lens(3, 7), lens(3, 7)), lens(3, 7)),
        ]
        for _ in range(25):
            (_, a), = corpus(rng.randint(0, 10**6), 1, 3)
            (_, b), = corpus(rng.randint(0, 10**6), 1, 3)
            pairs.append((a, b))
        for a, b in pairs:
            m = product(a, b)
            oa, ob = graded_as_orders(a), graded_as_orders(b)
            for k in range(m.dim + 1):
                rank, orders = kunneth_orders(oa, ob, k)
                g = m.homology.group(k)
                assert g.rank == rank, (a.expr, b.expr, k)
                assert same_finite_group(orders, list(g.factors)), (a.expr, b.expr, k)

    @pytest.mark.parametrize(
        "make, n", [(sphere, 400), (cp, 150), (lambda n: lens(3, n), 101)],
        ids=["sphere-400", "cp-150", "lens-3-101"],
    )
    def test_one_tensor_and_one_tor_per_pair_of_nonzero_entries(
        self, empty_rules, monkeypatch, make, n
    ):
        """One kunneth_terms call per pair of entries, one normalize per degree."""
        m = make(n)
        calls = {"kunneth_terms": 0, "normalize": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(construct, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(construct, name, counted)
        p = product(m, m)
        assert calls["kunneth_terms"] == len(m.homology.entries) ** 2
        assert calls["normalize"] <= p.dim + 1

    def test_coprime_torsion_hands_normalize_no_trivial_order(self, empty_rules, monkeypatch):
        """A gcd of 1 is a trivial summand: neither Kunneth term carries it."""
        seen = []

        def recorded(orders, rank=0, real=construct.normalize):
            seen.extend(orders)
            return real(orders, rank)

        monkeypatch.setattr(construct, "normalize", recorded)
        m = product(lens(3, 3), lens(5, 3))
        assert seen and 1 not in seen
        assert dict(m.homology.entries) == {
            0: Z, 1: cyclic(15), 3: free(2), 4: cyclic(15), 6: Z,
        }

    def test_euler_characteristic_multiplies(self):
        rng = random.Random(7)
        for _ in range(25):
            (_, a), = corpus(rng.randint(0, 10**6), 1, 3)
            (_, b), = corpus(rng.randint(0, 10**6), 1, 3)
            chi = product(a, b).homology.euler_characteristic()
            assert chi == a.homology.euler_characteristic() * b.homology.euler_characteristic()


class TestRuleTable:
    """Each rule's descriptor is made once; later calls with the same inputs return it."""

    def test_a_second_product_of_the_same_operands_computes_nothing(self, empty_rules, monkeypatch):
        a, b = lens(3, 7), cp(3)
        first = product(a, b)
        calls = {"kunneth_terms": 0, "normalize": 0, "make_descriptor": 0}
        for module, name in [
            (construct, "kunneth_terms"), (construct, "normalize"), (abelian, "normalize"),
            (construct, "make_descriptor"),
        ]:
            def counted(*args, name=name, real=getattr(module, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        second = product(a, b)
        assert calls == {"kunneth_terms": 0, "normalize": 0, "make_descriptor": 0}
        assert second is first

    def test_a_second_dehn_filling_tests_no_primality(self, empty_rules, monkeypatch):
        p = 1000000000000000003
        first = dehn_rhs(p)
        calls = []
        real = construct.is_prime
        monkeypatch.setattr(construct, "is_prime", lambda n: calls.append(n) or real(n))
        assert dehn_rhs(p) is first
        assert calls == []
        with pytest.raises(ValueError, match="must be prime"):
            dehn_rhs(p + 2)  # 5 * 200000000000000001: a miss, so it is tested
        assert calls == [p + 2]

    def test_a_second_spin_makes_no_descriptor(self, empty_rules, monkeypatch):
        m = lens(3, 5)
        first = spin(2, m)
        calls = []
        real = construct.make_descriptor
        monkeypatch.setattr(
            construct, "make_descriptor", lambda *args: calls.append(args) or real(*args)
        )
        assert spin(2, m) is first
        assert calls == []
        assert spin(2, lens(3, 5)) is first  # the generator hits too
        assert spin(3, m) is not first and len(calls) == 1

    def test_an_entry_keeps_its_operands_alive(self, empty_rules):
        """No id in a key can name another object while its entry lives."""
        # descriptors that no rule made, so only the rule table can hold them
        h = GradedGroup(5, ((0, 1, 1, Z), (1, 2, 2, cyclic(3)), (5, 1, 1, Z)))
        a = make_descriptor(Lens(3, 5), 5, h, FiniteCyclic(3))
        b = make_descriptor(CP(1), 2, GradedGroup(2, ((0, 2, 2, Z),)), Trivial())
        del h
        spin(2, a), connected_sum(a, a), product(a, b)
        del a, b
        gc.collect()
        # objects made now would take the ids of any operand that died
        h3 = GradedGroup(3, ((0, 1, 1, Z), (3, 1, 1, Z)))
        made = [make_descriptor(Sphere(3), 3, h3, Trivial()) for _ in range(1000)]
        assert len(construct._rules) == 3
        for key, (_, *operands) in construct._rules.items():
            assert key[-len(operands):] == tuple(id(m) for m in operands)
            assert not any(m is n for m in operands for n in made)

    def test_an_entry_past_the_cap_empties_the_table_first(self, empty_rules, monkeypatch):
        s3, l5 = sphere(3), lens(3, 5)  # 1 plus 2 runs, 1 plus 4 runs (one per degree)
        product(s3, l5)  # 1 plus the 7 runs of the product and those of its operands
        keys = [("S", 3), ("L", 3, 5), ("prod", id(s3), id(l5))]
        assert list(construct._rules) == keys
        assert construct._size == rules_size() == 3 + 5 + (1 + 7 + 2 + 4)
        monkeypatch.setattr(construct, "RULES_CAP", 22 + 3)
        sphere(4)  # fits exactly
        assert len(construct._rules) == 4 and construct._size == rules_size() == 25
        sphere(5)  # would pass the cap: only it is kept
        assert list(construct._rules) == [("S", 5)] and construct._size == rules_size() == 3

    def test_emptying_the_table_empties_the_group_table(self, empty_rules, monkeypatch):
        z3 = lens(3, 5).homology.group(1)  # 1 plus 4 runs
        assert z3 is cyclic(3)
        monkeypatch.setattr(construct, "RULES_CAP", 5)
        sphere(4)  # 1 plus 2 runs would pass the cap
        assert list(construct._rules) == [("S", 4)] and abelian._groups == {}
        assert lens(3, 5).homology.group(1) == z3 is not cyclic(3)

    def test_a_batch_of_distinct_high_dimensional_lines_stays_within_the_cap(
        self, empty_rules, monkeypatch, capsys
    ):
        """Lines of about 25,000 runs each: together twice the cap, never kept together.

        Z + Z_5 in the even degrees and Z_5 in the odd ones alternate, so
        each degree of the sum is a run of its own.
        """
        sizes, units = [], []
        real = construct._keep

        def keep(key, *entry):
            kept = real(key, *entry)
            sizes.append(construct._size)
            units.append(1 + sum(len(m.homology.runs) for m in entry))
            return kept

        monkeypatch.setattr(construct, "_keep", keep)
        lines = [f"csum(CP({n}),spin(1,L(5,{2 * n - 1})))" for n in range(12_500, 12_510)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert cli.main(["eval", "-"]) == 0
        assert capsys.readouterr().out.count("homology H_i:") == len(lines)
        assert sum(units) > 2 * construct.RULES_CAP
        assert max(sizes) <= construct.RULES_CAP
        assert construct._size == rules_size()

    def test_a_table_emptied_within_a_line_changes_no_answer(self, empty_rules, monkeypatch, capsys):
        batch = "".join(f"{expr}\n" for expr, _ in corpus(2024, 1000))

        def outputs() -> list[tuple]:
            monkeypatch.setattr(construct, "_rules", {})
            monkeypatch.setattr(construct, "_size", 0)
            results = []
            for command in ["eval", "chirality", "degrees", "validate"]:
                monkeypatch.setattr("sys.stdin", io.StringIO(batch))
                status = cli.main([command, "-"])
                results.append((status, *capsys.readouterr()))
            return results

        default = outputs()
        within = 0  # combinators entered into a table emptied since their operands were made
        real = construct._keep

        def keep(key, *entry):
            nonlocal within
            kept = real(key, *entry)
            within += len(entry) > 1 and len(construct._rules) == 1
            return kept

        monkeypatch.setattr(construct, "_keep", keep)
        monkeypatch.setattr(construct, "RULES_CAP", 50)
        assert outputs() == default
        assert within > 100 and construct._size <= 50

    def test_repeated_verify_calls_keep_the_table_within_the_cap(self, empty_rules, monkeypatch, capsys):
        """``verify`` starts no batch command, and the table still bounds itself."""
        monkeypatch.setattr(construct, "RULES_CAP", 300)
        primes = [p for p in range(3, 400, 4) if all(p % q for q in range(3, p, 2))]
        sizes = []
        for p in primes:
            assert cli.main(["verify", "--theorem", "main", "--m", "2", "--p", str(p)]) == 0
            sizes.append(construct._size)
            assert construct._size == rules_size()
        capsys.readouterr()
        assert len(primes) > 20 and 0 < max(sizes) <= 300
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was emptied


class TestIteratedSpin:
    @pytest.mark.parametrize("p", [3, 7])
    def test_seven_dimensional_table(self, p):
        t = cyclic(2 * p)
        expectations = {
            (1, 1, 1, 1): normalize([2 * p] * 6),
            (2, 1, 1): normalize([2 * p] * 2),
            (3, 1): normalize([]),
            (2, 2): normalize([2 * p] * 2),
        }
        for radii, expected in expectations.items():
            got = iterated_spin(list(radii), dehn_rhs(p)).homology.group(3)
            assert got == expected, radii

    def test_order_independence(self):
        rng = random.Random(11)
        for _ in range(10):
            radii = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            base = dehn_rhs(7)
            reference = iterated_spin(radii, base).homology
            shuffled = radii[:]
            rng.shuffle(shuffled)
            assert iterated_spin(shuffled, base).homology == reference

    def test_distributes_over_connected_sum(self):
        rng = random.Random(13)
        for seed in range(10):
            (expr_a, a), = corpus(100 + seed, 1, 2)
            if a.dim < 3:
                continue
            b = sphere(a.dim) if a.dim % 2 == 0 else lens(3, a.dim)
            r = rng.randint(1, 3)
            lhs = spin(r, connected_sum(a, b))
            rhs = connected_sum(spin(r, a), spin(r, b))
            assert lhs.homology == rhs.homology


class TestPipelines:
    def test_main_small_cases(self):
        assert pipeline_main(1, 7).homology == GradedGroup.from_dict(
            {0: Z, 1: cyclic(14), 3: cyclic(14), 5: cyclic(14), 7: Z}, 7
        )
        assert pipeline_main(0, 3).homology == GradedGroup.from_dict({0: Z, 1: cyclic(6), 3: Z}, 3)
        m2 = pipeline_main(2, 11)
        assert m2.dim == 11
        assert {d for d, g in m2.homology.entries if g == cyclic(22)} == {1, 5, 9}

    def test_main2_small_cases(self):
        assert pipeline_main2(1, 7).homology == GradedGroup.from_dict(
            {0: Z, 3: cyclic(14), 7: Z}, 7
        )
        assert pipeline_main2(0, 3).homology.group(1) == cyclic(6)
        m2 = pipeline_main2(2, 3)
        assert m2.dim == 11
        assert dict(m2.homology.entries) == {0: Z, 5: cyclic(6), 11: Z}

    def test_pi1_is_the_hyperbolic_generator(self):
        m = pipeline_main(2, 7)
        assert isinstance(m.pi1, HyperbolicThreeManifoldGroup)

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            pipeline_main(1, 5)
        with pytest.raises(ValueError):
            pipeline_main2(1, 9)
