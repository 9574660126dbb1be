import random
import re

import pytest

from spincalc import construct
from spincalc.abelian import Z, cyclic, normalize
from spincalc.construct import (
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
    FreeAbelian,
    HyperbolicThreeManifoldGroup,
    Trivial,
)

from helpers import corpus, graded_as_orders, kunneth_orders, same_finite_group


class TestSphere:
    def test_three_sphere(self):
        s = sphere(3)
        assert dict(s.homology.entries) == {0: Z, 3: Z}
        assert s.pi1 == Trivial()
        assert s.connectivity == 2

    def test_circle(self):
        s = sphere(1)
        assert dict(s.homology.entries) == {0: Z, 1: Z}
        assert s.pi1 == FreeAbelian(1)

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
    def test_one_tensor_and_one_tor_per_pair_of_nonzero_entries(self, monkeypatch, make, n):
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

    def test_euler_characteristic_multiplies(self):
        rng = random.Random(7)
        for _ in range(25):
            (_, a), = corpus(rng.randint(0, 10**6), 1, 3)
            (_, b), = corpus(rng.randint(0, 10**6), 1, 3)
            chi = product(a, b).homology.euler_characteristic()
            assert chi == a.homology.euler_characteristic() * b.homology.euler_characteristic()


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
