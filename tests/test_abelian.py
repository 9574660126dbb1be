import json
import pickle
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from spincalc import abelian, construct
from spincalc.abelian import AbGroup, TRIVIAL, Z, cyclic, free, normalize
from spincalc.construct import bundle, connected_sum, lens, product, sphere
from spincalc.dsl import evaluate_text
from spincalc.graded import GradedGroup

from helpers import exchange_invariant_factors, same_finite_group

orders_lists = st.lists(st.integers(min_value=1, max_value=60), max_size=5)
# 5040 = 2^4 * 3^2 * 5 * 7: its divisors mix prime powers and shared primes
divisors_of_5040 = [d for d in range(1, 5041) if 5040 % d == 0]
orders_of_5040 = st.lists(st.sampled_from(divisors_of_5040), max_size=200)
# up to 200 orders mixing divisors of 5040 and integers up to 10^12, with
# a third of them repeated
mixed_orders = st.lists(
    st.one_of(st.sampled_from(divisors_of_5040), st.integers(min_value=1, max_value=10**12)),
    max_size=150,
).map(lambda orders: orders + orders[::3])
small_groups = st.builds(
    lambda orders, rank: normalize(orders, rank),
    st.lists(st.integers(min_value=1, max_value=40), max_size=4),
    st.integers(min_value=0, max_value=3),
)


class TestNormalize:
    def test_prime_power_redistribution(self):
        # oracle: Z_4 + Z_6 and Z_2 + Z_12 have the same d-torsion counts
        assert same_finite_group([4, 6], [2, 12])
        assert normalize([4, 6]) == AbGroup(0, (2, 12))

    def test_unit_orders_are_dropped(self):
        assert normalize([1, 1], 3) == AbGroup(3, ())
        # also where the other orders already form a chain, which is taken as it is
        assert normalize([1] * 17 + [9, 3] * 10) == AbGroup(0, (3,) * 10 + (9,) * 10)

    def test_squarefree_composite_is_already_invariant(self):
        assert normalize([14]) == AbGroup(0, (14,))

    def test_rejects_nonpositive_orders(self):
        with pytest.raises(ValueError):
            normalize([0])
        # the first bad order in input order is named, not the smallest
        with pytest.raises(ValueError, match=r"^cyclic order must be positive, got 0$"):
            normalize([0, -3])
        with pytest.raises(ValueError):
            normalize([6, -2])
        with pytest.raises(ValueError):
            normalize([2], rank=-1)

    @settings(deadline=None)
    @given(st.one_of(orders_lists, orders_of_5040))
    def test_preserves_isomorphism_class(self, orders):
        g = normalize(orders)
        assert same_finite_group([n for n in orders if n > 1] or [1], list(g.factors) or [1])

    # same_finite_group enumerates the divisors of the exponent, which is
    # out of reach once integers near 10^12 are mixed in
    @settings(deadline=None)
    @given(mixed_orders)
    def test_agrees_with_the_pairwise_exchange(self, orders):
        assert normalize(orders).factors == exchange_invariant_factors(orders)

    @settings(deadline=None)
    @given(st.one_of(orders_of_5040, mixed_orders), st.randoms(use_true_random=False))
    def test_order_of_summands_is_irrelevant(self, orders, rnd):
        shuffled = list(orders)
        rnd.shuffle(shuffled)
        assert normalize(shuffled) == normalize(orders)

    def test_gcd_count_is_linear_on_a_shuffled_divisibility_chain(self, monkeypatch):
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return gcd(a, b)

        monkeypatch.setattr(abelian, "gcd", counted)
        orders = [5, 10] * 1000
        random.Random(1).shuffle(orders)
        assert normalize(orders).factors == (5,) * 1000 + (10,) * 1000
        assert calls <= 2000

    def test_large_primes_need_no_factorization(self):
        p, q = 100000000003, 100000000019
        assert normalize([2 * p, 2 * q, 4 * p]) == AbGroup(0, (2, 2 * p, 4 * p * q))

    def test_dehn_filling_on_a_19_digit_prime(self):
        m = evaluate_text("N(1000000000000000003)")
        assert m.homology.group(1) == cyclic(2000000000000000006)

    @given(small_groups)
    def test_idempotent(self, g):
        assert normalize(list(g.factors), g.rank) == g

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=30))
    def test_crt_for_coprime_orders(self, m, n):
        from math import gcd

        if gcd(m, n) == 1:
            assert normalize([m, n]) == normalize([m * n])


class TestConstructor:
    def test_rejects_broken_divisibility_chain(self):
        with pytest.raises(ValueError):
            AbGroup(0, (4, 6))
        with pytest.raises(ValueError, match=r"chain: 4 does not divide 6$"):
            AbGroup(0, (2, 4, 6, 12, 5))

    def test_rejects_factor_below_two(self):
        with pytest.raises(ValueError):
            AbGroup(0, (1, 2))
        # named before a broken chain
        with pytest.raises(ValueError, match=r"^invariant factor 1 < 2$"):
            AbGroup(0, (4, 6, 1, 0))

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            AbGroup(-1, ())


class TestDirectSum:
    def test_two_copies_of_z2p(self):
        g = cyclic(14).direct_sum(cyclic(14))
        assert g == AbGroup(0, (14, 14))

    def test_trivial_is_unit(self):
        g = normalize([4, 6], 2)
        assert g.direct_sum(TRIVIAL) == g
        assert TRIVIAL.direct_sum(g) == g

    def test_renormalizes(self):
        assert cyclic(4).direct_sum(cyclic(6)) == AbGroup(0, (2, 12))

    @given(small_groups, small_groups)
    def test_commutative(self, a, b):
        assert a.direct_sum(b) == b.direct_sum(a)

    @given(small_groups, small_groups, small_groups)
    def test_associative(self, a, b, c):
        assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))

    @given(small_groups, small_groups)
    def test_order_multiplies_for_finite_groups(self, a, b):
        if a.rank == 0 and b.rank == 0:
            assert prod(a.direct_sum(b).factors) == prod(a.factors) * prod(b.factors)


def kunneth_of(a: AbGroup, b: AbGroup) -> tuple[AbGroup, AbGroup]:
    """a (x) b and Tor(a, b): degrees 0 and 1 of the Kunneth formula for a and b, each in degree 0."""
    def alone(g: AbGroup) -> GradedGroup:
        return GradedGroup(0, () if g.is_trivial else ((0, 1, 1, g),))

    h = construct._kunneth(alone(a), alone(b), 1)
    return h.group(0), h.group(1)


def tensor(a: AbGroup, b: AbGroup) -> AbGroup:
    return kunneth_of(a, b)[0]


def tor(a: AbGroup, b: AbGroup) -> AbGroup:
    return kunneth_of(a, b)[1]


class TestTensorAndTor:
    """The tensor and Tor terms of ``construct._kunneth``, as ``construct.product`` applies them."""

    def test_z_is_tensor_unit(self):
        assert tensor(Z, cyclic(14)) == cyclic(14)

    def test_tensor_gcd(self):
        assert tensor(cyclic(4), cyclic(6)) == cyclic(2)
        assert tensor(cyclic(14), cyclic(14)) == cyclic(14)

    def test_tor_of_free_is_trivial(self):
        assert tor(free(3), cyclic(14)) == TRIVIAL

    def test_tor_gcd(self):
        assert tor(cyclic(14), cyclic(14)) == cyclic(14)
        assert tor(cyclic(4), cyclic(6)) == cyclic(2)

    @given(small_groups, small_groups)
    def test_symmetric(self, a, b):
        assert tensor(a, b) == tensor(b, a)
        assert tor(a, b) == tor(b, a)


class TestCanonicalGroups:
    """One group object per value while the group table holds it."""

    def test_equal_groups_reached_in_different_ways_are_one_object(self, empty_rules):
        g = normalize([4, 6])
        assert normalize([6, 4]) is normalize([12, 2]) is normalize([1, 2, 12, 1]) is g
        assert cyclic(6) is normalize([2, 3]) is normalize([6], 2).torsion()
        assert cyclic(0) is free(1) is normalize([], 1) is cyclic(1).with_rank(1)
        assert free(2).direct_sum(cyclic(6)) is normalize([3, 2], 2) is cyclic(6).with_rank(2)

    def test_groups_of_the_constructions_are_the_tables(self, empty_rules):
        l3 = lens(3, 3)
        # a Kunneth degree, a degree added by a connected sum, and cohomology degrees
        assert product(l3, l3).homology.group(3) is normalize([3], 2)
        assert connected_sum(l3, l3).homology.group(1) is normalize([3, 3])
        assert l3.cohomology().group(2) is cyclic(3)
        cohomology = product(sphere(2), l3).cohomology()  # H_1 = Z_3, H_2 = Z, H_3 = Z + Z_3
        assert cohomology.group(2) is normalize([3], 1) and cohomology.group(4) is cyclic(3)
        assert bundle(1, 7).homology.group(3) is cyclic(14)

    def test_a_group_built_after_the_table_is_emptied_is_the_same_value(self, empty_rules):
        before = normalize([4, 6], 2)
        text = str(before)
        abelian._groups.clear()
        after = normalize([6, 4], 2)
        assert after is not before
        assert after == before and hash(after) == hash(before)
        assert str(after) == text == "Z^2 + Z_2 + Z_12"

    def test_the_cached_text_is_not_a_field(self):
        g = normalize([4, 6], 2)
        str(g)
        fresh = AbGroup(2, (2, 12))
        assert g == fresh and hash(g) == hash(fresh) == hash((2, (2, 12)))
        assert repr(g) == repr(fresh) == "AbGroup(rank=2, factors=(2, 12))"
        assert pickle.loads(pickle.dumps(g)) == g

    def test_a_product_of_coprime_sums_keeps_keys_no_larger_than_its_groups(self, empty_rules):
        # H_1 = Z_3^64 and Z_5^64: degree 2 of the product gets 64 * 64 raw
        # Kunneth orders, all gcds of 1, and its normal form is trivial
        x, y = lens(3, 3), lens(5, 3)
        for _ in range(6):
            x, y = connected_sum(x, x), connected_sum(y, y)
        h = product(x, y).homology
        assert h.group(1) == normalize([15] * 64) and h.group(2) == TRIVIAL
        assert all(key == (g.rank, *g.factors) for key, g in abelian._groups.items())
        assert sum(map(len, abelian._groups)) <= sum(1 + len(g.factors) for g in abelian._groups.values())

    def test_a_rejected_input_is_not_kept(self, empty_rules):
        for orders, rank in [([6, 0], 0), ([2], -1)]:
            for _ in range(2):
                with pytest.raises(ValueError):
                    normalize(orders, rank)
        assert abelian._groups == {}


class TestQueries:
    def test_cyclic_of_order(self):
        assert cyclic(14).is_cyclic_of_order() == 14
        assert cyclic(14).direct_sum(cyclic(14)).is_cyclic_of_order() is None
        assert Z.is_cyclic_of_order() is None
        assert TRIVIAL.is_cyclic_of_order() is None

    def test_torsion_and_order(self):
        g = normalize([6], 2)
        assert g.torsion() == cyclic(6)
        assert g.rank > 0
        assert prod(cyclic(6).factors) == 6
        assert prod(TRIVIAL.factors) == 1


class TestRendering:
    @pytest.mark.parametrize(
        "g,text",
        [
            (TRIVIAL, "0"),
            (Z, "Z"),
            (normalize([2, 12], 2), "Z^2 + Z_2 + Z_12"),
            (normalize([14, 14]), "Z_14^2"),
        ],
    )
    def test_str(self, g, text):
        assert str(g) == text

    @given(small_groups)
    def test_json_round_trip(self, g):
        data = json.loads(json.dumps(g.to_json()))
        assert AbGroup(data["rank"], tuple(data["factors"])) == g
