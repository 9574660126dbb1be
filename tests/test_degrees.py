import pytest
from hypothesis import given, strategies as st

from spincalc.degrees import (
    NONNEGATIVE_UNIT,
    SIGNED_UNIT,
    DegreeSet,
    _integer_nth_root,
    perfect_powers,
)


class TestIntegerRoot:
    @pytest.mark.parametrize(
        "exponent, d, expected",
        [
            (2, 10**400, True),
            (3, 10**400, False),
            (2, 10**400 + 1, False),
            (3, 10**400 + 1, False),
            (3, -(10**300), True),
            (3, -(10**300) + 1, False),
        ],
        ids=["10^400,n=2", "10^400,n=3", "10^400+1,n=2", "10^400+1,n=3", "-10^300,n=3", "-10^300+1,n=3"],
    )
    def test_huge_degrees(self, exponent, d, expected):
        assert perfect_powers(exponent).contains(d) is expected

    @given(st.integers(0, 10**60), st.integers(1, 9))
    def test_floor_root(self, x, n):
        r = _integer_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n


class TestDegreeSetInvariants:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"known_subset": frozenset({0})}, "known_subset must contain 0 and 1"),
            (
                {"known_subset": frozenset({-1, 0, 1}), "upper_bound": NONNEGATIVE_UNIT},
                "known degree -1 outside upper bound",
            ),
            ({"exact": True}, "an exact degree set needs a concrete bound"),
        ],
        ids=["missing-1", "outside-bound", "exact-unknown"],
    )
    def test_init_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DegreeSet(**kwargs)

    def test_defaults_and_an_exact_set_are_accepted(self):
        assert DegreeSet().known_subset == frozenset({0, 1})
        assert DegreeSet(frozenset({-1, 0, 1}), SIGNED_UNIT, exact=True).contains_minus_one()
