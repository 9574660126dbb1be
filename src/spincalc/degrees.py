"""Sets of self-mapping degrees, represented as bounded partial knowledge.

D(M) always contains 0 (constant map) and 1 (identity).  We track a
finite set of degrees known to be realized, an upper bound on the whole
set, and whether the two coincide exactly.
"""

from __future__ import annotations

from ._value import Value, set_field


def _integer_nth_root(x: int, n: int) -> int:
    """Floor of the nonnegative n-th root, by integer Newton iteration.

    The start 2^ceil(bits/n) lies above the root, and from above the
    iterates decrease strictly until they reach the floor.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x < 2:
        return x
    if x.bit_length() <= n:
        # 2 <= x < 2^n: the root lies in [1, 2), and the iteration below
        # would raise its start to the power n - 1
        return 1
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


class UpperBound(Value):
    """One of the closed-form supersets a degree set can be confined to."""

    __slots__ = __match_args__ = ("kind", "exponent")

    def __init__(self, kind: str, exponent: int | None = None) -> None:
        # "all" | "signed_unit" | "nonnegative_unit" | "perfect_powers" | "unknown"
        set_field(self, "kind", kind)
        set_field(self, "exponent", exponent)  # for perfect_powers only

    def contains(self, d: int) -> bool:
        if self.kind in ("all", "unknown"):
            return True
        if self.kind == "signed_unit":
            return d in (-1, 0, 1)
        if self.kind == "nonnegative_unit":
            return d in (0, 1)
        if self.kind == "perfect_powers":
            n = self.exponent
            assert n is not None
            if d == 0:
                return True
            if d < 0:
                return n % 2 == 1 and _integer_nth_root(-d, n) ** n == -d
            return _integer_nth_root(d, n) ** n == d
        raise ValueError(f"unknown upper bound kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "all":
            return "Z (all integers)"
        if self.kind == "signed_unit":
            return "{-1, 0, 1}"
        if self.kind == "nonnegative_unit":
            return "{0, 1}"
        if self.kind == "perfect_powers":
            return f"{{k^{self.exponent} | k in Z}}"
        return "unknown"


ALL_INTEGERS = UpperBound("all")
SIGNED_UNIT = UpperBound("signed_unit")
NONNEGATIVE_UNIT = UpperBound("nonnegative_unit")
UNKNOWN_BOUND = UpperBound("unknown")


def perfect_powers(exponent: int) -> UpperBound:
    return UpperBound("perfect_powers", exponent)


class DegreeSet(Value):
    """Partial knowledge of D(M).

    ``exact`` means D(M) is exactly the set denoted by ``upper_bound``.
    ``known_subset`` is a finite set of degrees proven realizable and
    always contains {0, 1}.
    """

    __slots__ = __match_args__ = ("known_subset", "upper_bound", "exact", "rules")

    def __init__(
        self,
        known_subset: frozenset[int] = frozenset({0, 1}),
        upper_bound: UpperBound = UNKNOWN_BOUND,
        exact: bool = False,
        rules: tuple[str, ...] = (),
    ) -> None:
        set_field(self, "known_subset", known_subset)
        set_field(self, "upper_bound", upper_bound)
        set_field(self, "exact", exact)
        set_field(self, "rules", rules)
        if not {0, 1} <= known_subset:
            raise ValueError("known_subset must contain 0 and 1")
        if upper_bound.kind != "unknown":
            for d in known_subset:
                if not upper_bound.contains(d):
                    raise ValueError(f"known degree {d} outside upper bound")
        if exact and upper_bound.kind == "unknown":
            raise ValueError("an exact degree set needs a concrete bound")

    def contains_minus_one(self) -> bool:
        """True when -1 is proven to be a realized degree."""
        return -1 in self.known_subset or (self.exact and self.upper_bound.contains(-1))

    def to_json(self) -> dict:
        return {
            "known": sorted(self.known_subset),
            "upper_bound": self.upper_bound.describe(),
            "exact": self.exact,
            "rules": list(self.rules),
        }

    def describe(self) -> str:
        if self.exact:
            return self.upper_bound.describe()
        if self.upper_bound.kind == "unknown":
            return f"contains {sorted(self.known_subset)}; no upper bound known"
        return f"contains {sorted(self.known_subset)}; contained in {self.upper_bound.describe()}"


def exact_set(bound: UpperBound, rules: tuple[str, ...] = ()) -> DegreeSet:
    """D(M) known exactly: seed the known subset with small witnesses."""
    known = {d for d in range(-3, 4) if bound.contains(d)} | {0, 1}
    return DegreeSet(frozenset(known), bound, exact=True, rules=rules)
