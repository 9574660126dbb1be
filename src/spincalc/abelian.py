"""Exact arithmetic on finitely generated abelian groups.

A group is kept in invariant-factor normal form: a free rank together
with a chain of torsion orders d_1 | d_2 | ... | d_k, each d_i >= 2.
The normal form is canonical, so two groups are isomorphic exactly when
their ``AbGroup`` values compare equal.

>>> normalize([4, 6])
AbGroup(rank=0, factors=(2, 12))
>>> print(normalize([4, 6]).direct_sum(free(1)))
Z + Z_2 + Z_12
>>> cyclic(14).tensor(cyclic(14))
AbGroup(rank=0, factors=(14,))

Integers are Python ints throughout, so there is no overflow bound;
factor magnitudes are limited only by memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group in invariant-factor normal form.

    The constructor rejects anything that is not already in normal form;
    use :func:`normalize` to build a group from arbitrary cyclic orders.
    """

    rank: int
    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        for f in self.factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain: {a} does not divide {b}"
                )

    # -- structural queries -------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.factors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        if self.rank > 0:
            return None
        return prod(self.factors)

    def torsion(self) -> "AbGroup":
        """The torsion subgroup (rank dropped)."""
        return AbGroup(0, self.factors)

    def is_cyclic_of_order(self) -> int | None:
        """Return q when the group is Z_q for a single q >= 2, else None.

        The trivial group and anything with free rank return None.
        """
        if self.rank == 0 and len(self.factors) == 1:
            return self.factors[0]
        return None

    # -- arithmetic ---------------------------------------------------------

    def direct_sum(self, other: "AbGroup") -> "AbGroup":
        return normalize(list(self.factors) + list(other.factors), self.rank + other.rank)

    def tensor(self, other: "AbGroup") -> "AbGroup":
        """Tensor product over Z, expanded bilinearly over the summands.

        Z tensor G = G and Z_m tensor Z_n = Z_gcd(m, n).
        """
        orders = (
            list(other.factors) * self.rank
            + list(self.factors) * other.rank
            + [gcd(m, n) for m in self.factors for n in other.factors]
        )
        return normalize(orders, self.rank * other.rank)

    def tor(self, other: "AbGroup") -> "AbGroup":
        """Torsion product Tor(-, -): free summands vanish, Tor(Z_m, Z_n) = Z_gcd."""
        return normalize([gcd(m, n) for m in self.factors for n in other.factors])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"rank": self.rank, "factors": list(self.factors)}

    @classmethod
    def from_json(cls, data: dict) -> "AbGroup":
        return cls(int(data["rank"]), tuple(int(f) for f in data["factors"]))

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        i = 0
        while i < len(self.factors):
            f = self.factors[i]
            j = i
            while j < len(self.factors) and self.factors[j] == f:
                j += 1
            parts.append(f"Z_{f}" if j - i == 1 else f"Z_{f}^{j - i}")
            i = j
        return " + ".join(parts)


TRIVIAL = AbGroup(0, ())
Z = AbGroup(1, ())


def free(rank: int) -> AbGroup:
    return AbGroup(rank, ())


def cyclic(n: int) -> AbGroup:
    """Z_n; Z_1 is the trivial group, n = 0 means Z."""
    if n == 0:
        return Z
    return normalize([n])


def normalize(cyclic_orders: list[int] | tuple[int, ...], rank: int = 0) -> AbGroup:
    """Invariant-factor normal form of Z^rank + sum of Z_order summands.

    Z_a + Z_b is isomorphic to Z_gcd(a, b) + Z_lcm(a, b), so no prime
    factorization is needed.  Each order n is pushed through the current
    chain from its smallest factor up, replacing (d, n) by
    (gcd(d, n), lcm(d, n)) at each step; what is left is appended as the
    new largest factor.  The chain stays a divisibility chain throughout,
    with any 1s at its front, and those are dropped at the end.

    >>> normalize([6, 10, 15])
    AbGroup(rank=0, factors=(30, 30))
    """
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    chain: list[int] = []
    for n in cyclic_orders:
        if n <= 0:
            raise ValueError(f"cyclic order must be positive, got {n}")
        for i, d in enumerate(chain):
            g = gcd(d, n)
            chain[i], n = g, d * n // g
        chain.append(n)
    return AbGroup(rank, tuple(d for d in chain if d > 1))
