"""Exact arithmetic on finitely generated abelian groups.

A group is kept in invariant-factor normal form: a free rank together
with a chain of torsion orders d_1 | d_2 | ... | d_k, each d_i >= 2.
The normal form is canonical, so two groups are isomorphic exactly when
their ``AbGroup`` values compare equal.

The groups are hash-consed, as ``dsl`` does with AST nodes: one table
for the process maps each normal form to one canonical group, which
:func:`normalize`, :func:`free`, :func:`cyclic` and
:meth:`AbGroup.with_rank` return.  So each distinct group is built,
validated and printed once while the table holds it.  Equality still
compares values, so the table may be emptied at any moment;
``construct`` empties it whenever it empties its own rule table, whose
descriptors hold the groups made for them.

>>> normalize([4, 6])
AbGroup(rank=0, factors=(2, 12))
>>> print(normalize([4, 6]).direct_sum(free(1)))
Z + Z_2 + Z_12
>>> rank, tensor, tor = kunneth_terms(cyclic(14), cyclic(14))
>>> normalize(tensor, rank), normalize(tor)
(AbGroup(rank=0, factors=(14,)), AbGroup(rank=0, factors=(14,)))
>>> normalize([6, 4]) is normalize([4, 6]) is normalize([12, 2])
True

Integers are Python ints throughout, so there is no overflow bound;
factor magnitudes are limited only by memory.
"""

from __future__ import annotations

from math import gcd

from ._value import Value, set_field


class AbGroup(Value):
    """A finitely generated abelian group in invariant-factor normal form.

    The constructor rejects anything that is not already in normal form;
    use :func:`normalize` to build a group from arbitrary cyclic orders.
    """

    __match_args__ = ("rank", "factors")
    # not a field, so equality, hashing and repr leave it out: _text, the
    # text ``str`` gives, or None until it is first asked for
    __slots__ = (*__match_args__, "_text")

    def __init__(self, rank: int, factors: tuple[int, ...] = ()) -> None:
        set_field(self, "rank", rank)
        set_field(self, "factors", factors)
        set_field(self, "_text", None)
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        for f in factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain: {a} does not divide {b}"
                )

    # equality and hashing written out: groups are compared and hashed on every op
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is AbGroup:
            return self.rank == other.rank and self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.factors))

    # -- structural queries -------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.factors

    def torsion(self) -> "AbGroup":
        """The torsion subgroup (rank dropped)."""
        return _canonical(0, self.factors)

    def with_rank(self, rank: int) -> "AbGroup":
        """Z^rank plus the torsion subgroup of this group."""
        return _canonical(rank, self.factors)

    def is_cyclic_of_order(self) -> int | None:
        """Return q when the group is Z_q for a single q >= 2, else None.

        The trivial group and anything with free rank return None.
        """
        if self.rank == 0 and len(self.factors) == 1:
            return self.factors[0]
        return None

    # -- arithmetic ---------------------------------------------------------

    def direct_sum(self, other: "AbGroup") -> "AbGroup":
        # a side without torsion leaves the other's factors in normal form
        if not other.factors:
            return self.with_rank(self.rank + other.rank)
        if not self.factors:
            return other.with_rank(self.rank + other.rank)
        return normalize(self.factors + other.factors, self.rank + other.rank)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"rank": self.rank, "factors": list(self.factors)}

    def __str__(self) -> str:
        if self._text is None:
            set_field(self, "_text", self._render())
        return self._text

    def _render(self) -> str:
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


# The group table of the process: ``(rank, *factors)`` maps to the
# canonical group of that rank and those invariant factors.  A key is a
# normal form, never a raw input of ``normalize``, so the table's keys are
# no larger than the groups it holds.
_groups: dict[tuple, AbGroup] = {}


def _canonical(rank: int, factors: tuple[int, ...]) -> AbGroup:
    """The table's group of this rank and these invariant factors, built on a miss."""
    key = (rank, *factors)
    g = _groups.get(key)
    if g is None:
        g = _groups[key] = AbGroup(rank, factors)
    return g


TRIVIAL = _canonical(0, ())
Z = _canonical(1, ())


def free(rank: int) -> AbGroup:
    return _canonical(rank, ())


def cyclic(n: int) -> AbGroup:
    """Z_n; Z_1 is the trivial group, n = 0 means Z."""
    if n == 0:
        return free(1)
    return normalize([n])


def normalize(cyclic_orders: list[int] | tuple[int, ...], rank: int = 0) -> AbGroup:
    """Invariant-factor normal form of Z^rank + sum of Z_order summands.

    Z_a + Z_b is isomorphic to Z_gcd(a, b) + Z_lcm(a, b), so no prime
    factorization is needed.  The orders are inserted in ascending order
    into a divisibility chain d_1 | ... | d_k.  Each insertion walks the
    chain from its largest factor down, replacing (d, n) by
    (lcm(d, n), gcd(d, n)) and carrying the gcd on; it stops as soon as
    the next smaller factor divides the carry, or the carry is 1, and
    puts the carry there.  For each prime this merges the carry's
    exponent into the sorted exponents of the chain.

    An insertion costs one gcd per factor it passes, and sorted input
    mostly stops at once: orders that already form a divisibility chain,
    in any input order, cost no gcd at all.

    >>> normalize([6, 10, 15])
    AbGroup(rank=0, factors=(30, 30))
    >>> normalize([10, 5, 5, 10])
    AbGroup(rank=0, factors=(5, 5, 10, 10))
    """
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    orders = sorted(cyclic_orders)
    if orders and orders[0] <= 0:
        bad = next(n for n in cyclic_orders if n <= 0)
        raise ValueError(f"cyclic order must be positive, got {bad}")
    chain: list[int] = []
    for n in orders:
        i = len(chain)
        while n > 1 and i and n % chain[i - 1]:
            d = chain[i - 1]
            g = gcd(d, n)
            chain[i - 1], n = d // g * n, g
            i -= 1
        if n > 1:
            chain.insert(i, n)
    return _canonical(rank, tuple(chain))


def kunneth_terms(a: AbGroup, b: AbGroup) -> tuple[int, list[int], list[int]]:
    """The Kunneth terms of a pair: (rank, tensor orders, Tor orders).

    With a = Z^r + sum Z_m and b = Z^s + sum Z_n, a (x) b is Z^(rs), plus
    r copies of each Z_n and s copies of each Z_m, plus Z_gcd(m, n) for
    every pair; Tor(a, b) is Z_gcd(m, n) for every pair, since free
    summands have no Tor.  The orders are raw cyclic orders, not yet
    normalized; the pairwise gcds are computed once for both terms, and
    a gcd of 1, a trivial summand, is left out of both.

    >>> kunneth_terms(normalize([4], 1), cyclic(6))
    (0, [6, 2], [2])
    >>> kunneth_terms(cyclic(3), cyclic(5))
    (0, [], [])
    """
    gcds = [g for m in a.factors for n in b.factors if (g := gcd(m, n)) > 1]
    return a.rank * b.rank, list(b.factors) * a.rank + list(a.factors) * b.rank + gcds, gcds
