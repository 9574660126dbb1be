"""Graded abelian groups and the homological toolkit built on them.

A ``GradedGroup`` is a sparse map degree -> AbGroup with a declared top
degree (the ambient dimension when it houses the homology of a closed
manifold).  Trivial entries are pruned so equality is canonical.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value, set_field
from .abelian import AbGroup, TRIVIAL, Z, free


class GradedGroup(Value):
    __match_args__ = ("top_degree", "entries")
    # not a field, so equality, hashing and repr leave it out:
    # _by_degree: degree -> group index over ``entries``, for O(1) lookup in
    # ``group``
    __slots__ = (*__match_args__, "_by_degree")

    def __init__(self, top_degree: int, entries: tuple[tuple[int, AbGroup], ...] = ()) -> None:
        set_field(self, "top_degree", top_degree)
        set_field(self, "entries", entries)
        if top_degree < 0:
            raise ValueError("top_degree must be nonnegative")
        by_degree: dict[int, AbGroup] = {}
        # an entry's range, duplicate and trivial errors come before any
        # order error, so the order is only noted here and raised at the end
        highest, unsorted = -1, False
        for deg, g in entries:
            if deg < 0 or deg > top_degree:
                raise ValueError(f"degree {deg} outside [0, {top_degree}]")
            if deg > highest:
                highest = deg
            elif deg in by_degree:
                raise ValueError(f"duplicate degree {deg}")
            else:
                unsorted = True
            if g.is_trivial:
                raise ValueError(f"trivial group stored at degree {deg}")
            by_degree[deg] = g
        if unsorted:
            raise ValueError("entries must be sorted by degree")
        set_field(self, "_by_degree", by_degree)

    @classmethod
    def from_dict(cls, groups: dict[int, AbGroup], top_degree: int) -> "GradedGroup":
        items = tuple(sorted((d, g) for d, g in groups.items() if not g.is_trivial))
        return cls(top_degree, items)

    @classmethod
    def from_sum(
        cls,
        top_degree: int,
        first: Sequence[tuple[int, AbGroup]],
        second: Sequence[tuple[int, AbGroup]],
    ) -> "GradedGroup":
        """Two sorted sequences of (degree, group) entries, added where their degrees meet.

        One merge of the two: a degree in only one of them keeps its group.
        """
        out: list[tuple[int, AbGroup]] = []
        i, k = 0, len(first)
        for d, g in second:
            while i < k and first[i][0] < d:
                out.append(first[i])
                i += 1
            if i < k and first[i][0] == d:
                g = first[i][1].direct_sum(g)
                i += 1
            out.append((d, g))
        out.extend(first[i:])
        return cls(top_degree, tuple(out))

    def group(self, degree: int) -> AbGroup:
        return self._by_degree.get(degree, TRIVIAL)

    # -- toolkit ------------------------------------------------------------

    def euler_characteristic(self) -> int:
        """Alternating sum of free ranks; torsion contributes nothing."""
        return sum((-1) ** d * g.rank for d, g in self.entries)

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        """Degreewise direct sum up to the larger top; shared degrees are combined."""
        top = max(self.top_degree, other.top_degree)
        return GradedGroup.from_sum(top, self.entries, other.entries)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "top": self.top_degree,
            "groups": {str(d): g.to_json() for d, g in self.entries},
        }

    def __str__(self) -> str:
        """Case-display rendering, grouping degrees by their group."""
        if not self.entries:
            return "0 for all i"
        # entries are sorted, so groups enter the dict in the order of their
        # first degree; a run of one group object costs one dict lookup
        by_group: dict[AbGroup, list[int]] = {}
        last, degs = None, []
        for d, g in self.entries:
            if g is not last:
                last, degs = g, by_group.setdefault(g, [])
            degs.append(d)
        lines = [f"{g}, for i = {', '.join(map(str, degs))}" for g, degs in by_group.items()]
        lines.append("0, otherwise")
        return "\n".join(lines)


class DualityReport(Value):
    __slots__ = __match_args__ = ("ok", "failing_degree", "message")

    def __init__(self, ok: bool, failing_degree: int | None = None, message: str = "") -> None:
        set_field(self, "ok", ok)
        set_field(self, "failing_degree", failing_degree)
        set_field(self, "message", message)

    def __bool__(self) -> bool:
        return self.ok


# every passing check returns this one report
_PASSING = DualityReport(True)


def check_poincare_duality(h: GradedGroup, n: int) -> DualityReport:
    """Duality test for the homology of a closed oriented n-manifold.

    Free ranks must match across i <-> n-i; torsion must match across
    i <-> n-i-1 (the torsion linking convention).  Degree 0 and n must
    both be Z.

    Each nonzero entry d is checked once, against H_{n-d} and H_{n-d-1}.
    Both relations are symmetric, and a degree where H_i, H_{n-i} and
    H_{n-i-1} are all trivial cannot fail, so this covers every degree.
    Only on a mismatch are the degrees d, n-d and n-d-1 scanned in
    ascending order, to report the first failing degree a walk over
    0..n finds.

    >>> from .abelian import cyclic
    >>> check_poincare_duality(GradedGroup.from_dict({0: Z, 1: cyclic(14), 3: Z}, 3), 3)
    DualityReport(ok=True, failing_degree=None, message='')
    >>> report = check_poincare_duality(GradedGroup.from_dict({0: Z, 1: cyclic(3), 4: Z}, 4), 4)
    >>> report.failing_degree, report.message
    (1, 'torsion of H_1 is Z_3 but H_2 has 0')
    """
    if h.top_degree != n:
        return DualityReport(False, None, f"top degree {h.top_degree} != dimension {n}")
    if h.group(0) != Z or h.group(n) != Z:
        return DualityReport(
            False, 0, f"H_0 = {h.group(0)}, H_{n} = {h.group(n)}; both must be Z"
        )
    if all(
        g.rank == h.group(n - d).rank and g.factors == h.group(n - d - 1).factors
        for d, g in h.entries
    ):
        return _PASSING
    degrees = {i for d, _ in h.entries for i in (d, n - d, n - d - 1) if 0 <= i <= n}
    for i in sorted(degrees):
        g, dual = h.group(i), h.group(n - i)
        if g.rank != dual.rank:
            return DualityReport(
                False, i, f"free rank of H_{i} is {g.rank} but H_{n - i} has {dual.rank}"
            )
        j = n - i - 1
        if 0 <= j <= n and g.factors != h.group(j).factors:
            return DualityReport(
                False, i, f"torsion of H_{i} is {g.torsion()} but H_{j} has {h.group(j).torsion()}"
            )
    return _PASSING


def _free_plus_shifted_torsion(g: GradedGroup, n: int, shift: int) -> GradedGroup:
    """Degree i gets Z^rank(g_i) + Tor(g_{i-shift}), for 0 <= i <= n and shift = +-1.

    One pass over the nonzero entries, walked in the direction of the
    shift, so each entry's free part lands in order and its torsion
    lands next: only the free part of the entry that follows can meet
    it.  A group with one part alone at a degree is the operand's own
    object.  A free rank beside the factors of a single torsion group is
    already in invariant-factor form, so nothing is normalized.
    """
    out: list[tuple[int, AbGroup]] = []
    for d, e in g.entries if shift > 0 else reversed(g.entries):
        if d > n:
            continue
        if e.rank:
            if out and out[-1][0] == d:
                out[-1] = (d, out[-1][1].with_rank(e.rank))
            else:
                out.append((d, e if not e.factors else free(e.rank)))
        if e.factors and 0 <= d + shift <= n:
            out.append((d + shift, e if not e.rank else e.torsion()))
    if shift < 0:
        out.reverse()
    return GradedGroup(n, tuple(out))


def cohomology_from_homology(h: GradedGroup, n: int) -> GradedGroup:
    """Integral cohomology via H^i = Z^rank(H_i) + Tor(H_{i-1})."""
    return _free_plus_shifted_torsion(h, n, 1)


def homology_from_cohomology(c: GradedGroup, n: int) -> GradedGroup:
    """Inverse conversion: H_i = Z^rank(H^i) + Tor(H^{i+1}).

    Torsion in H^0 or H^1 has no homological preimage (it would need
    torsion below degree 0, or a non-free H_0) and is rejected.
    """
    for i in (0, 1):
        if not c.group(i).torsion().is_trivial:
            raise ValueError(f"cohomology has torsion at degree {i}; no valid homology preimage")
    return _free_plus_shifted_torsion(c, n, -1)
