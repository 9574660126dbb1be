"""Graded abelian groups and the homological toolkit built on them.

A ``GradedGroup`` maps degrees to AbGroups below a declared top degree
(the ambient dimension when it houses the homology of a closed
manifold).  It is stored as runs ``(first, step, count, group)``: the
group sits at the degrees first, first + step, ..., first + (count - 1)
* step, with step 1 or 2.  The runs are canonical, so equality compares
them: they are sorted, their ranges are disjoint and no group is
trivial.  A group of at most ``_DICT_DEGREES`` nonzero degrees keeps one
run per degree, as cheap to walk as a list of degrees.  A larger one
makes each run as long as a walk up the nonzero degrees makes it: that
walk starts a run at a degree; the next nonzero degree joins it if it
carries the same group and lies 1 or 2 above, which fixes the step, and
every later degree joins while it keeps that step and group; a run of
one degree has step 1.  So ``CP(n)`` with n >= 64 is one run and
``L(p, n)`` with n >= 127 three, and the constructor, the duality check,
both universal coefficient conversions and the Euler characteristic of
such a group work once per run, not once per degree.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Sequence

from ._value import Value, set_field
from .abelian import AbGroup, TRIVIAL, Z, free

Run = tuple[int, int, int, AbGroup]

# A group with at most this many nonzero degrees keeps one run per degree
# and indexes them in a dict, so ``group`` is one dict lookup; so does a
# larger one whose runs all have one degree.  Any other bisects its runs.
# Joining the runs of small groups too costs the corpus benchmark 3 % of
# its throughput.  16 raises the high-dimensional benchmark's throughput
# but also its tail latency, and slows the corpus; 256 slows the first two
# (CHANGES.md).
_DICT_DEGREES = 64


class _RunIndex:
    """``get(degree, default)`` by bisecting the runs, for a group too long to list."""

    __slots__ = ("firsts", "runs")

    def __init__(self, runs: tuple[Run, ...]) -> None:
        self.firsts = [r[0] for r in runs]
        self.runs = runs

    def get(self, degree: int, default: AbGroup) -> AbGroup:
        k = bisect_right(self.firsts, degree) - 1
        if k >= 0:
            f, s, c, g = self.runs[k]
            q, r = divmod(degree - f, s)
            if not r and q < c:
                return g
        return default


class GradedGroup(Value):
    __match_args__ = ("top_degree", "runs")
    # not a field, so equality, hashing and repr leave it out:
    # _by_degree: ``get(degree, default)`` over the groups, a dict of every
    # degree or a _RunIndex, for ``group``
    __slots__ = (*__match_args__, "_by_degree")

    def __init__(self, top_degree: int, runs: Sequence[Run] = ()) -> None:
        """Sorted runs with disjoint ranges, in any split, put in canonical form here.

        Any other input raises ValueError, as :func:`_reject` orders the errors.
        """
        if top_degree < 0:
            raise ValueError("top_degree must be nonnegative")
        # every degree while there are few; those of long runs are left out
        by_degree: dict[int, AbGroup] = {}
        unlisted = 0
        plain = True  # whether every run is (degree, 1, 1, group)
        end = -1
        for f, s, c, g in runs:
            if f <= end or not (g.rank or g.factors):
                _reject(top_degree, runs)
            if c == 1:
                by_degree[f] = g
                end = f
                if s != 1:
                    if s != 2:
                        _reject(top_degree, runs)
                    plain = False
                continue
            if c < 1 or s != 1 and s != 2:
                _reject(top_degree, runs)
            plain = False
            end = f + s * (c - 1)
            if len(by_degree) + c <= _DICT_DEGREES:
                for d in range(f, end + 1, s):
                    by_degree[d] = g
            else:
                unlisted += c
        if end > top_degree:
            _reject(top_degree, runs)
        set_field(self, "top_degree", top_degree)
        if not unlisted and len(by_degree) <= _DICT_DEGREES:
            # few degrees: one run for each
            if not plain:
                runs = [(d, 1, 1, g) for d, g in by_degree.items()]
            set_field(self, "runs", tuple(runs))
            set_field(self, "_by_degree", by_degree)
            return
        out = _joined(runs)
        set_field(self, "runs", out)
        if unlisted or len(out) != len(by_degree):
            by_degree = _RunIndex(out)
        set_field(self, "_by_degree", by_degree)

    @classmethod
    def from_dict(cls, groups: dict[int, AbGroup], top_degree: int) -> "GradedGroup":
        runs = [(d, 1, 1, g) for d, g in sorted(groups.items()) if not g.is_trivial]
        return cls(top_degree, runs)

    @classmethod
    def from_sum(
        cls, top_degree: int, first: Sequence[Run], second: Sequence[Run]
    ) -> "GradedGroup":
        """Two sequences of sorted runs, added where their degrees meet."""
        return cls(top_degree, _add(first, second))

    @property
    def entries(self) -> Collection[tuple[int, AbGroup]]:
        """Every nonzero ``(degree, group)``, in ascending degree: as long as the dimension.

        A group listed degree by degree gives a view of its dict, which
        copies nothing.
        """
        if isinstance(self._by_degree, dict):
            return self._by_degree.items()
        return tuple([(d, g) for f, s, c, g in self.runs for d in range(f, f + s * c, s)])

    def group(self, degree: int) -> AbGroup:
        return self._by_degree.get(degree, TRIVIAL)

    # -- toolkit ------------------------------------------------------------

    def euler_characteristic(self) -> int:
        """Alternating sum of free ranks; torsion contributes nothing.

        A run of step 2 keeps one parity; one of step 1 alternates, so only
        an odd count leaves a term.
        """
        return sum([
            (-g.rank if f & 1 else g.rank) * (c if s == 2 else c & 1)
            for f, s, c, g in self.runs
            if g.rank
        ])

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        """Degreewise direct sum up to the larger top; shared degrees are combined."""
        top = max(self.top_degree, other.top_degree)
        return GradedGroup.from_sum(top, self.runs, other.runs)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "top": self.top_degree,
            "groups": {str(d): g.to_json() for d, g in self.entries},
        }

    def __str__(self) -> str:
        """Case-display rendering, grouping degrees by their group.

        Runs are sorted, so groups enter the dict in the order of their
        first degree, and adjacent runs of one group object cost one dict
        lookup.  A run of several degrees adds them at once.
        """
        if not self.runs:
            return "0 for all i"
        by_group: dict[AbGroup, list[int]] = {}
        last, degs = None, []
        for f, s, c, g in self.runs:
            if g is not last:
                last, degs = g, by_group.setdefault(g, [])
            if c == 1:
                degs.append(f)
            else:
                degs.extend(range(f, f + s * c, s))
        # a list of ints prints as its degrees joined by ", ", inside brackets,
        # and formats them faster than a join over map(str, ...)
        lines = [f"{g}, for i = {str(degs)[1:-1]}" for g, degs in by_group.items()]
        lines.append("0, otherwise")
        return "\n".join(lines)


def _joined(runs: Sequence[Run]) -> tuple[Run, ...]:
    """Valid runs joined where the walk up the degrees joins them."""
    out: list[Run] = []
    ls = lc = 0
    lg, end = TRIVIAL, -1
    for run in runs:
        f, s, c, g = run
        gap = f - end
        end = f + s * (c - 1)
        if (gap == ls or gap == 2 and lc == 1) and (
            g is lg or g.rank == lg.rank and g.factors == lg.factors
        ):
            if c == 1 or s == gap:
                lc += c
                out[-1] = (out[-1][0], gap, lc, lg)
                ls = gap
                continue
            # only this run's first degree keeps the step
            out[-1] = (out[-1][0], gap, lc + 1, lg)
            f, c = f + s, c - 1
            run = (f, s if c > 1 else 1, c, g)
        elif c == 1 and s != 1:
            run = (f, 1, 1, g)
        ls, lc, lg = run[1], c, g
        out.append(run)
    return tuple(out)


def _reject(top_degree: int, runs: Sequence[Run]) -> None:
    """Raise the error of runs that ``GradedGroup`` cannot take.

    Each run in order: a step other than 1 or 2 or a count below 1, a
    degree outside [0, top_degree], a degree an earlier run holds, a
    trivial group.  A run that starts inside or below an earlier one
    without sharing a degree is reported only after all of those.
    """
    for k, run in enumerate(runs):
        f, s, c, g = run
        if s not in (1, 2) or c < 1:
            raise ValueError(f"run {run} needs step 1 or 2 and count >= 1")
        last = f + s * (c - 1)
        if f < 0 or last > top_degree:
            bad = f if f < 0 or f > top_degree else f + s * ((top_degree - f) // s + 1)
            raise ValueError(f"degree {bad} outside [0, {top_degree}]")
        shared = [d for other in runs[:k] if (d := _first_shared(other, run)) is not None]
        if shared:
            raise ValueError(f"duplicate degree {min(shared)}")
        if g.is_trivial:
            raise ValueError(f"trivial group stored at degree {f}")
    raise ValueError("entries must be sorted by degree")


def _first_shared(a: Run, b: Run) -> int | None:
    """The lowest degree that two runs both hold, or None."""
    (fa, sa, ca, _), (fb, sb, cb, _) = a, b
    d = max(fa, fb)
    if (d - fa) % sa or (d - fb) % sb:
        # steps are 1 or 2: the next degree is on both runs, or no degree is
        d += 1
    if (d - fa) % sa or (d - fb) % sb or d > min(fa + sa * (ca - 1), fb + sb * (cb - 1)):
        return None
    return d


def drop_lowest(runs: Sequence[Run]) -> Sequence[Run]:
    """Sorted runs without their lowest degree."""
    f, s, c, g = runs[0]
    return runs[1:] if c == 1 else ((f + s, s, c - 1, g), *runs[1:])


def drop_highest(runs: Sequence[Run]) -> Sequence[Run]:
    """Sorted runs without their highest degree."""
    f, s, c, g = runs[-1]
    return runs[:-1] if c == 1 else (*runs[:-1], (f, s, c - 1, g))


def _restrict(runs: Sequence[Run], low: int, high: int) -> list[Run]:
    """The degrees of sorted runs from low to high.

    Only the runs at either end are cut or dropped; the rest are kept whole.
    """
    out = list(runs)
    while out and out[0][0] < low:
        f, s, c, g = out[0]
        k = (low - f + s - 1) // s  # its degrees below low
        if k < c:
            out[0] = (f + s * k, s, c - k, g)
            break
        del out[0]
    while out:
        f, s, c, g = out[-1]
        if f + s * (c - 1) <= high:
            break
        k = (high - f) // s + 1  # its degrees up to high
        if k > 0:
            out[-1] = (f, s, k, g)
            break
        out.pop()
    return out


def _add(first: Sequence[Run], second: Sequence[Run]) -> list[Run]:
    """The degreewise sum of two sequences of sorted runs, as sorted runs.

    One merge.  A run that meets no run of the other side is kept whole;
    from where two runs meet, their common degrees are summed a run at a
    time when their steps agree, and a degree at a time when they do not.
    Two runs of one group with step 2 that interleave make one run of
    step 1, so a spin of ``CP(n)`` by an odd radius costs no more than by
    an even one.  ``x`` and ``y`` are the runs at the head of each side,
    unpacked as (f1, s1, c1, g1) and (f2, s2, c2, g2).
    """
    out: list[Run] = []
    append = out.append
    ia, ib = iter(first), iter(second)
    x, y = next(ia, None), next(ib, None)
    if x is not None and y is not None:
        f1, s1, c1, g1 = x
        f2, s2, c2, g2 = y
        while True:
            if f1 + s1 * (c1 - 1) < f2:
                append(x)
                x = next(ia, None)
                if x is None:
                    break
                f1, s1, c1, g1 = x
            elif f2 + s2 * (c2 - 1) < f1:
                append(y)
                y = next(ib, None)
                if y is None:
                    break
                f2, s2, c2, g2 = y
            elif f1 == f2:
                if c1 == 1 == c2:
                    # one degree each, as in every group of few degrees
                    append((f1, 1, 1, g1.direct_sum(g2)))
                    x, y = next(ia, None), next(ib, None)
                    if x is None or y is None:
                        break
                    f1, s1, c1, g1 = x
                    f2, s2, c2, g2 = y
                    continue
                k = 1 if s1 != s2 else c1 if c1 < c2 else c2
                append((f1, s1, k, g1.direct_sum(g2)))
                if c1 > k:
                    f1, c1 = f1 + s1 * k, c1 - k
                    x = (f1, s1, c1, g1)
                elif (x := next(ia, None)) is not None:
                    f1, s1, c1, g1 = x
                if c2 > k:
                    f2, c2 = f2 + s2 * k, c2 - k
                    y = (f2, s2, c2, g2)
                elif (y := next(ib, None)) is not None:
                    f2, s2, c2, g2 = y
                if x is None or y is None:
                    break
            else:
                if f2 < f1:
                    x, f1, s1, c1, g1, ia, y, f2, s2, c2, g2, ib = (
                        y, f2, s2, c2, g2, ib, x, f1, s1, c1, g1, ia
                    )
                # x starts below y and reaches it
                if s1 == 2 == s2 and (f2 - f1) & 1 and g1 == g2:
                    # x's degrees from f2 - 1 alternate with y's; the joined
                    # run stops at the last degree of the one that ends first,
                    # as the next run of that side may start right after it
                    k = (f2 - 1 - f1) // 2
                    if k:
                        append((f1, 2, k, g1))
                    if c1 - k <= c2:
                        m = c1 - k
                        append((f2 - 1, 1, 2 * m - 1, g1))
                        f2, c2 = f2 + 2 * m - 2, c2 - m + 1
                        y = (f2, 2, c2, g2)
                        x = next(ia, None)
                        if x is None:
                            break
                        f1, s1, c1, g1 = x
                    else:
                        m = c2
                        append((f2 - 1, 1, 2 * m, g1))
                        f1, c1 = f2 - 1 + 2 * m, c1 - k - m
                        x = (f1, 2, c1, g1)
                        y = next(ib, None)
                        if y is None:
                            break
                        f2, s2, c2, g2 = y
                else:
                    k = (f2 - f1 + s1 - 1) // s1
                    append((f1, s1, k, g1))
                    f1, c1 = f1 + s1 * k, c1 - k
                    x = (f1, s1, c1, g1)
    if x is not None:
        append(x)
        out.extend(ia)
    if y is not None:
        append(y)
        out.extend(ib)
    return out


def _first_difference(a: Sequence[Run], b: Sequence[Run]) -> int | None:
    """The lowest degree where two sequences of sorted runs differ, or None."""
    ia, ib = iter(a), iter(b)
    x, y = next(ia, None), next(ib, None)
    while x is not None and y is not None:
        if x == y:
            x, y = next(ia, None), next(ib, None)
            continue
        f1, s1, c1, g1 = x
        f2, s2, c2, g2 = y
        if f1 != f2 or g1 != g2:
            return min(f1, f2)
        k = min(c1, c2) if s1 == s2 else 1
        x = (f1 + s1 * k, s1, c1 - k, g1) if c1 > k else next(ia, None)
        y = (f2 + s2 * k, s2, c2 - k, g2) if c2 > k else next(ib, None)
    rest = x if x is not None else y
    return None if rest is None else rest[0]


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

    Both relations together say H_i = H^{n-i}, the cohomology of the
    universal coefficient theorem, for every i.  So the check mirrors
    the runs of that cohomology and compares them with the runs of h, a
    run at a time; the first degree where they differ is the first
    failing degree a walk over 0..n finds.

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
    by_degree = h._by_degree
    if isinstance(by_degree, dict):
        # a group listed degree by degree: two lookups per degree accept it;
        # without this walk and _uct's, the corpus benchmark ran 8 % slower
        get = by_degree.get
        for d, g in by_degree.items():
            if g.rank != get(n - d, TRIVIAL).rank or g.factors != get(n - d - 1, TRIVIAL).factors:
                break
        else:
            return _PASSING
    mirrored = [(n - f - s * (c - 1), s, c, g) for f, s, c, g in reversed(_uct(h, n, 1))]
    i = _first_difference(h.runs, mirrored)
    if i is None:
        return _PASSING
    # H_0 = H_n = Z, so i < n and H_{n-i-1} exists
    g, dual = h.group(i), h.group(n - i)
    if g.rank != dual.rank:
        return DualityReport(
            False, i, f"free rank of H_{i} is {g.rank} but H_{n - i} has {dual.rank}"
        )
    j = n - i - 1
    return DualityReport(
        False, i, f"torsion of H_{i} is {g.torsion()} but H_{j} has {h.group(j).torsion()}"
    )


def _uct(h: GradedGroup, n: int, shift: int) -> list[Run]:
    """Runs of degree i -> Z^rank(h_i) + Tor(h_{i-shift}), for 0 <= i <= n and shift = +-1.

    A group with one part alone at a degree is the operand's own object,
    and a free rank added to torsion is already in invariant-factor form,
    so nothing is normalized.  A group of one run per degree is walked in
    the direction of the shift: each degree's free part lands in order and
    its torsion lands next, where only the free part of the degree that
    follows can meet it, which the corpus benchmark measures faster than
    the merge.  Longer runs give two sequences of runs, the free parts and
    the shifted torsion parts, added by one merge.
    """
    by_degree = h._by_degree
    if isinstance(by_degree, dict):
        out: list[Run] = []
        for d, e in by_degree.items() if shift > 0 else reversed(by_degree.items()):
            if d > n:
                continue
            if e.rank:
                if out and out[-1][0] == d:
                    out[-1] = (d, 1, 1, out[-1][3].with_rank(e.rank))
                else:
                    out.append((d, 1, 1, e if not e.factors else free(e.rank)))
            if e.factors and 0 <= d + shift <= n:
                out.append((d + shift, 1, 1, e if not e.rank else e.torsion()))
        if shift < 0:
            out.reverse()
        return out
    free_part: list[Run] = []
    torsion: list[Run] = []
    for run in h.runs:
        f, s, c, g = run
        if not g.factors:
            free_part.append(run)
        elif g.rank:
            free_part.append((f, s, c, free(g.rank)))
            torsion.append((f + shift, s, c, g.torsion()))
        else:
            torsion.append((f + shift, s, c, g))
    out = _add(free_part, torsion)
    if out and (out[0][0] < 0 or out[-1][0] + out[-1][1] * (out[-1][2] - 1) > n):
        out = _restrict(out, 0, n)
    return out


def cohomology_from_homology(h: GradedGroup, n: int) -> GradedGroup:
    """Integral cohomology via H^i = Z^rank(H_i) + Tor(H_{i-1})."""
    return GradedGroup(n, _uct(h, n, 1))


def homology_from_cohomology(c: GradedGroup, n: int) -> GradedGroup:
    """Inverse conversion: H_i = Z^rank(H^i) + Tor(H^{i+1}).

    Torsion in H^0 or H^1 has no homological preimage (it would need
    torsion below degree 0, or a non-free H_0) and is rejected.
    """
    for i in (0, 1):
        if not c.group(i).torsion().is_trivial:
            raise ValueError(f"cohomology has torsion at degree {i}; no valid homology preimage")
    return GradedGroup(n, _uct(c, n, -1))
