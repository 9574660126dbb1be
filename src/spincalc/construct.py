"""Generators and combinators of the manifold calculus.

Every operation returns a validated :class:`ManifoldDescriptor`.  The
construction expression is carried along as provenance and is what the
degree-set rules later read.

A descriptor is a pure function of a rule's inputs, so each operation
first looks them up in one rule table for the process and returns the
descriptor found there as it is.  Only on a miss are the arguments
checked, pi_1 and homology worked out and the descriptor made and
validated; a call that fails keeps nothing, so every hit is for inputs
that passed all of those checks.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import ClassVar

from . import abelian
from ._value import Value, set_field
from .abelian import AbGroup, Z, cyclic, free, normalize
from .graded import GradedGroup, drop_highest, drop_lowest, homology_from_cohomology
from .manifold import (
    FiniteCyclic,
    FreeGroup,
    HyperbolicThreeManifoldGroup,
    ManifoldDescriptor,
    SurfaceGroup,
    Trivial,
    direct_product,
    free_product,
    make_descriptor,
)
from .residues import is_prime


# -- construction expressions --------------------------------------------------


class ConstructionExpr(Value):
    """AST node; leaves are generators, internal nodes combinators.

    Each node class names itself in the construction language with
    ``name``; ``str`` prints that name and then the fields in order.  A
    generator lists in ``facts`` what is taken on faith about every
    manifold it names; ``eval`` prints them.
    """

    __slots__ = ()
    name: ClassVar[str]
    facts: ClassVar[tuple[str, ...]] = ()

    def __str__(self) -> str:
        args = ""
        for field in self.__match_args__:
            args += f",{getattr(self, field)}"
        return f"{self.name}({args[1:]})" if args else self.name


class Sphere(ConstructionExpr):
    name = "S"
    facts = ("degree set known: Z (all integers)",)
    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        set_field(self, "n", n)


class CP(ConstructionExpr):
    name = "CP"
    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        set_field(self, "n", n)


class Surface(ConstructionExpr):
    name = "Sigma"
    __slots__ = __match_args__ = ("genus",)

    def __init__(self, genus: int) -> None:
        set_field(self, "genus", genus)


class Lens(ConstructionExpr):
    name = "L"
    __slots__ = __match_args__ = ("p", "dim")

    def __init__(self, p: int, dim: int) -> None:
        set_field(self, "p", p)
        set_field(self, "dim", dim)


class DehnRHS(ConstructionExpr):
    name = "N"
    facts = ("admits a closed real hyperbolic metric", "full isometry group has odd order")
    __slots__ = __match_args__ = ("p",)

    def __init__(self, p: int) -> None:
        set_field(self, "p", p)


class IHS3(ConstructionExpr):
    name = "IHS3"
    facts = ("admits a closed real hyperbolic metric",)
    __slots__ = ()


class Bundle(ConstructionExpr):
    name = "E"
    __slots__ = __match_args__ = ("m", "d")

    def __init__(self, m: int, d: int) -> None:
        set_field(self, "m", m)
        set_field(self, "d", d)


class Spin(ConstructionExpr):
    name = "spin"
    __slots__ = __match_args__ = ("r", "child")

    def __init__(self, r: int, child: ConstructionExpr) -> None:
        set_field(self, "r", r)
        set_field(self, "child", child)


class CSum(ConstructionExpr):
    name = "csum"
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: ConstructionExpr, right: ConstructionExpr) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


class Prod(ConstructionExpr):
    name = "prod"
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: ConstructionExpr, right: ConstructionExpr) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


# -- the rule table ---------------------------------------------------------------

# The descriptor each rule made, keyed by the rule and every input it reads:
# a generator's integers, or a combinator's integers and the ids of its
# operand descriptors.  An entry is (descriptor, *operands): it holds its
# operands, so no id in a live key can be reused.  Only a call that passed
# every check enters its descriptor, so a hit stands for inputs that did.
# ``_size`` counts, for each entry, 1 plus the homology runs of every
# descriptor it holds, which is what its memory grows with; an entry
# that would take the count past RULES_CAP empties the table first, and
# with it the group table of ``abelian``, whose groups were made for the
# descriptors held here.  Emptying either is safe at any moment, as every
# entry holds its own operands and groups compare by value.
RULES_CAP = 100_000
_rules: dict[tuple, tuple] = {}
_size = 0


def _keep(key: tuple, *entry: ManifoldDescriptor) -> ManifoldDescriptor:
    """Enter ``entry``, the descriptor then its operands, under ``key``; return the descriptor."""
    global _size
    size = 1 + sum([len(m.homology.runs) for m in entry])
    if _size + size > RULES_CAP:
        _rules.clear()
        abelian._groups.clear()
        _size = 0
    _rules[key] = entry
    _size += size
    return entry[0]


# -- generators -----------------------------------------------------------------


def sphere(n: int) -> ManifoldDescriptor:
    if hit := _rules.get(("S", n)):
        return hit[0]
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    pi1 = FreeGroup(1) if n == 1 else Trivial()
    homology = GradedGroup(n, ((0, 1, 1, Z), (n, 1, 1, Z)))
    return _keep(("S", n), make_descriptor(Sphere(n), n, homology, pi1))


def cp(n: int) -> ManifoldDescriptor:
    """Complex projective n-space: Z in every even degree up to 2n, one run."""
    if hit := _rules.get(("CP", n)):
        return hit[0]
    if n < 1:
        raise ValueError(f"CP index must be >= 1, got {n}")
    homology = GradedGroup(2 * n, ((0, 2, n + 1, Z),))
    return _keep(("CP", n), make_descriptor(CP(n), 2 * n, homology, Trivial()))


def surface(genus: int) -> ManifoldDescriptor:
    if hit := _rules.get(("Sigma", genus)):
        return hit[0]
    if genus < 2:
        raise ValueError(f"surface genus must be >= 2, got {genus}")
    homology = GradedGroup(2, ((0, 1, 1, Z), (1, 1, 1, free(2 * genus)), (2, 1, 1, Z)))
    return _keep(("Sigma", genus), make_descriptor(Surface(genus), 2, homology, SurfaceGroup(genus)))


def lens(p: int, dim: int) -> ManifoldDescriptor:
    """Lens space S^dim / Z_p: Z_p torsion in every odd degree below the top, three runs."""
    if hit := _rules.get(("L", p, dim)):
        return hit[0]
    if p < 2:
        raise ValueError(f"lens order must be >= 2, got {p}")
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"lens dimension must be odd and >= 3, got {dim}")
    homology = GradedGroup(dim, ((0, 1, 1, Z), (1, 2, (dim - 1) // 2, cyclic(p)), (dim, 1, 1, Z)))
    return _keep(("L", p, dim), make_descriptor(Lens(p, dim), dim, homology, FiniteCyclic(p)))


def dehn_rhs(p: int) -> ManifoldDescriptor:
    """A hyperbolic rational homology 3-sphere with H_1 = Z_2p.

    Existence is axiomatized (surgery on a hyperbolic knot complement);
    ``DehnRHS.facts`` also takes on faith that the isometry group can be
    taken of odd order.  A call that finds ``p`` in the rule table skips the primality test.
    """
    if hit := _rules.get(("N", p)):
        return hit[0]
    if not is_prime(p):
        raise ValueError(f"Dehn-filling parameter must be prime, got {p}")
    homology = GradedGroup(3, ((0, 1, 1, Z), (1, 1, 1, cyclic(2 * p)), (3, 1, 1, Z)))
    return _keep(("N", p), make_descriptor(DehnRHS(p), 3, homology, HyperbolicThreeManifoldGroup()))


def ihs3() -> ManifoldDescriptor:
    """A closed hyperbolic integral homology 3-sphere (axiomatized)."""
    if hit := _rules.get(("IHS3",)):
        return hit[0]
    homology = GradedGroup(3, ((0, 1, 1, Z), (3, 1, 1, Z)))
    return _keep(("IHS3",), make_descriptor(IHS3(), 3, homology, HyperbolicThreeManifoldGroup()))


def bundle(m: int, d: int) -> ManifoldDescriptor:
    """Sphere bundle S^{2m+1} -> E -> S^{2m+2} with Euler number 2d.

    The Gysin sequence leaves a single torsion group Z_{2|d|} in
    cohomology degree 2m+2; dimension is 4m+3.
    """
    if hit := _rules.get(("E", m, d)):
        return hit[0]
    if m < 0:
        raise ValueError(f"bundle index must be >= 0, got {m}")
    if d == 0:
        raise ValueError("Euler multiple must be nonzero (use prod for the trivial bundle)")
    dim = 4 * m + 3
    torsion = cyclic(2 * abs(d))
    cohomology = GradedGroup(dim, ((0, 1, 1, Z), (2 * m + 2, 1, 1, torsion), (dim, 1, 1, Z)))
    pi1: Trivial | FiniteCyclic = Trivial() if m >= 1 else FiniteCyclic(2 * abs(d))
    homology = homology_from_cohomology(cohomology, dim)
    return _keep(("E", m, d), make_descriptor(Bundle(m, d), dim, homology, pi1))


# -- combinators -----------------------------------------------------------------


def spin(r: int, m: ManifoldDescriptor) -> ManifoldDescriptor:
    """The r-spin: boundary of (M minus an open disk) x D^{r+1}.

    Homology is punctured homology plus the r-shifted reduced homology,
    cut from the validated runs, which hold H_0 = H_n = Z at their ends;
    pi_1 is preserved in dimension >= 3.  A surface of genus g follows
    the same homology rule, but its spin is the connected sum of 2g
    copies of S^{r+1} x S^1 (``analysis._sphere_level``), so pi_1 becomes the
    free group of rank 2g.
    """
    if hit := _rules.get(("spin", r, id(m))):
        return hit[0]
    if r < 1:
        raise ValueError(f"spin radius must be >= 1, got {r}")
    if m.dim < 2:
        raise ValueError(f"cannot spin a manifold of dimension {m.dim}")
    pi1 = m.pi1
    if m.dim == 2 and not isinstance(pi1, Trivial):
        pi1 = FreeGroup(2 * _surface_genus(m))
    new_dim = m.dim + r
    runs = m.homology.runs
    shifted = [(f + r, s, c, g) for f, s, c, g in drop_lowest(runs)]
    homology = GradedGroup.from_sum(new_dim, drop_highest(runs), shifted)
    return _keep(("spin", r, id(m)), make_descriptor(Spin(r, m.expr), new_dim, homology, pi1), m)


def _surface_genus(m: ManifoldDescriptor) -> int:
    """Genus of a 2-manifold with nontrivial pi_1: Sigma(g) or the torus."""
    if isinstance(m.expr, Surface):
        return m.expr.genus
    if m.expr == Prod(Sphere(1), Sphere(1)):
        return 1
    raise ValueError(f"spin of a 2-manifold is only defined for surfaces, got {m.expr}")


def connected_sum(a: ManifoldDescriptor, b: ManifoldDescriptor) -> ManifoldDescriptor:
    if hit := _rules.get(("csum", id(a), id(b))):
        return hit[0]
    if a.dim != b.dim:
        raise ValueError(f"connected sum needs equal dimensions, got {a.dim} and {b.dim}")
    if a.dim < 3:
        raise ValueError(f"connected sum needs dimension >= 3, got {a.dim}")
    # H_0 and H_n stay Z; in between the groups add degreewise
    inner = drop_lowest(drop_highest(b.homology.runs))
    homology = GradedGroup.from_sum(a.dim, a.homology.runs, inner)
    m = make_descriptor(CSum(a.expr, b.expr), a.dim, homology, free_product(a.pi1, b.pi1))
    return _keep(("csum", id(a), id(b)), m, a, b)


def product(a: ManifoldDescriptor, b: ManifoldDescriptor) -> ManifoldDescriptor:
    """Cartesian product; homology by the integral Kunneth formula.

    See :func:`_kunneth`, which costs what the operands' torsion and runs
    cost, not their pairs of degrees, and runs only when the rule table
    has no product of these two descriptors.

    >>> print(product(lens(3, 3), lens(3, 3)).homology)
    Z, for i = 0, 6
    Z_3^2, for i = 1, 4
    Z_3, for i = 2
    Z^2 + Z_3, for i = 3
    0, otherwise
    """
    if hit := _rules.get(("prod", id(a), id(b))):
        return hit[0]
    n = a.dim + b.dim
    homology = _kunneth(a.homology, b.homology, n)
    m = make_descriptor(Prod(a.expr, b.expr), n, homology, direct_product(a.pi1, b.pi1))
    return _keep(("prod", id(a), id(b)), m, a, b)


def _kunneth(a: GradedGroup, b: GradedGroup, n: int) -> GradedGroup:
    """The integral Kunneth formula, up to top degree n.

    Only pairs of nonzero groups A = a_i, B = b_j contribute: A (x) B in
    degree i+j and Tor(A, B) in i+j+1.  Free ranks add up as integers,
    r*s per pair; the raw orders of :func:`_torsion_terms` are listed only
    for a pair where a side has torsion, and only a degree that receives
    some is normalized, once.  Every other degree is free.

    The walk goes a pair of runs at a time: a pair adds its terms at each
    degree as often as it has pairs of degrees that sum to it, counted by
    :func:`_pair_counts`, so two long runs cost the sum of their lengths,
    not their product.  Two one-degree runs, all a small group has, meet
    once, at the sum of their degrees.
    """
    ranks: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    for f1, s1, c1, g in a.runs:
        r, m = g.rank, g.factors
        for f2, s2, c2, h in b.runs:
            rs = r * h.rank
            tensor, tor = _torsion_terms(g, h) if m or h.factors else ((), ())
            k = f1 + f2
            for t in (1,) if c1 == 1 == c2 else _pair_counts(s1, c1, s2, c2):
                if t:
                    if rs:
                        ranks[k] = ranks.get(k, 0) + rs * t
                    if tensor:
                        orders.setdefault(k, []).extend(tensor * t)
                    if tor:
                        orders.setdefault(k + 1, []).extend(tor * t)
                k += 1
    runs = []
    for k in sorted(ranks.keys() | orders.keys()):
        o = orders.get(k)
        runs.append((k, 1, 1, free(ranks[k]) if o is None else normalize(o, ranks.get(k, 0))))
    return GradedGroup(n, runs)


def _torsion_terms(g: AbGroup, h: AbGroup) -> tuple[list[int], list[int]]:
    """The raw torsion orders of g (x) h and of Tor(g, h).

    With g = Z^r + sum Z_m and h = Z^s + sum Z_n, the torsion of g (x) h
    is r copies of each Z_n, s copies of each Z_m, and Z_gcd(m, n) for
    every pair; Tor(g, h) is Z_gcd(m, n) for every pair, since free
    summands have no Tor.  A gcd of 1 is a trivial summand and is left
    out of both.  Every factor of a divisibility chain divides its
    largest, so when the two largest factors are coprime, every pair is.

    >>> _torsion_terms(normalize([4], 1), cyclic(6))
    ([6, 2], [2])
    >>> _torsion_terms(cyclic(14), cyclic(14))
    ([14], [14])
    >>> _torsion_terms(cyclic(3), cyclic(5))
    ([], [])
    """
    m, q = g.factors, h.factors
    gcds = []
    if m and q and gcd(m[-1], q[-1]) > 1:
        gcds = [d for x in m for y in q if (d := gcd(x, y)) > 1]
    return [*q * g.rank, *m * h.rank, *gcds], gcds


def _pair_counts(s1: int, c1: int, s2: int, c2: int) -> list[int]:
    """For u = 0, 1, ..., how many x < c1 and y < c2 make s1*x + s2*y = u.

    A difference array: each x opens the progression s1*x + s2*y at
    s1*x and closes it s2*c2 further on, and a running sum along each
    residue mod s2 fills in the rest.  So it costs c1 plus the length of
    the result, not c1*c2.

    >>> _pair_counts(2, 3, 2, 2)
    [1, 0, 2, 0, 2, 0, 1]
    >>> _pair_counts(1, 3, 2, 2)
    [1, 1, 2, 1, 1]
    """
    size = s1 * (c1 - 1) + s2 * (c2 - 1) + 1
    counts = [0] * (size + s2)
    for u in range(0, s1 * c1, s1):
        counts[u] += 1
        counts[u + s2 * c2] -= 1
    for r in range(s2):
        counts[r::s2] = accumulate(counts[r::s2])
    del counts[size:]
    return counts


def iterated_spin(radii: list[int], m: ManifoldDescriptor) -> ManifoldDescriptor:
    """sigma_{r_1} sigma_{r_2} ... sigma_{r_k}(M): innermost spin is r_k."""
    if m.dim < 3:
        raise ValueError("iterated spin needs dimension >= 3")
    out = m
    for r in reversed(radii):
        out = spin(r, out)
    return out


# -- named pipelines ---------------------------------------------------------------


def _check_pipeline_params(m: int, p: int) -> None:
    if m < 0:
        raise ValueError(f"pipeline index must be >= 0, got {m}")
    if not is_prime(p) or p % 4 != 3:
        raise ValueError(f"pipeline prime must be = 3 (mod 4), got {p}")


def pipeline_main(m: int, p: int) -> ManifoldDescriptor:
    """Strongly chiral rational homology (4m+3)-sphere with hyperbolic pi_1.

    Connected sum of the sphere bundle E_m with the 4m-spin of a
    hyperbolic rational homology 3-sphere; torsion Z_2p sits in degrees
    1, 2m+1 and 4m+1.
    """
    _check_pipeline_params(m, p)
    if m == 0:
        return dehn_rhs(p)
    return connected_sum(bundle(m, p), spin(4 * m, dehn_rhs(p)))


def pipeline_main2(m: int, p: int) -> ManifoldDescriptor:
    """Variant spinning an integral homology 3-sphere instead.

    The only intermediate homology is Z_2p in degree 2m+1; pi_1 is the
    hyperbolic group of the spun generator (fixed only in dimension >= 7).
    """
    _check_pipeline_params(m, p)
    if m == 0:
        return dehn_rhs(p)
    return connected_sum(bundle(m, p), spin(4 * m, ihs3()))
