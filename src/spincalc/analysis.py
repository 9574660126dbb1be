"""Chirality certification and degree-set inference.

Two analysis queries run over a descriptor: does the manifold admit a
self-map of degree -1 (strong chirality), and what is known about the
full set of self-mapping degrees.  Both are pure functions of the
descriptor; traces record which rule produced each conclusion.
"""

from __future__ import annotations

from ._value import Value, set_field
from .construct import (
    CP,
    CSum,
    ConstructionExpr,
    DehnRHS,
    IHS3,
    Prod,
    Sphere,
    Spin,
    Surface,
)
from .degrees import (
    ALL_INTEGERS,
    NONNEGATIVE_UNIT,
    SIGNED_UNIT,
    DegreeSet,
    exact_set,
    perfect_powers,
)
from .manifold import ManifoldDescriptor, middle_torsion
from .residues import minus_one_is_square_mod

PROVEN_STRONGLY_CHIRAL = "proven_strongly_chiral"
ADMITS_DEGREE_MINUS_ONE = "admits_degree_minus_one"
INCONCLUSIVE = "inconclusive"


class ChiralityVerdict(Value):
    __slots__ = __match_args__ = ("kind", "trace")

    def __init__(self, kind: str, trace: tuple[str, ...]) -> None:
        set_field(self, "kind", kind)
        set_field(self, "trace", trace)

    @property
    def is_strongly_chiral(self) -> bool:
        return self.kind == PROVEN_STRONGLY_CHIRAL

    def to_json(self) -> dict:
        return {"verdict": self.kind, "trace": list(self.trace)}

    def describe(self) -> str:
        names = {
            PROVEN_STRONGLY_CHIRAL: "proven strongly chiral",
            ADMITS_DEGREE_MINUS_ONE: "admits a self-map of degree -1",
            INCONCLUSIVE: "inconclusive",
        }
        lines = [names[self.kind]]
        lines.extend(f"  - {step}" for step in self.trace)
        return "\n".join(lines)


# -- strong chirality ---------------------------------------------------------


def _linking_test(m: ManifoldDescriptor) -> tuple[bool, tuple[str, ...]]:
    """Whether the torsion linking form forbids degree -1, with its reason.

    In dimension 4k+3 the middle torsion pairing is symmetric and scales
    with the mapping degree; a cyclic Tor H^{middle} = Z_q with -1 a
    non-residue mod q therefore forbids degree -1.  The steps are that
    proof, or the one line saying why the test is silent.
    """
    if m.dim % 4 != 3:
        return False, (
            f"dimension {m.dim} is not of the form 4k+3; torsion linking test inapplicable",
        )
    k = (m.dim - 1) // 2
    torsion = middle_torsion(m)
    q = torsion.is_cyclic_of_order()
    if q is None:
        return False, (f"Tor H^{k + 1} = {torsion} is not cyclic of order >= 2",)
    if isinstance(m.expr, DehnRHS) and q == 2 * m.expr.p:
        # dehn_rhs certified p prime, so -1 is a square mod 2p iff p = 1 (mod 4)
        square = m.expr.p % 4 == 1
    else:
        square = minus_one_is_square_mod(q)
    if square:
        return False, (f"-1 is a square mod {q}, so the torsion linking test is silent",)
    return True, (
        f"dimension {m.dim} = 2k+1 with k = {k} odd: torsion linking pairing applies",
        f"Tor H^{k + 1} = Z_{q} is cyclic",
        f"-1 is not a square mod {q}: no self-map of degree -1 exists",
    )


def chirality_verdict(m: ManifoldDescriptor) -> ChiralityVerdict:
    forbids, steps = _linking_test(m)
    ds = degree_set(m)
    if forbids and ds.contains_minus_one():
        raise ValueError(
            "contradictory analysis: a chirality certificate and a degree -1 "
            f"witness both apply to {m.expr}"
        )
    if forbids:
        return ChiralityVerdict(PROVEN_STRONGLY_CHIRAL, steps)
    if ds.contains_minus_one():
        return ChiralityVerdict(
            ADMITS_DEGREE_MINUS_ONE,
            (f"degree set {ds.describe()} realizes -1 (rules: {', '.join(ds.rules)})",),
        )
    # the linking test is the only proof of chirality; the middle line
    # stays because schema "1" pins the trace of an inconclusive verdict
    return ChiralityVerdict(
        INCONCLUSIVE,
        (
            *steps,
            "no externally proven chirality fact recorded",
            "degree-set engine does not realize -1",
        ),
    )


# -- degree sets ---------------------------------------------------------------


def _sphere_level(e: ConstructionExpr) -> int:
    """How close ``e`` is to a connected sum of sphere products.

    4: a sphere (CP^1 included); 3: a product of spheres; 2: a connected
    sum of sphere products, under any spins; 1: not 2 itself, but every
    spin of it is (a surface, CP^2, or a connected sum of such); 0: other.
    A spin's level follows sigma_r S^n = S^{n+r},
    sigma_r CP^2 = S^2 x S^{r+2}, sigma_r Sigma_g = #_{2g} S^{r+1} x S^1,
    and sigma_r (S^n x S^k) = (S^{n+r} x S^k) # (S^n x S^{k+r}), spins
    distributing over connected sums.
    """
    if isinstance(e, Sphere):
        return 4
    if isinstance(e, CP):
        return 4 if e.n == 1 else 1 if e.n == 2 else 0
    if isinstance(e, Surface):
        return 1
    # a left operand that already decides the level leaves the right one unread
    if isinstance(e, Prod):
        return 3 if _sphere_level(e.left) >= 3 and _sphere_level(e.right) >= 3 else 0
    if isinstance(e, CSum):
        left = _sphere_level(e.left)
        return min(left, _sphere_level(e.right), 2) if left else 0
    if isinstance(e, Spin):
        level = _sphere_level(e.child)
        if level == 4:
            return 4
        if isinstance(e.child, CP) and e.child.n == 2:
            return 3
        return 2 if level >= 1 else 0
    return 0


# the sets of the rules that do not depend on the expression, each built
# and validated once; a DegreeSet is immutable, so every line shares one
_SPIN_OF_CP = exact_set(ALL_INTEGERS, ("spin-of-complex-projective",))
_SPHERE_PRODUCT_SUM = exact_set(ALL_INTEGERS, ("sphere-product-sum",))
_HYPERBOLIC_SURFACE = exact_set(SIGNED_UNIT, ("hyperbolic-surface",))
# nonzero degree forces an isometry up to homotopy; odd-order isometry
# groups leave only the identity's degree
_ODD_ISOMETRY = exact_set(NONNEGATIVE_UNIT, ("hyperbolic-odd-isometry",))
_SIMPLICIAL_VOLUME = DegreeSet(upper_bound=SIGNED_UNIT, rules=("positive-simplicial-volume",))
_NO_RULE = DegreeSet(rules=("no-rule-matched",))


def degree_set(m: ManifoldDescriptor) -> DegreeSet:
    """Infer D(M) from the construction expression alone."""
    expr = m.expr

    # the spin of CP^n as a whole has degree set Z, even though no rule
    # covers CP^{n-1} x S^{r+2}, its product form; this fires first
    if isinstance(expr, Spin) and isinstance(expr.child, CP) and expr.child.n >= 2:
        return _SPIN_OF_CP

    if _sphere_level(expr) >= 2:
        return _SPHERE_PRODUCT_SUM
    if isinstance(expr, Surface):
        return _HYPERBOLIC_SURFACE
    if isinstance(expr, CP) and expr.n >= 2:
        return exact_set(perfect_powers(expr.n), ("complex-projective",))
    if isinstance(expr, DehnRHS):
        return _ODD_ISOMETRY
    if isinstance(expr, IHS3):
        return _SIMPLICIAL_VOLUME
    return _NO_RULE
