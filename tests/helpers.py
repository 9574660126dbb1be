"""Independent oracles and the randomized construction corpus.

Everything here deliberately avoids the code paths it is used to check:
group isomorphism is decided by element counting, Kunneth expansion is
done directly on lists of cyclic orders.
"""

from __future__ import annotations

import random
from math import gcd, lcm, prod

from spincalc import construct
from spincalc.abelian import TRIVIAL, Z, cyclic, normalize
from spincalc.construct import (
    CP,
    Bundle,
    CSum,
    ConstructionExpr,
    DehnRHS,
    IHS3,
    Lens,
    Prod,
    Sphere,
    Spin,
    Surface,
)
from spincalc.degrees import (
    ALL_INTEGERS,
    NONNEGATIVE_UNIT,
    SIGNED_UNIT,
    DegreeSet,
    exact_set,
    perfect_powers,
)
from spincalc.dsl import EXPR, KINDS, evaluate
from spincalc.graded import GradedGroup
from spincalc.manifold import Trivial
from spincalc.residues import MR_EXACT_BOUND, is_prime


# -- brute-force isomorphism of finite abelian groups -------------------------


def elements_of_order_dividing(cyclic_orders: list[int], d: int) -> int:
    """Count x with d*x = 0 in the direct sum of the given cyclic groups."""
    return prod(gcd(d, n) for n in cyclic_orders)


def same_finite_group(orders_a: list[int], orders_b: list[int]) -> bool:
    """Isomorphism test by counting d-torsion elements.

    Counts for arbitrary d are determined by the divisors of the group
    exponent (gcd(d, n) = gcd(gcd(d, e), n) whenever n | e), so checking
    those suffices.
    """
    if prod(orders_a) != prod(orders_b):
        return False
    exponent = lcm(1, *orders_a, *orders_b)
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    return all(
        elements_of_order_dividing(orders_a, d) == elements_of_order_dividing(orders_b, d)
        for d in divisors
    )


def exchange_invariant_factors(cyclic_orders: list[int]) -> tuple[int, ...]:
    """Invariant factors by exchanging every pair for its (gcd, lcm).

    After position i has met every later position it divides all of
    them.  Quadratic in the number of orders, and independent of the
    chain insertion in ``abelian.normalize``, so it serves as its
    reference on orders too large for ``same_finite_group``.
    """
    a = [n for n in cyclic_orders if n > 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] // g * a[j]
    return tuple(n for n in a if n > 1)


# -- brute-force Kunneth expansion ---------------------------------------------


def kunneth_orders(
    a: dict[int, tuple[int, list[int]]],
    b: dict[int, tuple[int, list[int]]],
    k: int,
) -> tuple[int, list[int]]:
    """Degree-k homology of a product, as (free rank, cyclic orders).

    Inputs map degree -> (rank, cyclic orders).  Works directly with gcds
    on the order lists, independent of the AbGroup arithmetic.
    """
    rank = 0
    orders: list[int] = []
    for i in range(k + 1):
        ra, ta = a.get(i, (0, []))
        rb, tb = b.get(k - i, (0, []))
        rank += ra * rb
        orders += tb * ra + ta * rb
        orders += [gcd(m, n) for m in ta for n in tb]
    for i in range(k):
        _, ta = a.get(i, (0, []))
        _, tb = b.get(k - 1 - i, (0, []))
        orders += [gcd(m, n) for m in ta for n in tb]
    return rank, [n for n in orders if n > 1]


def dense_duality_report(h, n: int) -> tuple[bool, int | None, str]:
    """Poincare duality of a GradedGroup, as (ok, failing degree, message).

    Walks every degree 0..n, so it checks the sparse walk of
    ``graded.check_poincare_duality`` without sharing it.
    """
    if h.top_degree != n:
        return False, None, f"top degree {h.top_degree} != dimension {n}"
    if h.group(0) != Z or h.group(n) != Z:
        return False, 0, f"H_0 = {h.group(0)}, H_{n} = {h.group(n)}; both must be Z"
    for i in range(n + 1):
        if h.group(i).rank != h.group(n - i).rank:
            return (
                False, i,
                f"free rank of H_{i} is {h.group(i).rank} but H_{n - i} has {h.group(n - i).rank}",
            )
        j = n - i - 1
        if 0 <= j <= n and h.group(i).torsion() != h.group(j).torsion():
            return (
                False, i,
                f"torsion of H_{i} is {h.group(i).torsion()} but H_{j} has {h.group(j).torsion()}",
            )
    return True, None, ""


def dense_cohomology(h, n: int):
    """Integral cohomology H^i = Z^rank(H_i) + Tor(H_{i-1}) of a GradedGroup, for 0 <= i <= n.

    Walks every degree 0..n through ``group``, so it checks the one-pass
    walk of ``graded.cohomology_from_homology`` without sharing it.
    """
    # H_{-1} is trivial: ``group`` gives the trivial group off the entries
    groups = {i: normalize(h.group(i - 1).factors, h.group(i).rank) for i in range(n + 1)}
    return GradedGroup.from_dict(groups, n)


def dense_connectivity(m) -> int:
    """Connectivity of a descriptor by walking every degree 1..dim.

    Trivial reduced homology up to degree c gives c-connected only for a
    simply connected manifold (Hurewicz), so any other pi_1 gives 0.
    Checks ``ManifoldDescriptor.connectivity`` without sharing its walk.
    """
    if not isinstance(m.pi1, Trivial):
        return 0
    c = 0
    while c < m.dim and m.homology.group(c + 1).is_trivial:
        c += 1
    return c


def trial_division_factorization(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to the square root.

    The reference for ``residues.factorize``: it shares none of its
    trial bound, primality test or Pollard rho.
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def thirteen_base_is_prime(n: int) -> bool:
    """Miller-Rabin with all 13 prime bases up to 41, whatever the size of n.

    The reference for the shorter base prefixes of ``residues.is_prime``;
    exact only below ``MR_EXACT_BOUND``.
    """
    if n >= MR_EXACT_BOUND:
        raise ValueError(f"{n} is not below the exact bound")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def minus_one_square_scan(q: int) -> bool:
    """Exhaustive check for a in [0, q) with a^2 = -1 (mod q)."""
    if q <= 0:
        raise ValueError("modulus must be positive")
    return any((a * a + 1) % q == 0 for a in range(q))


def minus_one_square_euler(q: int) -> bool:
    """Euler criterion for an odd prime q: -1 is a square iff q = 1 (mod 4)."""
    if not is_prime(q) or q == 2:
        raise ValueError(f"{q} is not an odd prime")
    return pow(q - 1, (q - 1) // 2, q) == 1


# -- graded groups degree by degree, without runs ---------------------------------


def expand_runs(runs) -> list[tuple[int, object]]:
    """Runs ``(first, step, count, group)`` as dense ``(degree, group)`` entries."""
    return [(f + k * s, g) for f, s, c, g in runs for k in range(c)]


class DenseGraded:
    """A graded group as a plain dict of its nonzero degrees, for the dense references."""

    def __init__(self, top_degree: int, groups: dict) -> None:
        self.top_degree, self.groups = top_degree, groups

    def group(self, degree: int):
        return self.groups.get(degree, TRIVIAL)


def dense_homology(e: ConstructionExpr) -> tuple[int, dict]:
    """(dimension, degree -> nonzero group) of an AST, one degree at a time.

    The generators' closed forms; spin as punctured homology plus the
    r-shifted reduced homology; csum as the degreewise sum of the inner
    degrees; prod by ``kunneth_orders``.  Raises ValueError where the
    dimensions of a combinator do not fit, as ``construct`` does.
    """
    if isinstance(e, Sphere):
        return e.n, {0: Z, e.n: Z}
    if isinstance(e, CP):
        return 2 * e.n, {d: Z for d in range(0, 2 * e.n + 1, 2)}
    if isinstance(e, Surface):
        return 2, {0: Z, 1: normalize([], 2 * e.genus), 2: Z}
    if isinstance(e, Lens):
        return e.dim, {0: Z, e.dim: Z, **{d: cyclic(e.p) for d in range(1, e.dim - 1, 2)}}
    if isinstance(e, DehnRHS):
        return 3, {0: Z, 1: cyclic(2 * e.p), 3: Z}
    if isinstance(e, IHS3):
        return 3, {0: Z, 3: Z}
    if isinstance(e, Bundle):
        n = 4 * e.m + 3
        return n, {0: Z, 2 * e.m + 1: cyclic(2 * abs(e.d)), n: Z}
    if isinstance(e, Spin):
        n, h = dense_homology(e.child)
        if n < 2:
            raise ValueError("cannot spin")
        out = {d: g for d, g in h.items() if d < n}
        for d, g in h.items():
            if d > 0:
                out[d + e.r] = out.get(d + e.r, TRIVIAL).direct_sum(g)
        return n + e.r, out
    if isinstance(e, CSum):
        (n, a), (k, b) = dense_homology(e.left), dense_homology(e.right)
        if n != k or n < 3:
            raise ValueError("dimensions do not fit")
        out = dict(a)
        for d, g in b.items():
            if 0 < d < n:
                out[d] = out.get(d, TRIVIAL).direct_sum(g)
        return n, out
    if isinstance(e, Prod):
        (n, a), (k, b) = dense_homology(e.left), dense_homology(e.right)
        oa = {d: (g.rank, list(g.factors)) for d, g in a.items()}
        ob = {d: (g.rank, list(g.factors)) for d, g in b.items()}
        out = {}
        for d in range(n + k + 1):
            rank, orders = kunneth_orders(oa, ob, d)
            if rank or orders:
                out[d] = normalize(orders, rank)
        return n + k, out
    raise TypeError(e)


def dense_uct(groups: dict, n: int) -> dict:
    """Cohomology H^i = Z^rank(H_i) + Tor(H_{i-1}) of a dict of degrees, for 0 <= i <= n."""
    out = {}
    for i in range(n + 1):
        g = normalize(groups.get(i - 1, TRIVIAL).factors, groups.get(i, TRIVIAL).rank)
        if not g.is_trivial:
            out[i] = g
    return out


def graded_as_orders(descriptor) -> dict[int, tuple[int, list[int]]]:
    return {
        d: (g.rank, list(g.factors)) for d, g in descriptor.homology.entries
    }


# -- evaluation without a memo ------------------------------------------------------

_KIND_OF = {kind.node: kind for kind in KINDS}


def reference_evaluate(ast: ConstructionExpr):
    """Evaluate an AST by building every node afresh, children first.

    The reference for the memo of ``dsl.evaluate``: it keeps nothing, so
    each N and IHS3 draws its generator id where it stands.
    """
    kind = _KIND_OF[type(ast)]
    args = []
    for name, field in zip(ast.__match_args__, kind.fields):
        value = getattr(ast, name)
        args.append(reference_evaluate(value) if field == EXPR else value)
    return getattr(construct, kind.build)(*args)


# -- sphere-product sums by rewriting the AST -------------------------------------


def rewrite(e: ConstructionExpr) -> ConstructionExpr:
    """Normalize spins of known forms into sphere products and sums.

    The reference for ``analysis._sphere_level``: it builds the rewritten
    tree, where that reads a level off each node of the original.
    """
    if isinstance(e, CP) and e.n == 1:
        return Sphere(2)
    if isinstance(e, CSum):
        return CSum(rewrite(e.left), rewrite(e.right))
    if isinstance(e, Prod):
        return Prod(rewrite(e.left), rewrite(e.right))
    if isinstance(e, Spin):
        child = rewrite(e.child)
        if isinstance(child, Sphere):
            return Sphere(child.n + e.r)
        if isinstance(child, CSum):
            # spins distribute over connected sums
            return CSum(rewrite(Spin(e.r, child.left)), rewrite(Spin(e.r, child.right)))
        if isinstance(child, Surface):
            return _sphere_product_sum(2 * child.genus, e.r)
        if isinstance(child, CP):
            return rewrite(Prod(CP(child.n - 1), Sphere(e.r + 2)))
        if (
            isinstance(child, Prod)
            and isinstance(child.left, Sphere)
            and isinstance(child.right, Sphere)
        ):
            n, k = child.left.n, child.right.n
            return CSum(
                Prod(Sphere(n + e.r), Sphere(k)),
                Prod(Sphere(n), Sphere(k + e.r)),
            )
        return Spin(e.r, child)
    return e


def _sphere_product_sum(copies: int, r: int) -> ConstructionExpr:
    """The connected sum of that many copies of S^{r+1} x S^1, as a balanced tree."""
    if copies == 1:
        return Prod(Sphere(r + 1), Sphere(1))
    half = copies // 2
    return CSum(_sphere_product_sum(half, r), _sphere_product_sum(copies - half, r))


def _is_sphere_product(e: ConstructionExpr) -> bool:
    if isinstance(e, Sphere):
        return True
    if isinstance(e, Prod):
        return _is_sphere_product(e.left) and _is_sphere_product(e.right)
    return False


def is_sphere_product_sum(e: ConstructionExpr) -> bool:
    """Sphere, product of spheres, or connected sum of such, under any spins."""
    if isinstance(e, CSum):
        return is_sphere_product_sum(e.left) and is_sphere_product_sum(e.right)
    if isinstance(e, Spin):
        return is_sphere_product_sum(e.child)
    return _is_sphere_product(e)


def reference_degree_set(m) -> DegreeSet:
    """D(M) by the rules of ``analysis.degree_set``, every set built afresh.

    The reference for its shared constants and its sphere levels: each
    call builds and validates its set, and the sphere-product-sum rule
    asks the rewrite instead of ``analysis._sphere_level``.
    """
    expr = m.expr
    if isinstance(expr, Spin) and isinstance(expr.child, CP) and expr.child.n >= 2:
        return exact_set(ALL_INTEGERS, ("spin-of-complex-projective",))
    if is_sphere_product_sum(rewrite(expr)):
        return exact_set(ALL_INTEGERS, ("sphere-product-sum",))
    if isinstance(expr, Surface):
        return exact_set(SIGNED_UNIT, ("hyperbolic-surface",))
    if isinstance(expr, CP) and expr.n >= 2:
        return exact_set(perfect_powers(expr.n), ("complex-projective",))
    if isinstance(expr, DehnRHS):
        return exact_set(NONNEGATIVE_UNIT, ("hyperbolic-odd-isometry",))
    if isinstance(expr, IHS3):
        return DegreeSet(upper_bound=SIGNED_UNIT, rules=("positive-simplicial-volume",))
    return DegreeSet(rules=("no-rule-matched",))


def all_asts(leaves: list[ConstructionExpr], depth: int) -> list[ConstructionExpr]:
    """Every AST of at most that depth over the leaves, with spin radius 1.

    Dimensions are not checked, so most of them are not valid manifolds.
    """
    out = list(leaves)
    for _ in range(depth):
        out = (
            list(leaves)
            + [Spin(1, e) for e in out]
            + [node(a, b) for node in (CSum, Prod) for a in out for b in out]
        )
    return out


def random_ast(rng: random.Random, leaves: list[ConstructionExpr], depth: int) -> ConstructionExpr:
    """An AST of at most that depth, spins twice as likely as sums or products."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice([Spin, Spin, CSum, Prod])
    if kind is Spin:
        return Spin(rng.randint(1, 3), random_ast(rng, leaves, depth - 1))
    return kind(random_ast(rng, leaves, depth - 1), random_ast(rng, leaves, depth - 1))


# -- randomized construction corpus ---------------------------------------------


def random_expr(rng: random.Random, depth: int) -> ConstructionExpr:
    """A construction expression that is valid by construction.

    Products are throttled (nested products multiply torsion summand
    counts combinatorially), spins and sums are not.
    """
    if depth <= 0 or rng.random() < 0.45:
        return _random_leaf(rng)
    kind = rng.choice(["spin", "spin", "csum", "csum", "prod"])
    if kind == "spin":
        child = random_expr(rng, depth - 1)
        if _dim_of(child) < 2:
            child = Sphere(rng.randint(3, 6))
        return Spin(rng.randint(1, 4), child)
    if kind == "prod":
        return Prod(random_expr(rng, depth - 2), random_expr(rng, depth - 2))
    left = random_expr(rng, depth - 1)
    n = _dim_of(left)
    if n < 3:
        left = Sphere(n := rng.randint(3, 7))
    return CSum(left, _random_expr_of_dim(rng, n, depth - 1))


def _random_leaf(rng: random.Random) -> ConstructionExpr:
    roll = rng.randint(0, 6)
    if roll == 0:
        return Sphere(rng.randint(1, 6))
    if roll == 1:
        return CP(rng.randint(1, 2))
    if roll == 2:
        return Surface(rng.randint(2, 3))
    if roll == 3:
        return Lens(rng.choice([2, 3, 5, 7]), rng.choice([3, 5]))
    if roll == 4:
        return DehnRHS(rng.choice([3, 5, 7, 11, 13]))
    if roll == 5:
        return IHS3()
    return Bundle(rng.randint(0, 1), rng.choice([1, 2, 3, 7, -5]))


def _random_expr_of_dim(rng: random.Random, n: int, depth: int) -> ConstructionExpr:
    options = [lambda: Sphere(n)]
    if n % 2 == 1 and n >= 3:
        options.append(lambda: Lens(rng.choice([2, 3, 5, 7]), n))
    if n > 3:
        options.append(lambda: Spin(n - 3, rng.choice([DehnRHS(7), IHS3(), Sphere(3)])))
    if n >= 2:
        options.append(lambda: Prod(Sphere(a := rng.randint(1, n - 1)), Sphere(n - a)))
    if n % 4 == 3:
        options.append(lambda: Bundle((n - 3) // 4, rng.choice([1, 3, 7])))
    if depth > 0:
        options.append(lambda: CSum(_random_expr_of_dim(rng, n, 0), _random_expr_of_dim(rng, n, 0)))
    return rng.choice(options)()


def _dim_of(e: ConstructionExpr) -> int:
    if isinstance(e, Sphere):
        return e.n
    if isinstance(e, CP):
        return 2 * e.n
    if isinstance(e, Surface):
        return 2
    if isinstance(e, Lens):
        return e.dim
    if isinstance(e, (DehnRHS, IHS3)):
        return 3
    if isinstance(e, Bundle):
        return 4 * e.m + 3
    if isinstance(e, Spin):
        return _dim_of(e.child) + e.r
    if isinstance(e, CSum):
        return _dim_of(e.left)
    if isinstance(e, Prod):
        return _dim_of(e.left) + _dim_of(e.right)
    raise TypeError(e)


def corpus(seed: int, size: int, depth: int = 5):
    """Deterministic list of (expr, descriptor) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        expr = random_expr(rng, depth)
        out.append((expr, evaluate(expr)))
    return out
