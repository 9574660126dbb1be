"""Seeded workload generators.

Every generator is a pure function of the seed.  An expression is a
tuple AST, rendered to DSL text by :func:`render`:

    ("S", n)  ("CP", n)  ("Sigma", g)  ("L", p, n)  ("N", p)  ("IHS3",)
    ("E", m, d)  ("spin", r, child)  ("csum", a, b)  ("prod", a, b)

A workload is a :class:`Workload`: batch units (one DSL command over a
list of expressions, fed through stdin), single calls (one ``cli.main``
argv per op) and limit probes (single calls that are expected to fail
today and are reported apart from the ops).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCH_COMMANDS = ("eval", "chirality", "degrees")
NAMES = ("corpus", "highdim", "bignum", "pipeline")
# the modules of src/spincalc, the layers of the per-layer metrics
LAYERS = ("cli", "dsl", "construct", "manifold", "graded", "abelian", "residues", "analysis", "degrees")


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation that is one op."""

    argv: tuple[str, ...]
    expect: tuple  # ("verify", theorem, m, p) | ("table1", p) | ("eval", ast)
    asts: tuple = ()  # the constructions the call builds, for input properties


@dataclass
class Workload:
    name: str
    exprs: list = field(default_factory=list)  # batch inputs, run under every BATCH_COMMAND
    calls: list[Call] = field(default_factory=list)
    probes: list[Call] = field(default_factory=list)

    def ops_per_pass(self) -> int:
        return len(self.exprs) * len(BATCH_COMMANDS) + len(self.calls)

    def input_asts(self) -> list:
        return list(self.exprs) + [a for c in self.calls for a in c.asts]


# -- rendering and properties ------------------------------------------------


def peel_spins(ast: tuple) -> tuple[list[int], tuple]:
    """Split a spin chain into its radii, outermost first, and its core.

    Chains are walked with a loop so that deeply nested inputs need no
    deep recursion here.
    """
    radii = []
    while ast[0] == "spin":
        radii.append(ast[1])
        ast = ast[2]
    return radii, ast


def render(ast: tuple) -> str:
    radii, ast = peel_spins(ast)
    head, *args = ast
    if head == "IHS3":
        core = "IHS3"
    else:
        core = f"{head}({','.join(str(a) if isinstance(a, int) else render(a) for a in args)})"
    return "".join(f"spin({r}," for r in radii) + core + ")" * len(radii)


def dim(ast: tuple) -> int:
    radii, ast = peel_spins(ast)
    return sum(radii) + _core_dim(ast)


def _core_dim(ast: tuple) -> int:
    head = ast[0]
    if head == "S":
        return ast[1]
    if head == "CP":
        return 2 * ast[1]
    if head == "Sigma":
        return 2
    if head == "L":
        return ast[2]
    if head in ("N", "IHS3"):
        return 3
    if head == "E":
        return 4 * ast[1] + 3
    if head == "csum":
        return dim(ast[1])
    return dim(ast[1]) + dim(ast[2])


def _subtrees(ast: tuple):
    stack = [ast]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(a for a in node[1:] if isinstance(a, tuple))


def input_properties(workload: Workload) -> dict[str, float]:
    """AST node count, share of sub-AST occurrences already seen, max dim, max digits."""
    seen: set[tuple] = set()
    nodes = repeats = max_digits = 0
    for ast in workload.input_asts():
        for node in _subtrees(ast):
            nodes += 1
            repeats += node in seen
            seen.add(node)
            for a in node[1:]:
                if isinstance(a, int):
                    max_digits = max(max_digits, len(str(abs(a))))
    return {
        "input.ast_nodes": nodes,
        "input.repeat_share": repeats / nodes,
        "input.max_dim": max(dim(a) for a in workload.input_asts()),
        "input.max_int_digits": max_digits,
    }


# -- number helpers (the benchmark's own, independent of src/) --------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
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


def next_prime(n: int, residue_mod4: int | None = None) -> int:
    while not (is_prime(n) and (residue_mod4 is None or n % 4 == residue_mod4)):
        n += 1
    return n


def stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[int]:
    """k log-spaced values in [lo, hi], one near the middle of each of k
    equal log-width strata, in increasing order.

    Each value moves by the seed within a tenth of its stratum, so the
    inputs differ from seed to seed while the cost of every op, and so
    each percentile of a pass, stays nearly the same.
    """
    a, b = math.log(lo), math.log(hi)
    return [int(math.exp(a + (i + 0.45 + 0.1 * rng.random()) / k * (b - a))) for i in range(k)]


# -- generators ----------------------------------------------------------------

_CONSTRUCT_FIELDS = {
    "Sphere": ("S", "n"), "CP": ("CP", "n"), "Surface": ("Sigma", "genus"),
    "Lens": ("L", "p", "dim"), "DehnRHS": ("N", "p"), "IHS3": ("IHS3",),
    "Bundle": ("E", "m", "d"), "Spin": ("spin", "r", "child"),
    "CSum": ("csum", "left", "right"), "Prod": ("prod", "left", "right"),
}


def _from_construct(e) -> tuple:
    head, *names = _CONSTRUCT_FIELDS[type(e).__name__]
    vals = [getattr(e, n) for n in names]
    return (head, *(v if isinstance(v, int) else _from_construct(v) for v in vals))


def corpus(seed: int, pass_index: int = 0, size: int = 1000, depth: int = 5) -> Workload:
    """The acceptance-suite corpus: ``tests/helpers.random_expr`` at depth 5.

    Pass 0 is ``tests/helpers.corpus(seed, 1000)``; every later pass of a
    run draws 1000 new expressions from the seed, so a run's tail
    percentile covers thousands of distinct expressions.
    """
    for sub in ("src", "tests"):
        if str(ROOT / sub) not in sys.path:
            sys.path.insert(0, str(ROOT / sub))
    from helpers import random_expr

    rng = random.Random(seed if pass_index == 0 else f"{seed}/{pass_index}")
    return Workload("corpus", exprs=[_from_construct(random_expr(rng, depth)) for _ in range(size)])


_SMALL_PRIMES = (3, 5, 7, 11, 13)


def highdim(seed: int) -> Workload:
    """Distinct, sparse, high-dimensional constructions plus dense controls."""
    rng = random.Random(seed)
    exprs: list[tuple] = [("S", n) for n in stratified(rng, 8, 2000, 16000)]
    sizes = stratified(rng, 12, 15, 50)
    exprs += [("prod", ("S", a), ("S", b)) for a, b in zip(sizes[::2], sizes[1::2])]
    bases = [("N", 5), ("IHS3",), ("E", 1, 7), ("N", 7), ("IHS3",), ("E", 2, 3)]
    exprs += [("spin", r, bases[i % 6]) for i, r in enumerate(stratified(rng, 16, 200, 1500))]
    for i, n in enumerate(stratified(rng, 8, 800, 2500)):
        spun = ("spin", n - 3, ("N", 3) if i % 2 else ("IHS3",))
        exprs.append(("csum", ("S", n), spun) if i % 4 < 2 else ("csum", spun, ("spin", n - 3, ("N", 7))))
    exprs += [("L", _SMALL_PRIMES[i % 5], n | 1) for i, n in enumerate(stratified(rng, 21, 41, 301))]
    exprs += [("CP", n) for n in stratified(rng, 21, 20, 150)]
    rng.shuffle(exprs)
    nested = ("S", 3)
    for _ in range(1500):
        nested = ("spin", 1, nested)
    probes = [
        Call(("eval", render(nested)), ("eval", nested)),
        Call(("eval", "S(3000000)"), ("eval", ("S", 3000000))),
    ]
    return Workload("highdim", exprs=exprs, probes=probes)


def _semiprime_near(rng: random.Random, target: int, residue_mod4: int) -> int:
    """p*q with primes p < q of similar size, both = residue_mod4 (mod 4), and
    p*q a little above target."""
    p = next_prime(int(math.isqrt(target) * rng.uniform(0.65, 0.75)), residue_mod4)
    return p * next_prime(target // p, residue_mod4)


def bignum(seed: int) -> Workload:
    """Small-dimension constructions on large integers."""
    rng = random.Random(seed)
    # Residues mod 4 are fixed by position: whether -1 is a square mod 2p
    # decides whether the residue scan stops early, so they set the cost.
    exprs: list[tuple] = [
        ("N", next_prime(p, 1 + 2 * (i % 2))) for i, p in enumerate(stratified(rng, 30, 1e3, 1e12))
    ]
    exprs += [("L", next_prime(p), 3 + 2 * (i % 3)) for i, p in enumerate(stratified(rng, 24, 1e3, 1e12))]
    # 2|d| below SCAN_THRESHOLD (100000) for half of them, above it for the rest
    for i, target in enumerate(stratified(rng, 15, 1e3, 4e4) + stratified(rng, 15, 1e5, 1e10)):
        d = _semiprime_near(rng, target, 1 + 2 * (i // 2 % 2))
        exprs.append(("E", i % 3, d if i % 2 else -d))
    ps, qs = stratified(rng, 24, 1e4, 2e6), stratified(rng, 24, 1e4, 2e6)
    exprs += [("csum", ("N", next_prime(p)), ("N", next_prime(q))) for p, q in zip(ps, qs)]
    rng.shuffle(exprs)
    big = ("N", 1000000000000000003)
    return Workload("bignum", exprs=exprs, probes=[Call(("eval", render(big)), ("eval", big))])


# the rows of table1: partitions of 4 with at least two parts
PARTITIONS_OF_4 = ((3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def iterated_spin(radii, base: tuple) -> tuple:
    out = base
    for r in reversed(radii):
        out = ("spin", r, out)
    return out


def pipeline_ast(theorem: str, m: int, p: int) -> tuple:
    if m == 0:
        return ("N", p)
    core = ("N", p) if theorem == "main" else ("IHS3",)
    return ("csum", ("E", m, p), ("spin", 4 * m, core))


def pipeline(seed: int) -> Workload:
    """The paper's reproduction path: ``verify`` over the grid and ``table1``."""
    rng = random.Random(seed)
    candidates = [p for p in range(23, 2000) if p % 4 == 3 and is_prime(p)]
    extra = rng.sample(candidates, 13)
    calls = []
    for p in [3, 7, 11, 19] + extra[:8]:
        for theorem in ("main", "main2"):
            for m in range(9):
                calls.append(Call(
                    ("verify", "--theorem", theorem, "--m", str(m), "--p", str(p)),
                    ("verify", theorem, m, p), (pipeline_ast(theorem, m, p),),
                ))
    for p in [3, 7, 11] + extra[8:]:
        asts = tuple(
            iterated_spin(perm, ("N", p))
            for radii in PARTITIONS_OF_4 for perm in sorted(set(permutations(radii)))
        )
        calls.append(Call(("table1", "--p", str(p)), ("table1", p), asts))
    rng.shuffle(calls)
    return Workload("pipeline", calls=calls)


def generate(name: str, seed: int, pass_index: int = 0) -> Workload:
    """The inputs of one pass; only ``corpus`` changes them from pass to pass."""
    if name == "corpus":
        return corpus(seed, pass_index)
    return {"highdim": highdim, "bignum": bignum, "pipeline": pipeline}[name](seed)
