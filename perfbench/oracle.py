"""Reference answers that share no code path with ``src/``.

Homology comes from closed forms of the generators and of spin and
connected sum, with products expanded by ``tests/helpers.kunneth_orders``.
Groups are compared by ``tests/helpers.same_finite_group`` when their
exponent is small, and otherwise by invariant factors computed with
gcd/lcm (no factorization).  The chirality reference is the torsion
linking criterion, decided by the Euler criterion on the prime factors
of q.  Each ``check_*`` returns ``None`` for a correct record and a
one-line reason otherwise.  ``pi_1`` text is never compared: its
generator ids depend on the history of the process.
"""

from __future__ import annotations

import random
import re
import sys
from math import gcd, lcm

from workloads import PARTITIONS_OF_4, ROOT, dim, is_prime, iterated_spin, peel_spins, pipeline_ast, render

for _sub in ("src", "tests"):
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))
from helpers import kunneth_orders, same_finite_group  # noqa: E402

# same_finite_group enumerates every divisor of the exponent; above this
# exponent the invariant-factor comparison is used instead
SMALL_EXPONENT = 1000

Graded = dict  # degree -> (rank, [cyclic orders])

# -- groups -----------------------------------------------------------------------


def invariant_factors(orders) -> tuple[int, ...]:
    """Divisibility chain of a sum of cyclic groups, by gcd/lcm exchange."""
    a = [n for n in orders if n > 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] * a[j] // g
    return tuple(n for n in a if n > 1)


def same_group(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> bool:
    (ra, ta), (rb, tb) = a, b
    if ra != rb:
        return False
    if lcm(1, *ta, *tb) <= SMALL_EXPONENT:
        return same_finite_group(list(ta), list(tb))
    return invariant_factors(ta) == invariant_factors(tb)


def _add(h: Graded, d: int, group: tuple[int, list[int]]) -> None:
    r, t = h.get(d, (0, []))
    h[d] = (r + group[0], t + list(group[1]))


def _pruned(h: Graded) -> Graded:
    return {d: (r, [n for n in t if n > 1]) for d, (r, t) in h.items() if r or any(n > 1 for n in t)}


# -- homology -------------------------------------------------------------------------

_Z = (1, [])


def _core_homology(ast: tuple) -> Graded:
    head, *args = ast
    if head == "S":
        n = args[0]
        return {0: _Z, 1: _Z} if n == 1 else {0: _Z, n: _Z}
    if head == "CP":
        return {2 * i: _Z for i in range(args[0] + 1)}
    if head == "Sigma":
        return {0: _Z, 1: (2 * args[0], []), 2: _Z}
    if head == "L":
        p, n = args
        return {0: _Z, n: _Z, **{i: (0, [p]) for i in range(1, n - 1, 2)}}
    if head == "N":
        return {0: _Z, 1: (0, [2 * args[0]]), 3: _Z}
    if head == "IHS3":
        return {0: _Z, 3: _Z}
    if head == "E":
        # Gysin: Z_{2|d|} in cohomology degree 2m+2, so in homology degree 2m+1
        m, d = args
        return {0: _Z, 2 * m + 1: (0, [2 * abs(d)]), 4 * m + 3: _Z}
    a, b = homology(args[0]), homology(args[1])
    if head == "csum":
        n = dim(ast)
        out: Graded = {0: _Z, n: _Z}
        for h in (a, b):
            for d, g in h.items():
                if 0 < d < n:
                    _add(out, d, g)
        return out
    # prod: Kunneth expansion on order lists
    top = dim(args[0]) + dim(args[1])
    return {k: kunneth_orders(a, b, k) for k in range(top + 1)}


def homology(ast: tuple) -> Graded:
    """H_*(M) as degree -> (rank, orders), trivial degrees dropped.

    The r-spin of an n-manifold M has H_i(M) for i < n plus the reduced
    homology of M shifted up by r.
    """
    radii, core = peel_spins(ast)
    h, n = _pruned(_core_homology(core)), dim(core)
    for r in reversed(radii):
        out: Graded = {d: g for d, g in h.items() if d < n}
        for d, g in h.items():
            if d >= 1:
                _add(out, d + r, g)
        h, n = out, n + r
    return _pruned(h)


def cohomology(h: Graded) -> Graded:
    """Universal coefficients: H^i = Z^rank(H_i) + Tor(H_{i-1})."""
    out: Graded = {}
    for d, (r, t) in h.items():
        _add(out, d, (r, []))
        _add(out, d + 1, (0, t))
    return _pruned(out)


def euler_characteristic(h: Graded) -> int:
    return sum((-1) ** d * r for d, (r, _) in h.items())


# -- chirality reference --------------------------------------------------------------


def _pollard_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n (Brent's cycle finding)."""
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    out: set[int] = set()
    for p in range(2, 1000):
        while n % p == 0:
            out.add(p)
            n //= p
    stack, rng = [n] if n > 1 else [], random.Random(0)
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
        else:
            f = _pollard_brent(m, rng)
            stack += [f, m // f]
    return out


def minus_one_is_square(q: int) -> bool:
    """-1 is a square mod q iff 4 does not divide q and every odd prime factor
    p has (-1)^((p-1)/2) = 1 mod p (Euler's criterion)."""
    if q % 4 == 0:
        return False
    return all(p == 2 or pow(p - 1, (p - 1) // 2, p) == 1 for p in prime_factors(q))


def linking_certificate(h: Graded, n: int) -> tuple[int, int] | None:
    """(k, q) when the torsion linking form forbids degree -1, else None."""
    if n % 4 != 3:
        return None
    k = (n - 1) // 2
    factors = invariant_factors(h.get(k, (0, []))[1])  # Tor H^{k+1} = Tor H_k
    if len(factors) != 1 or minus_one_is_square(factors[0]):
        return None
    return k, factors[0]


# -- parsing the CLI text ------------------------------------------------------------

_GROUP_PART = re.compile(r"^Z(?:_(\d+))?(?:\^(\d+))?$")


def parse_group(text: str) -> tuple[int, list[int]]:
    if text == "0":
        return 0, []
    rank, orders = 0, []
    for part in text.split(" + "):
        m = _GROUP_PART.match(part)
        if m is None:
            raise ValueError(f"not a group: {text!r}")
        count = int(m.group(2) or 1)
        if m.group(1):
            orders += [int(m.group(1))] * count
        else:
            rank += count
    return rank, orders


def parse_graded(lines: list[str]) -> Graded:
    out: Graded = {}
    for line in lines:
        line = line.strip()
        if line in ("0, otherwise", "0 for all i"):
            continue
        group, _, degrees = line.partition(", for i = ")
        for d in degrees.split(", "):
            out[int(d)] = parse_group(group)
    return out


def _graded_mismatch(label: str, got: Graded, want: Graded) -> str | None:
    if got.keys() != want.keys():
        return f"{label}: nonzero degrees {sorted(got)[:8]} != expected {sorted(want)[:8]}"
    for d in want:
        if not same_group(got[d], want[d]):
            return f"{label}: degree {d} is {got[d]}, expected {want[d]}"
    return None


# -- checks --------------------------------------------------------------------------


def check_eval(record: str, ast: tuple) -> str | None:
    """A descriptor report: dimension, Euler characteristic, H_*, H^*, duality."""
    lines = record.splitlines()
    try:
        fields = {ln.split(":", 1)[0]: ln.split(":", 1)[1].strip() for ln in lines if not ln.startswith(" ")}
        h_at, c_at = lines.index("homology H_i:"), lines.index("cohomology H^i:")
        end = next(i for i in range(c_at + 1, len(lines)) if not lines[i].startswith("  "))
        got_h, got_c = parse_graded(lines[h_at + 1:c_at]), parse_graded(lines[c_at + 1:end])
    except (ValueError, IndexError, StopIteration) as exc:
        return f"unparsable report ({exc})"
    h = homology(ast)
    if fields.get("dimension") != str(dim(ast)):
        return f"dimension {fields.get('dimension')}, expected {dim(ast)}"
    if fields.get("euler char") != str(euler_characteristic(h)):
        return f"euler char {fields.get('euler char')}, expected {euler_characteristic(h)}"
    if fields.get("duality check") != "ok":
        return f"duality check {fields.get('duality check')}"
    return _graded_mismatch("homology", got_h, h) or _graded_mismatch("cohomology", got_c, cohomology(h))


_VERDICTS = ("proven strongly chiral", "admits a self-map of degree -1", "inconclusive")


def check_chirality(record: str, ast: tuple) -> str | None:
    """Proven strongly chiral exactly when the linking criterion applies, with its q."""
    text = render(ast)
    first, *trace = record.splitlines() or [""]
    if not first.startswith(f"{text}: ") or first[len(text) + 2:] not in _VERDICTS:
        return f"unexpected verdict line {first[:80]!r}"
    verdict = first[len(text) + 2:]
    cert = linking_certificate(homology(ast), dim(ast))
    if cert is None:
        return None if verdict != _VERDICTS[0] else "proven strongly chiral without a linking obstruction"
    k, q = cert
    if verdict != _VERDICTS[0]:
        return f"verdict {verdict!r}, but Tor H^{k + 1} = Z_{q} and -1 is not a square mod {q}"
    if f"  - Tor H^{k + 1} = Z_{q} is cyclic" not in trace:
        return f"certificate does not name Tor H^{k + 1} = Z_{q}"
    return None


def _leaves(ast: tuple):
    stack = [ast]
    while stack:
        node = stack.pop()
        children = [a for a in node[1:] if isinstance(a, tuple)]
        if not children:
            yield node
        stack += children


_WINDOW = range(-8, 9)  # degree sets are compared on these integers


def _bound(described: str):
    """Membership test for one of the closed-form degree sets, or None."""
    fixed = {"Z (all integers)": None, "{-1, 0, 1}": (-1, 0, 1), "{0, 1}": (0, 1)}
    if described in fixed:
        members = fixed[described]
        return (lambda d: True) if members is None else (lambda d: d in members)
    m = re.fullmatch(r"\{k\^(\d+) \| k in Z\}", described)
    if m:
        n = int(m.group(1))
        return lambda d: any(k**n == d for k in range(-abs(d) - 1, abs(d) + 2))
    return None


def _true_degree_set(ast: tuple):
    """D(M), as a membership test, for constructions where it is known."""
    if all(leaf[0] == "S" or leaf == ("CP", 1) for leaf in _leaves(ast)):
        return _bound("Z (all integers)")  # spheres, their products, sums and spins
    if ast[0] == "N":
        return _bound("{0, 1}")  # hyperbolic with odd-order isometry group
    if ast[0] == "Sigma":
        return _bound("{-1, 0, 1}")
    if ast[0] == "CP" and ast[1] >= 2:
        return _bound(f"{{k^{ast[1]} | k in Z}}")
    return None


def _parse_degree_set(described: str) -> tuple[set[int] | None, object, bool]:
    """(known degrees, upper-bound test or None, exact) of a DegreeSet description."""
    bound = _bound(described)
    if bound is not None:
        return None, bound, True
    m = re.fullmatch(r"contains \[([-\d, ]*)\]; (?:no upper bound known|contained in (.*))", described)
    if m is None:
        raise ValueError(f"not a degree set: {described!r}")
    known = {int(x) for x in m.group(1).split(", ") if x}
    if m.group(2) is not None and _bound(m.group(2)) is None:
        raise ValueError(f"not a degree bound: {m.group(2)!r}")
    return known, m.group(2) and _bound(m.group(2)), False


def check_degrees(record: str, ast: tuple) -> str | None:
    """A strongly chiral manifold has no degree -1, and where D(M) is known
    by construction the reported set is sound (exact for a generator)."""
    prefix = f"D({render(ast)}) = "
    if not record.startswith(prefix):
        return f"unexpected degree line {record[:80]!r}"
    described = record[len(prefix):]
    try:
        known, bound, exact = _parse_degree_set(described)
    except ValueError as exc:
        return str(exc)
    claims_minus_one = bound(-1) if exact else -1 in known
    if claims_minus_one and linking_certificate(homology(ast), dim(ast)):
        return f"degree set {described!r} contains -1 for a strongly chiral manifold"
    true = _true_degree_set(ast)
    if true is None:
        return None
    if exact:
        return None if all(bound(d) == true(d) for d in _WINDOW) else f"degree set {described!r} is not D(M)"
    if ast[0] not in ("spin", "csum", "prod"):
        return f"degree set {described!r} of a generator should be exact"
    if any(not true(d) for d in known):
        return f"degree set {described!r} claims a degree M does not have"
    if bound and any(true(d) and not bound(d) for d in _WINDOW):
        return f"degree set {described!r} excludes a degree M has"
    return None


def closed_form(theorem: str, m: int, p: int) -> Graded:
    """The paper's homology: Z_2p in degrees 1, 2m+1, 4m+1 (main) or 2m+1 (main2)."""
    n = 4 * m + 3
    degrees = {1, 2 * m + 1, 4 * m + 1} if theorem == "main" else {2 * m + 1}
    return {0: _Z, n: _Z, **{d: (0, [2 * p]) for d in degrees}}


def check_verify(record: str, theorem: str, m: int, p: int) -> str | None:
    ast = pipeline_ast(theorem, m, p)
    h = homology(ast)
    ok = (
        _graded_mismatch("", h, closed_form(theorem, m, p)) is None
        and linking_certificate(h, dim(ast)) is not None
    )
    name = f"{theorem}(m={m}, p={p})"
    want = f"{name}: ok (dim {4 * m + 3}, pi_1 = " if ok else f"{name}: FAILED"
    return None if record.startswith(want) else f"expected {want!r}, got {record[:80]!r}"


def check_table1(record: str, p: int) -> str | None:
    lines = record.splitlines()
    if not lines or lines[0] != f"7-dimensional iterated spinnings of N({p}):":
        return f"unexpected table header {lines[:1]!r}"
    got = {}
    for line in lines[1:]:
        label, _, group = line.strip().partition("   H_3 = ")
        got[label.strip()] = parse_group(group)
    for radii in PARTITIONS_OF_4:
        label = "".join(f"sigma_{r} " for r in radii) + f"(N({p}))"
        want = homology(iterated_spin(list(radii), ("N", p))).get(3, (0, []))
        if label not in got or not same_group(got[label], want):
            return f"row {label!r} is {got.get(label)}, expected H_3 = {want}"
    return None if len(got) == len(PARTITIONS_OF_4) else f"{len(got)} rows, expected 4"


BATCH_CHECKS = {"eval": check_eval, "chirality": check_chirality, "degrees": check_degrees}


def check_call(record: str, expect: tuple) -> str | None:
    kind, *args = expect
    if kind == "verify":
        return check_verify(record, *args)
    if kind == "table1":
        return check_table1(record, *args)
    return check_eval(record, *args)
