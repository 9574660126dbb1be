"""Number-theoretic helpers: primality and whether -1 is a square mod q."""

from __future__ import annotations

from math import gcd

# Sorenson and Webster (2015): Miller-Rabin with the first 13 prime bases
# is correct for every n below this bound, the least strong pseudoprime to
# all of them.
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, the first k bases): below psi_k, the least strong pseudoprime to
# the first k prime bases (OEIS A014233), those k bases are already exact.
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so 8, 10 and 11 bases never pay.
_MR_PREFIXES = tuple(
    (bound, _MR_BASES[:k])
    for bound, k in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (318665857834031151167461, 12),
    )
)

# factorize trial-divides below this bound, then leaves the rest to rho.
_TRIAL_BOUND = 1000
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))
# Pollard-Brent iterations one factorize call may spend.  A prime factor
# near 10^12 takes about 1-4 million; past the budget factorize raises
# instead of running on.
_RHO_STEPS = 1 << 23
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_EXACT_BOUND.

    Below a bound of ``_MR_PREFIXES`` only its first bases run, and
    from the last one on all 13.  At or above MR_EXACT_BOUND, a witness
    still proves n composite and gives False; passing every base only
    makes n a probable prime, so that raises ValueError instead of
    returning True.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    for bound, prefix in _MR_PREFIXES:
        if n < bound:
            bases = prefix
            break
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
    if n >= MR_EXACT_BOUND:
        raise ValueError(
            f"primality of {n} is undecided: it is a probable prime, "
            f"and Miller-Rabin is exact only below {MR_EXACT_BOUND}"
        )
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, with every factor certified.

    Trial division by 2 and the odd numbers below ``_TRIAL_BOUND`` comes
    first; it leaves no prime factor below the bound, so a cofactor below
    the bound's square is prime.  Each larger
    cofactor that ``is_prime`` rejects is split by Brent's variant of
    Pollard rho (Brent 1980).  Raises ValueError when a cofactor is only a
    probable prime (see ``is_prime``), or when splitting needs more than
    ``_RHO_STEPS`` iterations in all.

    >>> factorize(2 * 1000000000000000003)
    {2: 1, 1000000000000000003: 1}
    """
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    steps = _RHO_STEPS
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f, steps = _rho_divisor(m, steps)
            pending += [f, m // f]
    return out


def _rho_divisor(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n, and the steps left.

    Brent's cycle search on x -> x^2 + c (mod n) from x = 2, for
    c = 1, 2, ... until one gives a divisor.  Each block of the search
    is charged its 2r iterations before it runs.  The differences are
    multiplied in batches with one gcd each; a batch whose gcd reaches n
    is replayed one difference at a time.
    """
    c = 0
    while True:
        c += 1
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise ValueError(
                    f"cannot factor {n}: no divisor found within "
                    f"{_RHO_STEPS} Pollard-Brent steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - done)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                done += _RHO_BATCH
            r *= 2
        if g == n:
            y, g = start, 1
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if g != n:
            return g, steps


def minus_one_is_square_mod(q: int) -> bool:
    """Is -1 a quadratic residue mod q?

    It is iff 4 does not divide q and every odd prime factor of q is
    1 mod 4.  A product of primes = 1 (mod 4) is itself 1 mod 4, so an
    odd part = 3 (mod 4) answers False without factoring q.
    """
    if q <= 0:
        raise ValueError("modulus must be positive")
    if q % 4 == 0 or (q if q % 2 else q // 2) % 4 == 3:
        return False
    return all(p == 2 or p % 4 == 1 for p in factorize(q))
