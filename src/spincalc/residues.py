"""Number-theoretic helpers: primality and whether -1 is a square mod q."""

from __future__ import annotations

# Sorenson and Webster (2015): Miller-Rabin with the first 13 prime bases
# is correct for every n below this bound, the least strong pseudoprime to
# all of them.
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_EXACT_BOUND.

    At or above the bound, a witness still proves n composite and gives
    False; passing every base only makes n a probable prime, so that
    raises ValueError instead of returning True.
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
    for a in _MR_BASES:
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
    """Prime factorization by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
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


def minus_one_is_square_mod(q: int) -> bool:
    """Is -1 a quadratic residue mod q?

    Odd primes go through the Euler criterion, every other modulus
    through factorization: -1 is a square mod q iff 4 does not divide q
    and every odd prime factor of q is 1 mod 4.  The exhaustive scan
    stays as the test oracle for both rules.
    """
    if q <= 0:
        raise ValueError("modulus must be positive")
    if q % 2 == 1 and is_prime(q):
        return minus_one_square_euler(q)
    if q % 4 == 0:
        return False
    return all(p == 2 or p % 4 == 1 for p in factorize(q))
