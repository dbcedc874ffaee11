"""Small integer helpers shared by the residue and difference-set modules."""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """((p, e), ...) with n = prod p^e, p ascending, for n >= 1; trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def unit_generators(N: int) -> tuple[int, ...]:
    """Units that generate the multiplicative group mod N, N >= 1.

    (Z/N)^* is the product of (Z/q)^* over the prime powers q = p^e of N:
    cyclic with a primitive root for odd p, generated by 3 for q = 4 and by
    -1 and 5 for q = 2^e, e >= 3, trivial for q = 2.  Each local generator
    u is lifted by the Chinese remainder theorem to the unit 1 mod N/q.
    """
    gens = []
    for p, e in factorize(N):
        q, rest = p**e, N // p**e
        if p == 2:
            local: tuple[int, ...] = (q - 1, 5) if e >= 3 else (3,) if e == 2 else ()
        else:
            local = (_primitive_root(p, e),)
        gens += [1 + rest * ((u - 1) * pow(rest, -1, q) % q) for u in local]
    return tuple(gens)


def _primitive_root(p: int, e: int) -> int:
    """A generator of (Z/p^e)^*, p an odd prime: a primitive root g mod p,
    or g + p when g^(p-1) = 1 mod p^2 (then g + p generates mod every p^e)."""
    orders = [(p - 1) // r for r, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in orders))
    return g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


def residues(p: int, s: int) -> tuple[int, ...]:
    """The s-th power residues in the multiplicative group mod p, sorted; not cached."""
    return tuple(sorted({pow(z, s, p) for z in range(1, p)}))


def four_square_plus(n: int, c: int) -> int | None:
    """The a >= 0 with n = 4a^2 + c, or None when n has no such form."""
    if n < c:
        return None
    a = math.isqrt((n - c) // 4)
    return a if 4 * a * a + c == n else None
