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


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = smallest_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def residues(p: int, s: int) -> tuple[int, ...]:
    """The s-th power residues in the multiplicative group mod p, sorted; not cached."""
    return tuple(sorted({pow(z, s, p) for z in range(1, p)}))


def four_square_plus(n: int, c: int) -> int | None:
    """The a >= 0 with n = 4a^2 + c, or None when n has no such form."""
    if n < c:
        return None
    a = math.isqrt((n - c) // 4)
    return a if 4 * a * a + c == n else None
