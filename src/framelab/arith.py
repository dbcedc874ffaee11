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
