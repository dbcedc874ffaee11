"""Residue classes mod p, Gauss sums, and quartic-residue set constructions.

Quadratic sums are evaluated both numerically and by the classical closed
forms (+-sqrt(p), +-i*sqrt(p) according to p mod 4 and the Legendre symbol);
the numeric and closed values are required to agree to 1e-9.  The quartic
machinery covers primes p = 8q+5, where the fourth powers split the residues
and furnish two-level difference structures relative to the quadratic ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import four_square_plus, is_prime, residues
from .diffsets import Classification, classify, difference_counts
from .errors import DomainError, InvariantError
from .groups import Element, GroupSpec

GAUSS_TOL = 1e-9


@dataclass(frozen=True)
class ResidueClass:
    """The s-th power residues in the multiplicative group mod p."""

    p: int
    s: int
    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def residue_class(p: int, s: int = 2) -> ResidueClass:
    _require_odd_prime(p)
    if s not in (2, 4):
        raise DomainError(f"only square and fourth-power residues supported, got s={s}")
    if s == 4 and p % 4 != 1:
        raise DomainError(f"fourth powers split residues only for p = 1 mod 4, got {p}")
    return ResidueClass(p, s, residues(p, s))


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol via the power characterization: +-1."""
    _require_odd_prime(p)
    if a % p == 0:
        raise DomainError(f"residue symbol undefined at multiples of {p}")
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def quartic_symbol(a: int, p: int) -> int:
    """Fourth-power symbol on quadratic residues: +1 iff a is a fourth power."""
    _require_odd_prime(p)
    if p % 4 != 1:
        raise DomainError(f"quartic symbol needs p = 1 mod 4, got {p}")
    if a % p == 0 or legendre(a, p) != 1:
        raise DomainError(f"{a} is not a quadratic residue mod {p}")
    r = pow(a, (p - 1) // 4, p)
    return 1 if r == 1 else -1


def gauss_sum(a: int, p: int) -> complex:
    """Full quadratic sum over x in Z_p of e^(2 pi i a x^2 / p)."""
    _require_odd_prime(p)
    if a % p == 0:
        raise DomainError("gauss sum defined for a nonzero mod p")
    ks = (a * np.arange(p, dtype=np.int64) ** 2) % p
    numeric = complex(np.exp(2j * np.pi * ks / p).sum())
    closed = gauss_sum_closed_form(a, p)
    if abs(numeric - closed) > GAUSS_TOL:
        raise InvariantError(f"gauss sum drifted from closed form: {numeric} vs {closed}")
    return numeric


def gauss_sum_closed_form(a: int, p: int) -> complex:
    sign = legendre(a, p)
    root = math.sqrt(p)
    return complex(sign * root) if p % 4 == 1 else complex(0, sign * root)


def half_gauss_sum(a: int, p: int) -> complex:
    """Sum of e^(2 pi i a j / p) over the quadratic residues and zero."""
    _require_odd_prime(p)
    if a % p == 0:
        raise DomainError("half gauss sum defined for a nonzero mod p")
    js = np.array((0,) + residues(p, 2), dtype=np.int64)
    numeric = complex(np.exp(2j * np.pi * ((a * js) % p) / p).sum())
    closed = half_gauss_sum_closed_form(a, p)
    if abs(numeric - closed) > GAUSS_TOL:
        raise InvariantError(f"half gauss sum drifted: {numeric} vs {closed}")
    return numeric


def half_gauss_sum_closed_form(a: int, p: int) -> complex:
    sign = legendre(a, p)
    root = math.sqrt(p)
    if p % 4 == 1:
        return complex((1 + sign * root) / 2)
    return complex(0.5, sign * root / 2)


# ---------------------------------------------------------------------------
# Constructions


def paley_pds(p: int) -> tuple[tuple[Element, ...], Classification]:
    """Quadratic residues as a subset of Z_p, classification re-verified.

    p = 3 mod 4 gives a (p, (p-1)/2, (p-3)/4)-difference set; p = 1 mod 4
    gives a regular (p, (p-1)/2, (p-5)/4, (p-1)/4)-partial difference set.
    """
    _require_odd_prime(p)
    g = GroupSpec((p,))
    S = tuple((r,) for r in residues(p, 2))
    cls = classify(g, S)
    if p % 4 == 3:
        if cls.difference_set_lambda != (p - 3) // 4:
            raise InvariantError(f"Paley set at p={p} misclassified: {cls.as_dict()}")
    else:
        expected = (p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)
        got = (
            (cls.n, cls.m, cls.partial.lam, cls.partial.mu)
            if cls.partial is not None
            else None
        )
        if got != expected or not cls.regular:
            raise InvariantError(f"Paley set at p={p} misclassified: {got} != {expected}")
    return S, cls


def quartic_coset_decomposition(p: int) -> tuple[tuple[int, ...], ...]:
    """Z_p* as four cosets of the fourth powers; representative 2 when 2 is a nonsquare."""
    _require_odd_prime(p)
    if p % 4 != 1:
        raise DomainError(f"quartic cosets need p = 1 mod 4, got {p}")
    a = 2 if legendre(2, p) == -1 else next(
        b for b in range(2, p) if legendre(b, p) == -1
    )
    r4 = residues(p, 4)
    cosets = []
    covered: set[int] = set()
    for j in range(4):
        w = pow(a, j, p)
        coset = tuple(sorted(w * r % p for r in r4))
        cosets.append(coset)
        covered.update(coset)
    if len(covered) != p - 1:
        raise InvariantError(f"quartic cosets fail to partition Z_{p}^*")
    return tuple(cosets)


def quartic_gaussian_ds(
    p: int, with_zero: bool = False
) -> tuple[tuple[Element, ...], tuple[int, int]]:
    """Fourth powers mod p = 8q+5 as a two-level set relative to the residues.

    Returns the subset and (lam, mu) read off the difference counts: lam on
    the nonzero part of QR + {0}, mu outside.  Without zero lam + mu = q;
    adjoining zero bumps lam by one.
    """
    q, r = divmod(p - 5, 8)
    if r != 0 or q <= 0 or not is_prime(p):
        raise DomainError(f"{p} is not a prime of the form 8q+5 with q > 0")
    g = GroupSpec((p,))
    r2 = set(residues(p, 2))
    S = tuple((z,) for z in residues(p, 4))
    if with_zero:
        S = ((0,),) + S
    dc = difference_counts(g, S)
    on_res = {dc.counts[(z,)] for z in r2}
    off_res = {dc.counts[(z,)] for z in range(1, p) if z not in r2}
    if len(on_res) != 1 or len(off_res) != 1:
        raise InvariantError(f"difference counts not two-level at p={p}")
    lam, mu = on_res.pop(), off_res.pop()
    if (lam - 1 if with_zero else lam) + mu != q:
        raise InvariantError(f"lambda+mu != q at p={p}: ({lam}, {mu})")
    return S, (lam, mu)


@dataclass(frozen=True)
class QuarticCaseReport:
    """Which quadratic-family representations hold at p and what they imply."""

    p: int
    conditions: dict[str, bool]
    implications: tuple[dict, ...]
    verified: bool


def quartic_special_cases(p: int) -> QuarticCaseReport:
    """Check the four quadratic representability conditions for p = 1 mod 4.

    Conditions with non-integral implied parameters are reported as not
    applicable (this restricts the almost/difference-set families to the
    p = 5 mod 8 branch where the fourth powers form a two-level structure).
    """
    _require_odd_prime(p)
    if p % 4 != 1:
        raise DomainError(f"quartic special cases need p = 1 mod 4, got {p}")
    g = GroupSpec((p,))
    m4 = (p - 1) // 4

    root = {c: four_square_plus(p, c) for c in (1, 9, 25, 49)}  # p = 4 root^2 + c
    conditions = {
        "p=4a^2+1, a odd": root[1] is not None and root[1] % 2 == 1,
        "p=4a^2+9, a odd": root[9] is not None and root[9] % 2 == 1,
        "p=9+4a^2 or p=25+4a^2": root[9] is not None or root[25] is not None,
        "p=1+4a^2 or p=49+4a^2": root[1] is not None or root[49] is not None,
    }

    implications: list[dict] = []
    verified = True

    def check_difference_set(with_zero: bool, lam: int) -> bool:
        S = tuple((z,) for z in residues(p, 4))
        if with_zero:
            S = ((0,),) + S
        cls = classify(g, S)
        return cls.difference_set_lambda == lam

    def check_almost(with_zero: bool, lam: int, t: int) -> bool:
        S = tuple((z,) for z in residues(p, 4))
        if with_zero:
            S = ((0,),) + S
        cls = classify(g, S)
        return cls.almost is not None and (cls.almost.lam, cls.almost.t) == (lam, t)

    if conditions["p=4a^2+1, a odd"]:
        lam = (p - 5) // 16
        ok = (p - 5) % 16 == 0 and check_difference_set(False, lam)
        implications.append(
            {"set": "R4", "class": "difference_set", "params": [p, m4, lam], "holds": ok}
        )
        verified &= ok
    if conditions["p=4a^2+9, a odd"]:
        lam = (p + 3) // 16
        ok = (p + 3) % 16 == 0 and check_difference_set(True, lam)
        implications.append(
            {
                "set": "R4+{0}",
                "class": "difference_set",
                "params": [p, m4 + 1, lam],
                "holds": ok,
            }
        )
        verified &= ok
    if conditions["p=9+4a^2 or p=25+4a^2"]:
        if (p - 13) % 16 == 0:
            lam, t = (p - 13) // 16, (p - 1) // 2
            ok = check_almost(False, lam, t)
            implications.append(
                {"set": "R4", "class": "almost", "params": [p, m4, lam, t], "holds": ok}
            )
            verified &= ok
        else:
            implications.append(
                {"set": "R4", "class": "almost", "params": None, "holds": False,
                 "reason": "implied lambda not integral"}
            )
    if conditions["p=1+4a^2 or p=49+4a^2"]:
        if (p - 5) % 16 == 0:
            lam, t = (p - 5) // 16, (p - 1) // 2
            ok = check_almost(True, lam, t)
            implications.append(
                {"set": "R4+{0}", "class": "almost", "params": [p, m4 + 1, lam, t], "holds": ok}
            )
            verified &= ok
        else:
            implications.append(
                {"set": "R4+{0}", "class": "almost", "params": None, "holds": False,
                 "reason": "implied lambda not integral"}
            )

    if p % 8 == 5:
        quartic_gaussian_ds(p)  # cross-check the two-level structure itself
    return QuarticCaseReport(p, conditions, tuple(implications), verified)
