"""Residue classes mod p, Gauss sums, and quartic-residue set constructions.

The full and half quadratic sums come from one kernel, _quadratic_sums,
vectorized over a: row a gathers root[(a j) mod p] from the p-th roots of
unity (groups._roots_of_unity, the values of the root table of Z_p, built
per call so that no table outlives it) and sums them, with j running over
the squares x^2 (full sums) or over {0} + the quadratic residues (half
sums).  The closed forms (+-sqrt(p), +-i*sqrt(p) according to p mod 4, or
their halves shifted by 1/2) take the sign of a from Euler's criterion
(legendre), never from the residue set the half sums run over, so the two
sides are computed apart.  gauss_sum and half_gauss_sum are the kernel on
one a, required to agree with the closed form to 1e-9; gauss_sum_table
gives both sides for every a of one prime.  Residue sets and quadratic
sums build tables of size p, so they take p <= PRIME_BOUND only, checked
before anything else (a larger p is a CapacityError whether or not it is
prime, so no unbounded primality test runs on it).  paley_pds,
quartic_gaussian_ds and quartic_special_cases count differences in Z_p, so
they make the order check of diffsets' difference counts (p <=
SUBGROUP_ORDER_BOUND) before anything else.  The quartic machinery
covers primes p = 8q+5, where the fourth powers split the residues and
furnish two-level difference structures relative to the quadratic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import four_square_plus, is_prime, residues
from .diffsets import Classification, classify, difference_counts
from .errors import CapacityError, DomainError, InvariantError
from .groups import Element, GroupSpec, _check_order, _roots_of_unity

GAUSS_TOL = 1e-9
PRIME_BOUND = 1 << 16  # largest p for the O(p) residue sets and quadratic sums


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
    _require_table_prime(p)
    if s not in (2, 4):
        raise DomainError(f"only square and fourth-power residues supported, got s={s}")
    if s == 4 and p % 4 != 1:
        raise DomainError(f"fourth powers split residues only for p = 1 mod 4, got {p}")
    return ResidueClass(p, s, residues(p, s))


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")


def _require_table_prime(p: int) -> None:
    """An odd prime small enough for tables of size p; checked before any is built."""
    if p > PRIME_BOUND:
        raise CapacityError(f"residue tables capped at p <= {PRIME_BOUND}, got {p}")
    _require_odd_prime(p)


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


def _quadratic_sums(a: np.ndarray, p: int, half: bool) -> np.ndarray:
    """Per entry of a: the full (half=False) or half quadratic sum mod p.

    A gather from the root table of Z_p and a row sum: the full sum adds
    root[(a x^2) mod p] over x in Z_p, the half sum root[(a j) mod p] over
    j in {0} + R_2.  Rows go PRIME_BOUND // p at a time, so no gathered
    table exceeds PRIME_BOUND entries whatever len(a) is; nothing here
    compares with the closed forms.
    """
    _require_table_prime(p)
    if half:
        js = np.array((0,) + residues(p, 2), dtype=np.int64)
    else:
        js = np.arange(p, dtype=np.int64) ** 2
    root = _roots_of_unity(p)
    rows = PRIME_BOUND // p
    return np.concatenate([
        root[(a[i : i + rows, None] * js) % p].sum(axis=1) for i in range(0, len(a), rows)
    ])


def _closed_forms(signs, p: int, half: bool):
    """The four-case closed forms for residue signs s (+-1, or an array of them).

    Full sum: s sqrt(p) for p = 1 mod 4, i s sqrt(p) for p = 3 mod 4; the
    half sum is (1 + that) / 2.
    """
    signed = signs * np.sqrt(p)
    full = signed if p % 4 == 1 else 1j * signed
    return (1 + full) / 2 if half else full


def _checked_sum(a: int, p: int, half: bool) -> complex:
    """The kernel on one a, held to its closed form within GAUSS_TOL."""
    kind = "half gauss sum" if half else "gauss sum"
    _require_table_prime(p)
    if a % p == 0:
        raise DomainError(f"{kind} defined for a nonzero mod p")
    numeric = complex(_quadratic_sums(np.array([a], dtype=np.int64), p, half)[0])
    closed = half_gauss_sum_closed_form(a, p) if half else gauss_sum_closed_form(a, p)
    if abs(numeric - closed) > GAUSS_TOL:
        raise InvariantError(f"{kind} drifted from closed form: {numeric} vs {closed}")
    return numeric


def gauss_sum_table(p: int, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(numeric, closed) for a = 1..p-1: the full (or half) quadratic sums and their closed forms.

    The numeric row is one kernel call over all a; the closed forms are
    signed by legendre(a, p) per a.  Nothing here compares the two.
    """
    _require_table_prime(p)
    a = np.arange(1, p, dtype=np.int64)
    signs = np.array([legendre(x, p) for x in range(1, p)])
    return _quadratic_sums(a, p, half), _closed_forms(signs, p, half)


def gauss_sum(a: int, p: int) -> complex:
    """Full quadratic sum over x in Z_p of e^(2 pi i a x^2 / p), p <= PRIME_BOUND."""
    return _checked_sum(a, p, half=False)


def gauss_sum_closed_form(a: int, p: int) -> complex:
    """legendre(a, p) sqrt(p) for p = 1 mod 4, i legendre(a, p) sqrt(p) for p = 3 mod 4."""
    return complex(_closed_forms(legendre(a, p), p, half=False))


def half_gauss_sum(a: int, p: int) -> complex:
    """Sum of e^(2 pi i a j / p) over the quadratic residues and zero, p <= PRIME_BOUND."""
    return _checked_sum(a, p, half=True)


def half_gauss_sum_closed_form(a: int, p: int) -> complex:
    """(1 + gauss_sum_closed_form(a, p)) / 2."""
    return complex(_closed_forms(legendre(a, p), p, half=True))


# ---------------------------------------------------------------------------
# Constructions


def paley_pds(p: int) -> tuple[tuple[Element, ...], Classification]:
    """Quadratic residues as a subset of Z_p, classification re-verified.

    p = 3 mod 4 gives a (p, (p-1)/2, (p-3)/4)-difference set; p = 1 mod 4
    gives a regular (p, (p-1)/2, (p-5)/4, (p-1)/4)-partial difference set.
    """
    _check_order(p, "difference counts")
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
    """Z_p* as four cosets of the fourth powers; representative 2 when 2 is a nonsquare.

    p <= PRIME_BOUND, checked first, as for residue_class.
    """
    _require_table_prime(p)
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
    _check_order(p, "difference counts")
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


# indexed by [0 in S]: the fourth-power set, its difference-set condition
# and its almost condition, as named by quartic_conditions
QUARTIC_FAMILIES: tuple[tuple[str, str, str], ...] = (
    ("R4", "p=4a^2+1, a odd", "p=9+4a^2 or p=25+4a^2"),
    ("R4+{0}", "p=4a^2+9, a odd", "p=1+4a^2 or p=49+4a^2"),
)


def quartic_conditions(p: int) -> dict[str, bool]:
    """The four conditions p = 4a^2 + c (c = 1, 9, 25, 49) of both quartic families, by name."""
    root = {c: four_square_plus(p, c) for c in (1, 9, 25, 49)}  # p = 4 root^2 + c
    return {
        "p=4a^2+1, a odd": root[1] is not None and root[1] % 2 == 1,
        "p=4a^2+9, a odd": root[9] is not None and root[9] % 2 == 1,
        "p=9+4a^2 or p=25+4a^2": root[9] is not None or root[25] is not None,
        "p=1+4a^2 or p=49+4a^2": root[1] is not None or root[49] is not None,
    }


def quartic_special_cases(p: int) -> QuarticCaseReport:
    """Check the four quadratic representability conditions for p = 1 mod 4.

    Each condition that holds implies parameters for its QUARTIC_FAMILIES
    set, checked against its classification: difference-set conditions
    first, then almost conditions, R4 before R4+{0}.  Conditions with
    non-integral implied parameters are reported as not applicable (this
    restricts the almost families to the p = 5 mod 8 branch where the
    fourth powers form a two-level structure; the difference-set
    conditions force p = 5 or 13 mod 32, where lambda is integral).
    """
    _check_order(p, "difference counts")
    _require_odd_prime(p)
    if p % 4 != 1:
        raise DomainError(f"quartic special cases need p = 1 mod 4, got {p}")
    g = GroupSpec((p,))
    m4 = (p - 1) // 4
    conditions = quartic_conditions(p)

    R4 = tuple((z,) for z in residues(p, 4))
    implications: list[dict] = []
    verified = True
    for almost in (False, True):
        for with_zero, (name, *conditions_of) in enumerate(QUARTIC_FAMILIES):
            if not conditions[conditions_of[almost]]:
                continue
            entry = {"set": name, "class": "almost" if almost else "difference_set"}
            # the two levels sum to (p - 5)/8 + [0 in S]; an almost set's lam is the lower
            lam, r = divmod(p - 5 + 8 * with_zero - 8 * almost, 16)
            if r:
                implications.append({**entry, "params": None, "holds": False,
                                     "reason": "implied lambda not integral"})
                continue
            params = [p, m4 + with_zero, lam] + ([(p - 1) // 2] if almost else [])
            cls = classify(g, ((0,),) + R4 if with_zero else R4)
            if almost:
                ok = cls.almost is not None and [cls.almost.lam, cls.almost.t] == params[2:]
            else:
                ok = cls.difference_set_lambda == lam
            implications.append({**entry, "params": params, "holds": ok})
            verified &= ok

    if p % 8 == 5:
        quartic_gaussian_ds(p)  # cross-check the two-level structure itself
    return QuarticCaseReport(p, conditions, tuple(implications), verified)
