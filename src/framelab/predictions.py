"""Closed-form frame-angle predictors and the tabulated parameter families.

Each set class carries a rule mapping its parameters to the frame angles of
the generated harmonic frame.  The subgroup classes share one shell rule
(_chain_shells): counts constant on the annuli of a chain {0} = A_0 < ... <
A_t = G grade the nontrivial characters into shells, shell r those trivial
on A_r but not on A_{r+1}, each with one squared angle, a running sum over
the chain.  A set divisible relative to H is the chain {0} < H < G and a
relative set the case lam = 0.  One shell value is an ETF, two a BTF.  The
partial and Gaussian rules give a conjugate pair rat +- coef sqrt(s), and
the quartic families are the Gaussian rule at their (lam, mu).  Every
two-level predictor first checks the frame's size, then that lam and mu
are nonnegative, and then one counting identity, m(m - 1) = lam(l - 1) +
mu(n - l) for a witness of size l (_check_counts).

Two-angle predictions carry stated multiplicities and those derived from
the tight-sum identity.  The divisible and relative rules state the paper's
n/l, which counts the identity character index, where the shell holds
n/l - 1: the disagreement is flagged, never silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Callable

from . import surd
from .arith import is_prime, is_prime_power
from .diffsets import NestedChain
from .errors import InvalidParametersError
from .frames import _check_frame_size, btf_multiplicities_from_angles, welch_bound
from .residues import QUARTIC_FAMILIES, quartic_conditions


@dataclass(frozen=True)
class AnglePrediction:
    """Predicted angle set, ascending, with exact forms and multiplicities."""

    family: str
    rule: str
    params: dict
    is_etf: bool
    angles: tuple[float, ...]
    symbolic: tuple[str | None, ...]
    stated_multiplicities: tuple[int, ...] | None
    derived_multiplicities: tuple[int, ...] | None
    multiplicity_conflict: bool

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "family": self.family,
            "rule": self.rule,
            "params": self.params,
            "is_etf": self.is_etf,
            "angles": [{"value": a, "symbolic": s} for a, s in zip(self.angles, self.symbolic)],
            "stated_multiplicities": _listed(self.stated_multiplicities),
            "derived_multiplicities": _listed(self.derived_multiplicities),
            "multiplicity_conflict": self.multiplicity_conflict,
        }


def _listed(v):
    """A tuple as a JSON list; anything else as it is."""
    return list(v) if isinstance(v, tuple) else v


def _surd_angle(rat: Fraction, coef: Fraction, s: int) -> tuple[float, str]:
    """Float value and display string for alpha with alpha^2 = rat + coef*sqrt(s)."""
    if coef == 0 or s <= 1:
        form = surd.SurdForm(rat + (coef if s == 1 else 0), Fraction(0), 1)
    else:
        k, sf = surd._squarefree_part(s)
        if sf == 1:
            form = surd.SurdForm(rat + coef * k, Fraction(0), 1)
        else:
            form = surd.SurdForm(rat, coef * k, sf)
    v = form.value()
    if v < -1e-12:
        raise InvalidParametersError(f"negative squared angle {v}")
    return math.sqrt(max(v, 0.0)), surd.display(form)


def _assemble(
    family: str, rule: str, params: dict, n: int, m: int,
    pairs: list[tuple[float, str, int | None]], biangular: bool = True,
) -> AnglePrediction:
    """Sort two (angle, symbolic, stated multiplicity) triples and derive multiplicities.

    The two-angle derivation assumes the frame has exactly these two angles;
    for a pair taken from a frame with more (biangular False) the stated
    counts are the multiplicities, and nothing is derived from the pair.
    """
    pairs = sorted(pairs, key=lambda t: t[0])
    angles = tuple(a for a, _, _ in pairs)
    symbolic = tuple(s for _, s, _ in pairs)
    stated = tuple(t for _, _, t in pairs) if all(t is not None for _, _, t in pairs) else None
    derived = None
    conflict = False
    if not biangular:
        derived = stated
    elif abs(angles[0] - angles[1]) > 1e-12:
        derived = btf_multiplicities_from_angles(n, m, angles[0], angles[1])
        if stated is not None:
            conflict = tuple(stated) != tuple(derived)
    return AnglePrediction(
        family, rule, params, False, angles, symbolic, stated, derived, conflict
    )


def _etf_prediction(family: str, rule: str, params: dict, n: int, m: int) -> AnglePrediction:
    w = welch_bound(n, m)
    sym = surd.display(surd.SurdForm(Fraction(n - m, m * (n - 1)), Fraction(0), 1))
    return AnglePrediction(
        family, rule, params, True, (w,), (sym,), (n - 1,), (n - 1,), False
    )


def _chain_shells(
    n: int, m: int, sizes: tuple[int, ...], lambdas: tuple[int, ...]
) -> dict[Fraction, int]:
    """{squared angle: count} of the chain {0} = A_0 < A_1 < ... < A_t = G.

    sizes are |A_1|, ..., |A_t| and lambdas the count on each annulus
    A_r minus A_{r-1}.  Shell r, r = 0..t-1, holds the n/|A_r| - n/|A_{r+1}|
    character indices trivial on A_r but not on A_{r+1}, and on it
    m^2 alpha^2 = m - lam_1 + sum_{j<=r} (lam_j - lam_{j+1}) |A_j|, one
    running sum.  Empty shells are dropped and equal values merged, first
    occurrence first.
    """
    shells: dict[Fraction, int] = {}
    value, below = m - lambdas[0], 1
    for r, size in enumerate(sizes):
        if r:
            value += (lambdas[r - 1] - lambdas[r]) * below
        count = n // below - n // size
        if count:
            sq = Fraction(value, m * m)
            shells[sq] = shells.get(sq, 0) + count
        below = size
    return shells


def _subgroup_rule(
    family: str, rule: str, params: dict, n: int, m: int, l: int, lam: int, mu: int
) -> AnglePrediction:
    """The chain {0} < H < G, |H| = l, with the paper's stated counts
    n - n/l - 1 and n/l for its shells (which hold n - n/l and n/l - 1)."""
    shells = _chain_shells(n, m, (l, n), (lam, mu))
    if len(shells) == 1:
        return _etf_prediction(family, rule, params, n, m)
    if min(shells) < 0:
        raise InvalidParametersError(f"negative radicand for {params}")
    pairs = [
        (*_surd_angle(sq, Fraction(0), 1), stated)
        for sq, stated in zip(shells, (n - n // l - 1, n // l))
    ]
    return _assemble(family, rule, params, n, m, pairs)


def _conjugate_pair(
    rat: Fraction, coef: Fraction, s: int, stated: int | None
) -> list[tuple[float, str, int | None]]:
    """The two angles with alpha^2 = rat +- coef*sqrt(s), each with the stated count."""
    return [(*_surd_angle(rat, sign * coef, s), stated) for sign in (+1, -1)]


def _check_counts(params: dict, n: int, m: int, l: int, lam: int, mu: int) -> None:
    """The frame's size, then nonnegative counts, then the two-level counting
    identity.

    The m(m - 1) nonzero differences of S fall lam times on each of the
    l - 1 nonzero elements of a witness of size l and mu times on each of
    the other n - l elements.  A count on a level with no elements (lam at
    l = 1, mu at l = n) drops out of the identity, so its sign is checked
    on its own.
    """
    _check_frame_size(n, m)
    if lam < 0 or mu < 0:
        raise InvalidParametersError(f"difference counts must be nonnegative for {params}")
    if m * (m - 1) != lam * (l - 1) + mu * (n - l):
        raise InvalidParametersError(f"counting identity fails for {params}")


def _gaussian_rule(
    family: str, rule: str, params: dict, p: int, m: int, lam: int, mu: int
) -> AnglePrediction:
    """Counts lam on the quadratic residues and mu off them, from the half
    Gauss sums (1 +- sqrt(p))/2: an ETF when lam = mu, else the pair
    alpha^2 = (2m - lam - mu +- (lam - mu) sqrt(p)) / (2 m^2), each (p-1)/2 times."""
    if lam == mu:
        return _etf_prediction(family, rule, params, p, m)
    den = Fraction(1, 2 * m * m)
    pairs = _conjugate_pair((2 * m - lam - mu) * den, (lam - mu) * den, p, (p - 1) // 2)
    return _assemble(family, rule, params, p, m, pairs)


# ---------------------------------------------------------------------------
# Predictors


def dds_angles(n: int, m: int, l: int, lam: int, mu: int) -> AnglePrediction:
    """Angles of the frame generated by an (n,m,l,lam,mu) set relative to a subgroup."""
    params = {"n": n, "m": m, "l": l, "lam": lam, "mu": mu}
    if l < 1 or n % l != 0:
        raise InvalidParametersError(f"l={l} must divide n={n}")
    _check_counts(params, n, m, l, lam, mu)
    return _subgroup_rule("divisible", "divisible-angle-rule", params, n, m, l, lam, mu)


def rds_angles(n: int, m: int, l: int, mu: int) -> AnglePrediction:
    """The divisible rule at lam = 0."""
    params = {"n": n, "m": m, "l": l, "mu": mu}
    if l < 1 or n % l != 0:
        raise InvalidParametersError(f"l={l} must divide n={n}")
    _check_counts(params, n, m, l, 0, mu)
    if l * mu > m:
        raise InvalidParametersError(f"l*mu = {l * mu} exceeds m = {m}")
    return _subgroup_rule("relative", "relative-angle-rule", params, n, m, l, 0, mu)


def pds_angles(n: int, m: int, lam: int, mu: int, zero_in_s: bool) -> AnglePrediction:
    """Two radical angles from the character-sum values over S = -S."""
    params = {"n": n, "m": m, "lam": lam, "mu": mu, "zero_in_s": zero_in_s}
    _check_counts(params, n, m, m if zero_in_s else m + 1, lam, mu)  # witness S + {0}
    if lam == mu:
        return _etf_prediction("partial", "partial-angle-rule", params, n, m)
    gamma = m - lam if zero_in_s else m - mu
    delta = lam - mu
    disc = delta * delta + 4 * gamma
    if disc < 0:
        raise InvalidParametersError(f"negative discriminant for {params}")
    # alpha^2 = (2*gamma + delta^2 +- delta*sqrt(disc)) / (2 m^2)
    den = Fraction(1, 2 * m * m)
    pairs = _conjugate_pair((2 * gamma + delta * delta) * den, delta * den, disc, None)
    return _assemble("partial", "partial-angle-rule", params, n, m, pairs)


def gaussian_angles(p: int, m: int, lam: int, mu: int) -> AnglePrediction:
    """Angles from the half Gauss sum values (1 +- sqrt(p))/2 over the residues."""
    params = {"p": p, "m": m, "lam": lam, "mu": mu}
    if not is_prime(p) or p == 2:
        raise InvalidParametersError(f"p={p} must be an odd prime")
    _check_counts(params, p, m, (p + 1) // 2, lam, mu)  # witness the residues + {0}
    if lam != mu and p % 4 == 3:
        raise InvalidParametersError(
            f"p = 3 mod 4 forces lam = mu; got ({lam}, {mu}) at p={p}"
        )
    return _gaussian_rule("gaussian", "gaussian-angle-rule", params, p, m, lam, mu)


@dataclass(frozen=True)
class NddsPrediction:
    """Angle pair guaranteed by a proper subgroup chain, plus the two-angle verdict."""

    prediction: AnglePrediction
    biangular: bool
    shell_values: tuple[tuple[float, int], ...]  # (squared-value as float, count)


def ndds_angles(chain: NestedChain) -> NddsPrediction:
    """Angles and biangularity verdict for a nested divisible chain.

    The chain's shells (_chain_shells) give every angle with its exact
    multiplicity.  The frame is biangular when they take exactly two
    values; the predicted pair is the first two distinct shell values, and
    one value (constant counts) is a difference set, so an ETF.
    """
    n, m = chain.group.order, len(chain.subset)
    params = {
        "n": n, "m": m, "t": chain.t, "lambdas": list(chain.lambdas), "sizes": list(chain.sizes)
    }
    shells = _chain_shells(n, m, chain.sizes, chain.lambdas)
    if len(shells) == 1:
        pred = _etf_prediction("nested-divisible", "nested-chain-angle-rule", params, n, m)
        return NddsPrediction(pred, False, ((float(pred.angles[0] ** 2), n - 1),))
    biangular = len(shells) == 2
    pairs = [(*_surd_angle(sq, Fraction(0), 1), shells[sq]) for sq in list(shells)[:2]]
    pred = _assemble(
        "nested-divisible", "nested-chain-angle-rule", params, n, m, pairs, biangular
    )
    return NddsPrediction(pred, biangular, tuple(sorted((float(v), c) for v, c in shells.items())))


def quartic_family_angles(p: int, with_zero: bool) -> AnglePrediction | None:
    """The Gaussian rule for the fourth powers of Z_p (with zero), p = 8q+5; None if inapplicable.

    Their counts sum to lam + mu = q + [0 in S] and differ by lam - mu = 0
    under the family's difference-set condition, 1 under its almost condition.
    """
    if not is_prime(p) or p % 8 != 5 or p <= 5:
        return None
    _, difference_set, almost = QUARTIC_FAMILIES[with_zero]
    holds = quartic_conditions(p)
    if not (holds[difference_set] or holds[almost]):
        return None
    m = (p - 1) // 4 + with_zero
    total = (p - 5) // 8 + with_zero
    gap = 0 if holds[difference_set] else 1  # lam - mu
    lam = (total + gap) // 2
    params = {"p": p, "m": m, "with_zero": with_zero}
    return _gaussian_rule("quartic-residue", "quartic-family-rule", params, p, m, lam, total - lam)


# ---------------------------------------------------------------------------
# Tabulated families

TABLE_TOL = 1e-10  # a row's angle column against its predictor


@dataclass(frozen=True)
class TableRow:
    table: str
    row: int
    condition: str
    params: Callable[[dict], tuple[Fraction, ...]]
    alphas: Callable[[dict], tuple[float, float]]
    check: Callable[[dict], str | None]
    samples: tuple[dict, ...]


def _mersenne(v: dict) -> str | None:
    p = v["p"]
    if not is_prime(p) or (p + 1) & p != 0:
        return f"p={p} is not a Mersenne prime"
    return None


def _prime_power_1mod4(v: dict) -> str | None:
    q = v["q"]
    if not is_prime_power(q) or q % 4 != 1:
        return f"q={q} is not a prime power = 1 mod 4"
    return None


def _fr(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def _t2r6_params(v: dict) -> tuple[Fraction, ...]:
    u, w, vv = v["u"], v["w"], v["v"]
    delta = 2 * w * u * u + w * u - 2 * u * vv
    return _fr(
        4 * w * u * u,
        delta,
        w,
        delta - 4 * u * u * vv + 4 * u * u * Fraction(vv * (vv - 1), w - 1),
        delta - w * u * u,
    )


def _t2r6_alphas(v: dict) -> tuple[float, float]:
    u, w, vv = v["u"], v["w"], v["v"]
    eps = 2 * w * u + w - 2 * vv
    return (abs(w - 2 * vv) / eps, math.sqrt(4 * vv * (w - vv) / (w - 1)) / eps)


def _t2r7_params(v: dict) -> tuple[Fraction, ...]:
    q, a, b = v["q"], v["a"], v["b"]
    beta = q ** (2 * b - a - 1)
    delta = Fraction(q ** (a - 1) - 1, q - 1)
    eps = Fraction(q**a - 1, q - 1)
    return _fr(eps * q ** (2 * b - a), eps * beta, q**a, delta * beta, eps * beta / q)


def _t4r6_params(v: dict) -> tuple[Fraction, ...]:
    delta = 3 * v["p"] ** (2 * v["a"])
    eps = Fraction(delta - 3, 2)
    return _fr(delta * delta, eps * (delta + 1), -delta + eps * eps + 3 * eps, eps * eps + eps)


def _t4r6_alphas(v: dict) -> tuple[float, float]:
    delta = 3 * v["p"] ** (2 * v["a"])
    eps = (delta - 3) // 2
    return (1 / (delta + 1), (delta - eps) / (eps * (delta + 1)))


def _t4r7_params(v: dict) -> tuple[Fraction, ...]:
    a = v["a"]
    beta = 2 ** (2 * a - 1) - 2 ** (a - 1)
    delta = 2 ** (a - 1) - 1
    eps = 2**a - 1
    return _fr(2 ** (3 * a), beta * eps, 2 ** (a - 1) + beta * (delta - 1), beta * delta)


def _t4r8_params(v: dict) -> tuple[Fraction, ...]:
    a = v["a"]
    delta = 4 ** (a - 1) - 1
    eps = 4 ** (a - 1)
    return _fr(4 ** (2 * a), (4**a + 1) * delta, eps * eps - 3 * eps - 2, delta * eps)


def _t4r8_alphas(v: dict) -> tuple[float, float]:
    a = v["a"]
    delta = 4 ** (a - 1) - 1
    eps = 4 ** (a - 1)
    return (1 / (4**a + 1), (3 * eps + 1) / (delta * (4**a + 1)))


TABLE_ROWS: tuple[TableRow, ...] = (
    TableRow(
        "dds", 1, "p a Mersenne prime",
        lambda v: _fr(v["p"] ** 2 * (v["p"] + 1), v["p"] * (v["p"] + 1), v["p"] ** 2,
                      v["p"], v["p"] + 1),
        lambda v: (0.0, 1 / (v["p"] + 1)),
        _mersenne,
        ({"p": 3}, {"p": 7}),
    ),
    TableRow(
        "dds", 2, "p a Mersenne prime",
        lambda v: _fr(v["p"] ** 2 * (v["p"] + 1), v["p"] * (2 * v["p"] - 1), v["p"] ** 2,
                      v["p"] * (v["p"] - 1), 3 * (v["p"] - 1)),
        lambda v: ((v["p"] - 2) / (2 * v["p"] - 1), 1 / (2 * v["p"] - 1)),
        _mersenne,
        ({"p": 3}, {"p": 7}),
    ),
    TableRow(
        "dds", 3, "a odd, a > 1",
        lambda v: _fr(4 * v["a"], v["a"] + 2, v["a"], v["a"] - 2, 2),
        lambda v: ((v["a"] - 2) / (v["a"] + 2), 2 / (v["a"] + 2)),
        lambda v: None if v["a"] > 1 and v["a"] % 2 == 1 else f"a={v['a']} not odd > 1",
        ({"a": 3}, {"a": 5}, {"a": 7}),
    ),
    TableRow(
        "dds", 4, "q a prime power, q = 1 mod 4",
        lambda v: _fr(2 * v["q"], v["q"], 2, v["q"] - 1, Fraction(v["q"] - 1, 2)),
        lambda v: (1 / math.sqrt(v["q"]), 1 / v["q"]),
        _prime_power_1mod4,
        ({"q": 5}, {"q": 9}, {"q": 13}),
    ),
    TableRow(
        "dds", 5, "a a positive integer",
        lambda v: _fr(4 * 3 ** (2 * v["a"]), 2 * (3 ** (2 * v["a"]) - 3 ** v["a"]),
                      3 ** (2 * v["a"]), 3 ** (2 * v["a"]) - 2 * 3 ** v["a"],
                      3 ** (2 * v["a"]) - 2 * 3 ** v["a"] + 1),
        lambda v: (0.0, 1 / (2 * (3 ** v["a"] - 1))),
        lambda v: None if v["a"] >= 1 else "a must be positive",
        ({"a": 1}, {"a": 2}),
    ),
    TableRow(
        "dds", 6,
        "a Hadamard-parameter difference set of order 4u^2 and a (w,v)-difference set exist (assumed given)",
        _t2r6_params,
        _t2r6_alphas,
        lambda v: (
            None
            if (v["v"] * (v["v"] - 1)) % (v["w"] - 1) == 0
            else "v(v-1)/(w-1) not integral"
        ),
        ({"u": 1, "v": 3, "w": 7}, {"u": 1, "v": 4, "w": 13}),
    ),
    TableRow(
        "dds", 7, "q a prime power, a <= b, ambient subgroup assumed given",
        _t2r7_params,
        lambda v: (
            0.0,
            v["q"] ** (v["a"] - v["b"]) / ((v["q"] ** v["a"] - 1) / (v["q"] - 1)),
        ),
        lambda v: (
            None
            if is_prime_power(v["q"]) and 1 <= v["a"] <= v["b"] and 2 * v["b"] >= v["a"] + 2
            else "needs q a prime power and a <= b with 2b >= a+2"
        ),
        ({"q": 2, "a": 1, "b": 2}, {"q": 3, "a": 2, "b": 2}),
    ),
    TableRow(
        "rds", 1, "p prime, a <= b",
        lambda v: _fr(v["p"] ** (v["a"] + v["b"]), v["p"] ** v["b"], v["p"] ** v["a"],
                      v["p"] ** (v["b"] - v["a"])),
        lambda v: (0.0, v["p"] ** (-v["b"] / 2)),
        lambda v: (
            None if is_prime(v["p"]) and 1 <= v["a"] <= v["b"] else "needs p prime, a <= b"
        ),
        ({"p": 2, "a": 1, "b": 1}, {"p": 3, "a": 1, "b": 2}, {"p": 2, "a": 2, "b": 2}),
    ),
    TableRow(
        "rds", 2, "Hadamard-parameter difference set assumed given",
        lambda v: _fr(8 * v["u"] ** 2, 4 * v["u"] ** 2, 2, 2 * v["u"] ** 2),
        lambda v: (0.0, 1 / (2 * v["u"])),
        lambda v: None if v["u"] >= 1 else "u must be positive",
        ({"u": 1}, {"u": 2}),
    ),
    TableRow(
        "rds", 3, "Hadamard-parameter difference set assumed given",
        lambda v: _fr(16 * v["u"] ** 2, 8 * v["u"] ** 2, 2, 4 * v["u"] ** 2),
        lambda v: (0.0, math.sqrt(2) / (4 * v["u"])),
        lambda v: None if v["u"] >= 1 else "u must be positive",
        ({"u": 1}, {"u": 2}),
    ),
    TableRow(
        "rds", 4, "q a prime power, d | q-1",
        lambda v: _fr(Fraction(v["q"] ** (v["a"] + 1) - 1, v["d"]), v["q"] ** v["a"],
                      Fraction(v["q"] - 1, v["d"]), v["d"] * v["q"] ** (v["a"] - 1)),
        lambda v: (v["q"] ** (-(v["a"] + 1) / 2), v["q"] ** (-v["a"] / 2)),
        lambda v: (
            None
            if is_prime_power(v["q"]) and v["a"] >= 1 and (v["q"] - 1) % v["d"] == 0
            and (v["q"] - 1) // v["d"] >= 2  # d = q-1 degenerates to an orthobasis adjunct
            else "needs q a prime power, d | q-1, (q-1)/d >= 2"
        ),
        ({"q": 3, "a": 1, "d": 1}, {"q": 4, "a": 1, "d": 1}, {"q": 5, "a": 1, "d": 2}),
    ),
    TableRow(
        "rds", 5, "q and a even, q a prime power",
        lambda v: _fr(
            Fraction(2 * (v["q"] ** (v["a"] + 1) - 1), v["q"] - 1),
            v["q"] ** v["a"],
            2,
            Fraction((v["q"] - 1) * v["q"] ** (v["a"] - 1), 2),
        ),
        lambda v: (v["q"] ** (-(v["a"] + 1) / 2), v["q"] ** (-v["a"] / 2)),
        lambda v: (
            None
            if is_prime_power(v["q"]) and v["q"] % 2 == 0 and v["a"] % 2 == 0 and v["a"] >= 2
            else "needs q, a both even"
        ),
        ({"q": 2, "a": 2}, {"q": 4, "a": 2}),
    ),
    TableRow(
        "pds", 1, "q a prime power, q = 1 mod 4",
        lambda v: _fr(v["q"], Fraction(v["q"] - 1, 2), Fraction(v["q"] - 5, 4),
                      Fraction(v["q"] - 1, 4)),
        lambda v: (1 / (math.sqrt(v["q"]) + 1), 1 / (math.sqrt(v["q"]) - 1)),
        _prime_power_1mod4,
        ({"q": 13}, {"q": 17}, {"q": 9}),
    ),
    TableRow(
        "pds", 2, "a > 1",
        lambda v: _fr(v["a"] ** 2, 2 * (v["a"] - 1), v["a"] - 2, 2),
        lambda v: ((v["a"] - 2) / (2 * (v["a"] - 1)), 1 / (v["a"] - 1)),
        lambda v: None if v["a"] > 1 else "a must exceed 1",
        ({"a": 3}, {"a": 5}),
    ),
    TableRow(
        "pds", 3, "a > 1",
        lambda v: _fr(v["a"] ** 2, 3 * (v["a"] - 1), v["a"], 6),
        lambda v: ((v["a"] - 3) / (3 * (v["a"] - 1)), 1 / (v["a"] - 1)),
        lambda v: None if v["a"] > 1 else "a must exceed 1",
        ({"a": 4}, {"a": 5}),
    ),
    TableRow(
        "pds", 4, "c a product of prime powers, b <= min prime power + 1 (construction assumed given)",
        lambda v: _fr(v["c"] ** 2, v["b"] * (v["c"] - 1),
                      v["c"] + v["b"] ** 2 - 3 * v["b"], v["b"] ** 2 - v["b"]),
        lambda v: (abs(v["c"] - v["b"]) / (v["b"] * (v["c"] - 1)), 1 / (v["c"] - 1)),
        lambda v: None if v["b"] >= 2 and v["c"] > v["b"] else "needs 2 <= b < c",
        ({"c": 4, "b": 3}, {"c": 9, "b": 2}),
    ),
    TableRow(
        "pds", 5, "p an odd prime",
        lambda v: _fr(9 * v["p"] ** (4 * v["a"]), Fraction(9 * v["p"] ** (4 * v["a"]) - 1, 2),
                      Fraction(9 * v["p"] ** (4 * v["a"]) - 5, 4),
                      Fraction(9 * v["p"] ** (4 * v["a"]) - 1, 4)),
        lambda v: (
            1 / (3 * v["p"] ** (2 * v["a"]) + 1),
            1 / (3 * v["p"] ** (2 * v["a"]) - 1),
        ),
        lambda v: (
            None if is_prime(v["p"]) and v["p"] % 2 == 1 and v["a"] >= 1 else "needs p an odd prime"
        ),
        ({"p": 3, "a": 1}, {"p": 5, "a": 1}),
    ),
    TableRow(
        "pds", 6, "p an odd prime",
        _t4r6_params,
        _t4r6_alphas,
        lambda v: (
            None if is_prime(v["p"]) and v["p"] % 2 == 1 and v["a"] >= 1 else "needs p an odd prime"
        ),
        ({"p": 3, "a": 1}, {"p": 5, "a": 1}),
    ),
    TableRow(
        "pds", 7, "a a positive integer",
        _t4r7_params,
        lambda v: (1 / (2 ** v["a"] - 1) ** 2, 1 / (2 ** v["a"] - 1)),
        lambda v: None if v["a"] >= 2 else "a must exceed 1",
        ({"a": 2}, {"a": 3}),
    ),
    TableRow(
        "pds", 8, "a odd, a > 1",
        _t4r8_params,
        _t4r8_alphas,
        lambda v: None if v["a"] > 1 and v["a"] % 2 == 1 else f"a={v['a']} not odd > 1",
        ({"a": 3}, {"a": 5}),
    ),
)


# each table's params tuple: the predictor it feeds, and the tuple as the
# (n, m, l, lam, mu) columns of framelab tables ("" where the table has none)
_TABLE_LAYOUT: dict[str, tuple[Callable[..., AnglePrediction], Callable[..., tuple]]] = {
    "dds": (dds_angles, lambda n, m, l, lam, mu: (n, m, l, lam, mu)),
    "rds": (rds_angles, lambda n, m, l, mu: (n, m, l, 0, mu)),
    "pds": (partial(pds_angles, zero_in_s=False), lambda n, m, lam, mu: (n, m, "", lam, mu)),
}


def get_row(table: str, row: int) -> TableRow:
    for r in TABLE_ROWS:
        if r.table == table and r.row == row:
            return r
    raise InvalidParametersError(f"no row {row} in table {table!r}")


@dataclass(frozen=True)
class RowCheckReport:
    table: str
    row: int
    sample: dict
    skipped: str | None
    params: tuple[int, ...] | None
    table_alphas: tuple[float, float] | None
    predictor_angles: tuple[float, ...] | None
    deviation: float | None
    passed: bool

    def as_dict(self) -> dict:
        return {f.name: _listed(getattr(self, f.name)) for f in fields(self)}

    def columns(self) -> tuple:
        """(n, m, l, lam, mu) of the instantiated parameters; all "" when skipped."""
        return ("",) * 5 if self.params is None else _TABLE_LAYOUT[self.table][1](*self.params)


def table_row_check(table: str, row: int, sample: dict) -> RowCheckReport:
    """Instantiate a table row and compare its angle column with the predictor, to TABLE_TOL."""
    r = get_row(table, row)
    reason = r.check(sample)
    if reason is not None:
        return RowCheckReport(table, row, sample, reason, None, None, None, None, False)
    raw = r.params(sample)
    if any(x.denominator != 1 or x < 0 for x in raw):
        return RowCheckReport(
            table, row, sample, f"parameters not nonnegative integers: {raw}",
            None, None, None, None, False,
        )
    params = tuple(int(x) for x in raw)
    pred = _TABLE_LAYOUT[table][0](*params)
    stated = tuple(sorted(r.alphas(sample)))
    predicted = pred.angles if len(pred.angles) == 2 else (pred.angles[0], pred.angles[0])
    dev = max(abs(a - b) for a, b in zip(stated, predicted))
    return RowCheckReport(
        table, row, sample, None, params, stated, pred.angles, dev, dev <= TABLE_TOL
    )


def run_all_table_checks() -> list[RowCheckReport]:
    """Every row at its built-in sample instantiations."""
    out = []
    for r in TABLE_ROWS:
        for sample in r.samples:
            out.append(table_row_check(r.table, r.row, sample))
    return out
