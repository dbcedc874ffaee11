"""Closed-form frame-angle predictors and the tabulated parameter families.

Each set class carries a rule mapping its parameters to the frame angles of
the generated harmonic frame.  Angle values are trusted as stated by the
rules; multiplicities are additionally recomputed from the two-angle
tight-sum identity, because the stated n/l count includes the identity
character index while the off-diagonal count excludes it.  Disagreements are
flagged, never silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import surd
from .arith import is_prime, is_prime_power
from .diffsets import NestedChain
from .errors import InvalidParametersError
from .frames import btf_multiplicities_from_angles, welch_bound
from .residues import quartic_conditions


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
            "angles": [
                {"value": a, "symbolic": s}
                for a, s in zip(self.angles, self.symbolic)
            ],
            "stated_multiplicities": (
                None
                if self.stated_multiplicities is None
                else list(self.stated_multiplicities)
            ),
            "derived_multiplicities": (
                None
                if self.derived_multiplicities is None
                else list(self.derived_multiplicities)
            ),
            "multiplicity_conflict": self.multiplicity_conflict,
        }


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
    family: str,
    rule: str,
    params: dict,
    n: int,
    m: int,
    pairs: list[tuple[float, str, int | None]],
    biangular: bool = True,
) -> AnglePrediction:
    """Sort (angle, symbolic, stated multiplicity) triples and derive multiplicities.

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
    elif len(angles) == 2 and abs(angles[0] - angles[1]) > 1e-12:
        derived = btf_multiplicities_from_angles(n, m, angles[0], angles[1])
        if stated is not None:
            conflict = tuple(stated) != tuple(derived)
    elif len(angles) == 1:
        derived = (n - 1,)
    return AnglePrediction(
        family, rule, params, len(angles) == 1, angles, symbolic, stated, derived, conflict
    )


def _etf_prediction(family: str, rule: str, params: dict, n: int, m: int) -> AnglePrediction:
    w = welch_bound(n, m)
    sym = surd.display(surd.SurdForm(Fraction(n - m, m * (n - 1)), Fraction(0), 1))
    return AnglePrediction(
        family, rule, params, True, (w,), (sym,), (n - 1,), (n - 1,), False
    )


# ---------------------------------------------------------------------------
# Predictors


def dds_angles(n: int, m: int, l: int, lam: int, mu: int) -> AnglePrediction:
    """Angles of the frame generated by an (n,m,l,lam,mu) set relative to a subgroup."""
    params = {"n": n, "m": m, "l": l, "lam": lam, "mu": mu}
    if l < 1 or n % l != 0:
        raise InvalidParametersError(f"l={l} must divide n={n}")
    if m * (m - 1) != lam * (l - 1) + mu * (n - l):
        raise InvalidParametersError(f"counting identity fails for {params}")
    if lam == mu:
        return _etf_prediction("divisible", "divisible-angle-rule", params, n, m)
    rad1 = m - lam + l * (lam - mu)
    rad2 = m - lam
    if rad1 < 0 or rad2 < 0:
        raise InvalidParametersError(f"negative radicand for {params}")
    m2 = Fraction(1, m * m)
    a1 = _surd_angle(rad1 * m2, Fraction(0), 1)
    a2 = _surd_angle(rad2 * m2, Fraction(0), 1)
    pairs = [(a1[0], a1[1], n // l), (a2[0], a2[1], n - n // l - 1)]
    return _assemble("divisible", "divisible-angle-rule", params, n, m, pairs)


def rds_angles(n: int, m: int, l: int, mu: int) -> AnglePrediction:
    """Divisible rule at lam = 0; l = 1 collapses to an equiangular frame."""
    params = {"n": n, "m": m, "l": l, "mu": mu}
    if l < 1 or n % l != 0:
        raise InvalidParametersError(f"l={l} must divide n={n}")
    if m * (m - 1) != mu * (n - l):
        raise InvalidParametersError(f"counting identity fails for {params}")
    if l * mu > m:
        raise InvalidParametersError(f"l*mu = {l * mu} exceeds m = {m}")
    if l == 1:
        return _etf_prediction("relative", "relative-angle-rule", params, n, m)
    m2 = Fraction(1, m * m)
    a1 = _surd_angle((m - l * mu) * m2, Fraction(0), 1)
    a2 = _surd_angle(m * m2, Fraction(0), 1)
    pairs = [(a1[0], a1[1], n // l), (a2[0], a2[1], n - n // l - 1)]
    return _assemble("relative", "relative-angle-rule", params, n, m, pairs)


def pds_angles(n: int, m: int, lam: int, mu: int, zero_in_s: bool) -> AnglePrediction:
    """Two radical angles from the character-sum values over S = -S."""
    params = {"n": n, "m": m, "lam": lam, "mu": mu, "zero_in_s": zero_in_s}
    l = m if zero_in_s else m + 1
    if lam == mu:
        if m * (m - 1) != lam * (n - 1):
            raise InvalidParametersError(f"counting identity fails for {params}")
        return _etf_prediction("partial", "partial-angle-rule", params, n, m)
    if m * (m - 1) != lam * (l - 1) + mu * (n - l):
        raise InvalidParametersError(f"counting identity fails for {params}")
    gamma = m - lam if zero_in_s else m - mu
    delta = lam - mu
    disc = delta * delta + 4 * gamma
    if disc < 0:
        raise InvalidParametersError(f"negative discriminant for {params}")
    # alpha^2 = (2*gamma + delta^2 +- delta*sqrt(disc)) / (2 m^2)
    den = Fraction(1, 2 * m * m)
    pairs = []
    for sign in (+1, -1):
        a = _surd_angle((2 * gamma + delta * delta) * den, sign * delta * den, disc)
        pairs.append((a[0], a[1], None))
    return _assemble("partial", "partial-angle-rule", params, n, m, pairs)


def gaussian_angles(p: int, m: int, lam: int, mu: int) -> AnglePrediction:
    """Angles from the half Gauss sum values (1 +- sqrt(p))/2 over the residues."""
    params = {"p": p, "m": m, "lam": lam, "mu": mu}
    if not is_prime(p) or p == 2:
        raise InvalidParametersError(f"p={p} must be an odd prime")
    if 2 * m * (m - 1) != (lam + mu) * (p - 1):
        raise InvalidParametersError(f"counting identity fails for {params}")
    if lam == mu:
        return _etf_prediction("gaussian", "gaussian-angle-rule", params, p, m)
    if p % 4 == 3:
        raise InvalidParametersError(
            f"p = 3 mod 4 forces lam = mu; got ({lam}, {mu}) at p={p}"
        )
    den = Fraction(1, 2 * m * m)
    pairs = []
    for sign in (+1, -1):
        a = _surd_angle(
            (2 * (m - lam) + (lam - mu)) * den, sign * (lam - mu) * den, p
        )
        pairs.append((a[0], a[1], (p - 1) // 2))
    return _assemble("gaussian", "gaussian-angle-rule", params, p, m, pairs)


@dataclass(frozen=True)
class NddsPrediction:
    """Angle pair guaranteed by a proper subgroup chain, plus the two-angle verdict."""

    prediction: AnglePrediction
    biangular: bool
    shell_values: tuple[tuple[float, int], ...]  # (squared-value as float, count)


def ndds_angles(chain: NestedChain, m: int | None = None) -> NddsPrediction:
    """Angles and biangularity verdict for a nested divisible chain.

    The annihilators of the chain subgroups grade the character indices into
    shells of known sizes, which yields exact multiplicities as well.
    """
    if m is None:
        m = len(chain.subset)
    n = chain.group.order
    lambdas = chain.lambdas
    t = chain.t
    sizes = (1,) + chain.sizes  # |A_0|, ..., |A_t|
    m2 = Fraction(1, m * m)

    s = next((j for j in range(1, t) if lambdas[j - 1] != lambdas[j]), None)
    if s is None:
        # constant counts: the chain describes a difference set
        params = {"n": n, "m": m, "t": t, "lambdas": list(lambdas), "sizes": list(sizes[1:])}
        pred = _etf_prediction("nested-divisible", "nested-chain-angle-rule", params, n, m)
        return NddsPrediction(pred, False, ((float(pred.angles[0] ** 2), n - 1),))

    a1_sq = Fraction(m - lambdas[0], 1) * m2
    a2_sq = a1_sq + (lambdas[s - 1] - lambdas[s]) * sizes[s] * m2

    # shell r holds n/|A_r| - n/|A_{r+1}| character indices (r = 0..t-1)
    shell_sq: list[Fraction] = []
    shell_count: list[int] = []
    for r in range(t):
        cnt = n // sizes[r] - n // sizes[r + 1]
        if r < s:
            val = a1_sq
        elif r == s:
            val = a2_sq
        else:
            val = a2_sq + sum(
                (lambdas[j - 1] - lambdas[j]) * sizes[j] * m2 for j in range(s + 1, r + 1)
            )
        shell_sq.append(val)
        shell_count.append(cnt)

    biangular = True
    for r in range(s + 1, t):
        c1 = sum((lambdas[j - 1] - lambdas[j]) * sizes[j] for j in range(s, r + 1))
        c2 = sum((lambdas[j - 1] - lambdas[j]) * sizes[j] for j in range(s + 1, r + 1))
        if c1 != 0 and c2 != 0:
            biangular = False

    agg: dict[Fraction, int] = {}
    for val, cnt in zip(shell_sq, shell_count):
        agg[val] = agg.get(val, 0) + cnt

    params = {"n": n, "m": m, "t": t, "lambdas": list(lambdas), "sizes": list(sizes[1:])}
    pairs = []
    for sq in (a1_sq, a2_sq):
        a, sym = _surd_angle(sq, Fraction(0), 1)
        pairs.append((a, sym, agg.get(sq, 0)))
    pred = _assemble(
        "nested-divisible", "nested-chain-angle-rule", params, n, m, pairs, biangular
    )
    shells = tuple(sorted((float(v), c) for v, c in agg.items()))
    return NddsPrediction(pred, biangular, shells)


def quartic_family_angles(p: int, with_zero: bool) -> AnglePrediction | None:
    """Closed forms for fourth-power subsets of Z_p, p = 8q+5; None if inapplicable."""
    if not is_prime(p) or p % 8 != 5 or p <= 5:
        return None
    m, etf, surd_pair, c = (
        ((p + 3) // 4, "p=4a^2+9, a odd", "p=1+4a^2 or p=49+4a^2", 9) if with_zero
        else ((p - 1) // 4, "p=4a^2+1, a odd", "p=9+4a^2 or p=25+4a^2", 1)
    )
    holds = quartic_conditions(p)
    params = {"p": p, "m": m, "with_zero": with_zero}
    if holds[etf]:
        return _etf_prediction("quartic-residue", "quartic-family-rule", params, p, m)
    if not holds[surd_pair]:
        return None
    den = Fraction(1, (4 * m) ** 2)
    pairs = []
    for sign in (+1, -1):
        a = _surd_angle((3 * p + c) * den, sign * 8 * den, p)
        pairs.append((a[0], a[1], (p - 1) // 2))
    return _assemble("quartic-residue", "quartic-family-rule", params, p, m, pairs)


# ---------------------------------------------------------------------------
# Tabulated families


@dataclass(frozen=True)
class TableRow:
    table: str
    row: int
    condition: str
    family: str  # dds | rds | pds
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
        "dds", 1, "p a Mersenne prime", "dds",
        lambda v: _fr(v["p"] ** 2 * (v["p"] + 1), v["p"] * (v["p"] + 1), v["p"] ** 2,
                      v["p"], v["p"] + 1),
        lambda v: (0.0, 1 / (v["p"] + 1)),
        _mersenne,
        ({"p": 3}, {"p": 7}),
    ),
    TableRow(
        "dds", 2, "p a Mersenne prime", "dds",
        lambda v: _fr(v["p"] ** 2 * (v["p"] + 1), v["p"] * (2 * v["p"] - 1), v["p"] ** 2,
                      v["p"] * (v["p"] - 1), 3 * (v["p"] - 1)),
        lambda v: ((v["p"] - 2) / (2 * v["p"] - 1), 1 / (2 * v["p"] - 1)),
        _mersenne,
        ({"p": 3}, {"p": 7}),
    ),
    TableRow(
        "dds", 3, "a odd, a > 1", "dds",
        lambda v: _fr(4 * v["a"], v["a"] + 2, v["a"], v["a"] - 2, 2),
        lambda v: ((v["a"] - 2) / (v["a"] + 2), 2 / (v["a"] + 2)),
        lambda v: None if v["a"] > 1 and v["a"] % 2 == 1 else f"a={v['a']} not odd > 1",
        ({"a": 3}, {"a": 5}, {"a": 7}),
    ),
    TableRow(
        "dds", 4, "q a prime power, q = 1 mod 4", "dds",
        lambda v: _fr(2 * v["q"], v["q"], 2, v["q"] - 1, Fraction(v["q"] - 1, 2)),
        lambda v: (1 / math.sqrt(v["q"]), 1 / v["q"]),
        _prime_power_1mod4,
        ({"q": 5}, {"q": 9}, {"q": 13}),
    ),
    TableRow(
        "dds", 5, "a a positive integer", "dds",
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
        "dds",
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
        "dds", 7, "q a prime power, a <= b, ambient subgroup assumed given", "dds",
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
        "rds", 1, "p prime, a <= b", "rds",
        lambda v: _fr(v["p"] ** (v["a"] + v["b"]), v["p"] ** v["b"], v["p"] ** v["a"],
                      v["p"] ** (v["b"] - v["a"])),
        lambda v: (0.0, v["p"] ** (-v["b"] / 2)),
        lambda v: (
            None if is_prime(v["p"]) and 1 <= v["a"] <= v["b"] else "needs p prime, a <= b"
        ),
        ({"p": 2, "a": 1, "b": 1}, {"p": 3, "a": 1, "b": 2}, {"p": 2, "a": 2, "b": 2}),
    ),
    TableRow(
        "rds", 2, "Hadamard-parameter difference set assumed given", "rds",
        lambda v: _fr(8 * v["u"] ** 2, 4 * v["u"] ** 2, 2, 2 * v["u"] ** 2),
        lambda v: (0.0, 1 / (2 * v["u"])),
        lambda v: None if v["u"] >= 1 else "u must be positive",
        ({"u": 1}, {"u": 2}),
    ),
    TableRow(
        "rds", 3, "Hadamard-parameter difference set assumed given", "rds",
        lambda v: _fr(16 * v["u"] ** 2, 8 * v["u"] ** 2, 2, 4 * v["u"] ** 2),
        lambda v: (0.0, math.sqrt(2) / (4 * v["u"])),
        lambda v: None if v["u"] >= 1 else "u must be positive",
        ({"u": 1}, {"u": 2}),
    ),
    TableRow(
        "rds", 4, "q a prime power, d | q-1", "rds",
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
        "rds", 5, "q and a even, q a prime power", "rds",
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
        "pds", 1, "q a prime power, q = 1 mod 4", "pds",
        lambda v: _fr(v["q"], Fraction(v["q"] - 1, 2), Fraction(v["q"] - 5, 4),
                      Fraction(v["q"] - 1, 4)),
        lambda v: (1 / (math.sqrt(v["q"]) + 1), 1 / (math.sqrt(v["q"]) - 1)),
        _prime_power_1mod4,
        ({"q": 13}, {"q": 17}, {"q": 9}),
    ),
    TableRow(
        "pds", 2, "a > 1", "pds",
        lambda v: _fr(v["a"] ** 2, 2 * (v["a"] - 1), v["a"] - 2, 2),
        lambda v: ((v["a"] - 2) / (2 * (v["a"] - 1)), 1 / (v["a"] - 1)),
        lambda v: None if v["a"] > 1 else "a must exceed 1",
        ({"a": 3}, {"a": 5}),
    ),
    TableRow(
        "pds", 3, "a > 1", "pds",
        lambda v: _fr(v["a"] ** 2, 3 * (v["a"] - 1), v["a"], 6),
        lambda v: ((v["a"] - 3) / (3 * (v["a"] - 1)), 1 / (v["a"] - 1)),
        lambda v: None if v["a"] > 1 else "a must exceed 1",
        ({"a": 4}, {"a": 5}),
    ),
    TableRow(
        "pds", 4, "c a product of prime powers, b <= min prime power + 1 (construction assumed given)", "pds",
        lambda v: _fr(v["c"] ** 2, v["b"] * (v["c"] - 1),
                      v["c"] + v["b"] ** 2 - 3 * v["b"], v["b"] ** 2 - v["b"]),
        lambda v: (abs(v["c"] - v["b"]) / (v["b"] * (v["c"] - 1)), 1 / (v["c"] - 1)),
        lambda v: None if v["b"] >= 2 and v["c"] > v["b"] else "needs 2 <= b < c",
        ({"c": 4, "b": 3}, {"c": 9, "b": 2}),
    ),
    TableRow(
        "pds", 5, "p an odd prime", "pds",
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
        "pds", 6, "p an odd prime", "pds",
        _t4r6_params,
        _t4r6_alphas,
        lambda v: (
            None if is_prime(v["p"]) and v["p"] % 2 == 1 and v["a"] >= 1 else "needs p an odd prime"
        ),
        ({"p": 3, "a": 1}, {"p": 5, "a": 1}),
    ),
    TableRow(
        "pds", 7, "a a positive integer", "pds",
        _t4r7_params,
        lambda v: (1 / (2 ** v["a"] - 1) ** 2, 1 / (2 ** v["a"] - 1)),
        lambda v: None if v["a"] >= 2 else "a must exceed 1",
        ({"a": 2}, {"a": 3}),
    ),
    TableRow(
        "pds", 8, "a odd, a > 1", "pds",
        _t4r8_params,
        _t4r8_alphas,
        lambda v: None if v["a"] > 1 and v["a"] % 2 == 1 else f"a={v['a']} not odd > 1",
        ({"a": 3}, {"a": 5}),
    ),
)


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
        return {
            "table": self.table,
            "row": self.row,
            "sample": self.sample,
            "skipped": self.skipped,
            "params": None if self.params is None else list(self.params),
            "table_alphas": None if self.table_alphas is None else list(self.table_alphas),
            "predictor_angles": (
                None if self.predictor_angles is None else list(self.predictor_angles)
            ),
            "deviation": self.deviation,
            "passed": self.passed,
        }


def table_row_check(
    table: str, row: int, sample: dict, tol: float = 1e-10
) -> RowCheckReport:
    """Instantiate a table row and compare its angle column with the predictor."""
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
    if r.family == "dds":
        pred = dds_angles(*params)
    elif r.family == "rds":
        pred = rds_angles(*params)
    else:
        pred = pds_angles(*params, zero_in_s=False)
    stated = tuple(sorted(r.alphas(sample)))
    predicted = pred.angles if len(pred.angles) == 2 else (pred.angles[0], pred.angles[0])
    dev = max(abs(a - b) for a, b in zip(stated, predicted))
    return RowCheckReport(
        table, row, sample, None, params, stated, pred.angles, dev, dev <= tol
    )


def run_all_table_checks(tol: float = 1e-10) -> list[RowCheckReport]:
    """Every row at its built-in sample instantiations."""
    out = []
    for r in TABLE_ROWS:
        for sample in r.samples:
            out.append(table_row_check(r.table, r.row, sample, tol))
    return out
