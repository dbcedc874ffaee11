"""Recognition of angle values as exact quadratic surds.

Frame angles arising from character sums over small groups have squares of
the form r0 + r1*sqrt(s) with small rational r0, r1 and squarefree s.  The
recognizer searches for an integer relation a*v + b + c*sqrt(s) = 0 with
bounded coefficients; failure is silent (the float value is still reported).

Coefficient bound and acceptance tolerance are coupled: with coefficients up
to 1e4, genuine relations verify to ~1e-15 and most spurious relations for a
random real verify no better than ~1e-12, but the 3e-13 cutoff does not
separate the two.  Spurious relations do pass it: the frame angle of Z14
{0,2,4,7,8,9} near 0.3003 is accepted with sqrt(42), which cannot occur in
Q(zeta_14).  A caller that knows the field the value lives in must check the
surd against it, as frames.angle_profile does.

Frame angles come in Galois orbits, and frames calls recognize_angle once
per orbit: the other angles of the orbit take the form found or its
conjugate rat - coef*sqrt(surd), whichever conjugate_form matches within
VERIFY_TOL, and only an angle matching neither is searched on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import sqrt

from .arith import factorize

MAX_COEFF = 10**4
VERIFY_TOL = 3e-13


@dataclass(frozen=True)
class SurdForm:
    """alpha^2 = rat + coef * sqrt(surd), with surd squarefree (1 = rational)."""

    rat: Fraction
    coef: Fraction
    surd: int

    def value(self) -> float:
        return float(self.rat) + float(self.coef) * sqrt(self.surd)


def _squarefree_part(n: int) -> tuple[int, int]:
    """n = k^2 * s with s squarefree; returns (k, s)."""
    if n == 0:
        return 1, 0
    k = s = 1
    for p, e in factorize(n):
        k *= p ** (e // 2)
        s *= p ** (e % 2)
    return k, s


def _squarefree_candidates(limit: int) -> list[int]:
    return [s for s in range(2, limit + 1) if _squarefree_part(s)[1] == s]


_CANDIDATES = _squarefree_candidates(200)


def recognize_angle(alpha: float, extra_surds: tuple[int, ...] = ()) -> SurdForm | None:
    """Try to express alpha^2 as rat + coef*sqrt(s); None when unrecognized."""
    if not (0.0 <= alpha <= 1.0 + 1e-12):
        return None
    v = alpha * alpha
    rat = Fraction(v).limit_denominator(MAX_COEFF)
    if abs(float(rat) - v) <= VERIFY_TOL:
        return SurdForm(rat, Fraction(0), 1)
    import mpmath  # loaded on the first irrational angle, not with the package

    surds = list(_CANDIDATES)
    for s in extra_surds:
        _, sf = _squarefree_part(s)
        if sf > 1 and sf not in surds:
            surds.append(sf)
    with mpmath.workdps(25):
        for s in sorted(set(surds)):
            rel = mpmath.pslq(
                [mpmath.mpf(v), mpmath.mpf(1), mpmath.sqrt(s)],
                tol=mpmath.mpf(1e-14),
                maxcoeff=MAX_COEFF,
            )
            if rel is None or rel[0] == 0:
                continue
            a, b, c = (int(t) for t in rel)
            form = SurdForm(Fraction(-b, a), Fraction(-c, a), s)
            if abs(form.value() - v) <= VERIFY_TOL and form.coef != 0:
                return form
    return None


def conjugate_form(form: SurdForm, alpha: float) -> SurdForm | None:
    """form or its conjugate rat - coef*sqrt(surd), whichever equals alpha^2
    within VERIFY_TOL; None when neither does."""
    v = alpha * alpha
    for fm in (form, replace(form, coef=-form.coef)):
        if abs(fm.value() - v) <= VERIFY_TOL:
            return fm
    return None


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_sqrt_str(coef: Fraction, s: int) -> str:
    if s <= 1 or coef == 0:
        return _frac_str(coef if s != 0 else Fraction(0))
    core = f"sqrt({s})"
    if coef == 1:
        return core
    if coef.numerator == 1:
        return f"{core}/{coef.denominator}"
    if coef.denominator == 1:
        return f"{coef.numerator}*{core}"
    return f"{coef.numerator}*{core}/{coef.denominator}"


def display(form: SurdForm) -> str:
    """Human-readable exact form of alpha itself where it denests, else of alpha^2."""
    if form.coef == 0:
        # alpha = sqrt(p/q) = k*sqrt(s)/q after extracting square parts
        p, q = form.rat.numerator, form.rat.denominator
        if p == 0:
            return "0"
        k, s = _squarefree_part(p * q)
        return _coeff_sqrt_str(Fraction(k, q), s)
    rat, coef = form.rat, form.coef
    sign = "+" if coef > 0 else "-"
    return f"sqrt({_frac_str(rat)} {sign} {_coeff_sqrt_str(abs(coef), form.surd)})"
