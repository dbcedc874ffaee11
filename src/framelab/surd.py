"""Recognition of angle values as exact quadratic surds.

Frame angles arising from character sums over small groups have squares of
the form r0 + r1*sqrt(s) with rational r0, r1 and squarefree s.  frames
reads them once per Galois orbit of characters.  An orbit's values
m^2 alpha^2 are the conjugates of one algebraic integer, so an orbit of one
or two distinct values gets its form exactly from their sum and product
(orbit_form), with no bound on the coefficients.  Only an orbit of three or
more values goes to recognize_angle, which searches for an integer relation
a*v + b + c*sqrt(s) = 0 with bounded coefficients; failure is silent (the
float value is still reported).  Every angle of the orbit takes the form
found or its conjugate rat - coef*sqrt(surd), whichever conjugate_form
matches within VERIFY_TOL, and an angle matching neither gets no form.

Coefficient bound and acceptance tolerance of the search are coupled: with
coefficients up to 1e4, genuine relations verify to ~1e-15 and most
spurious relations for a random real verify no better than ~1e-12, but the
3e-13 cutoff does not separate the two.  Spurious relations do pass it: the
frame angle of Z14 {0,2,4,7,8,9} near 0.3003 is accepted with sqrt(42),
which cannot occur in Q(zeta_14).  A caller that knows the field the value
lives in must check the surd against it, as frames._with_symbolic does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt, sqrt

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


def orbit_form(values, m: int, n: int) -> SurdForm | None:
    """The exact alpha^2 = v / m^2 of one Galois orbit's values v, or None.

    v = m^2 |<f_x, f_0>|^2 is an algebraic integer, and its values over one
    orbit of characters are its conjugates, so one distinct value is an
    integer and two are the roots (s -+ sqrt(D)) / 2 of t^2 - s t + p, with
    s = lo + hi and p = lo hi integers and D = s^2 - 4p.  sqrt(D) lies in
    Q(zeta_N) with N | n, so no prime outside n divides the squarefree part
    of D: D is read off the primes of n alone, with no coefficient bound and
    no search.  Two conjugates differ by sqrt(D) >= 1, so rounding s and p
    needs no tolerance of its own.  When D is a square the form is the
    rational v = s / 2 (two distinct integer values are no orbit's, and fail
    the check).  The form is kept only when it or its conjugate
    rat - coef*sqrt(surd) matches every value within VERIFY_TOL; None when
    D < 0, when D stripped of the primes of n leaves a non-square, or when a
    value matches neither, as every orbit of three or more distinct values
    does.
    """
    lo, hi = min(values), max(values)
    s, p = round(lo + hi), round(lo * hi)
    X, root, surd = s * s - 4 * p, 1, 1  # sqrt(D) = root * sqrt(X) * sqrt(surd)
    if X < 0:
        return None
    for q, _ in factorize(n):
        while X and X % (q * q) == 0:
            X //= q * q
            root *= q
        if X and X % q == 0:
            X //= q
            surd *= q
    r = isqrt(X)
    if r * r != X:
        return None
    den, k = 2 * m * m, root * r if surd > 1 else 0
    mid, half = s / den, k * sqrt(surd) / den  # alpha^2 = mid -+ half
    if all(abs(abs(v / (m * m) - mid) - half) <= VERIFY_TOL for v in values):
        return SurdForm(Fraction(s, den), Fraction(k, den), surd)
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
