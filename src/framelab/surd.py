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
surd against it, as frames._with_symbolic does.

Frames with one or two angles need no search: moment_forms gives their
squared angles exactly from two integer moments of the generator subset,
with no bound on the coefficients.  For more angles, or an ambiguous
profile, frames calls recognize_angle at most once per Galois orbit of
characters, on a magnitude one of them has: every angle of the orbit takes
the form found or its conjugate rat - coef*sqrt(surd), whichever
conjugate_form matches within VERIFY_TOL, and an angle matching neither
gets no form.
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


def moment_forms(
    n: int, m: int, Q: int, multiplicities: tuple[int, ...]
) -> tuple[SurdForm, ...] | None:
    """Exact alpha^2 of each angle of a harmonic frame with one or two angles.

    A subset S of m elements of a group of order n, with c_S(d) its ordered
    pairs differing by d and Q = sum_{d != 0} c_S(d)^2, fixes two moments of
    v_x = m^2 |<f_x, f_0>|^2 over the n - 1 characters x != 0: Parseval
    gives sum v_x = nm - m^2 and the fourth-power identity sum v_x^2 =
    n(m^2 + Q) - m^4.  One angle is their mean, (n - m) / (m(n - 1)).  Two
    angles v_1 < v_2, with multiplicities (k_1, k_2) in that order, sit at
    v_1 = mu - sqrt(var k_2 / k_1) and v_2 = mu + sqrt(var k_1 / k_2), mu
    and var the mean and variance of v.  With W = (n - 1)^2 var, an integer,
    the two roots are sqrt(W k_1 k_2) / ((n - 1) k_i), i = 1, 2.

    v lies in Q(zeta_N) with N | n, and so does sqrt(s) for the squarefree
    part s of W k_1 k_2; the conductor of Q(sqrt(s)) then divides n, so no
    prime outside n divides s, and s is read off the primes of n alone (no
    coefficient bound, no search).  None when var < 0 or when W k_1 k_2 / s
    is not a square, or when one angle comes with var != 0: moments that no
    such frame has.
    """
    N = n - 1
    S1 = n * m - m * m
    W = N * (n * (m * m + Q) - m**4) - S1 * S1
    mean = Fraction(S1, N * m * m)
    if len(multiplicities) == 1:
        return (SurdForm(mean, Fraction(0), 1),) if W == 0 else None
    k1, k2 = multiplicities
    if W < 0:
        return None
    X, root, surd = W * k1 * k2, 1, 1  # sqrt(W k1 k2) = root * sqrt(X) * sqrt(surd)
    for p, _ in factorize(n):
        while X and X % (p * p) == 0:
            X //= p * p
            root *= p
        if X and X % p == 0:
            X //= p
            surd *= p
    r = isqrt(X)
    if r * r != X:
        return None
    forms = []
    for k in (-k1, k2):  # v_1 below the mean, v_2 above it
        shift = Fraction(root * r, N * k * m * m)
        if surd == 1:
            forms.append(SurdForm(mean + shift, Fraction(0), 1))
        else:
            forms.append(SurdForm(mean, shift, surd))
    return tuple(forms)


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
