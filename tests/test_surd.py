"""Exact-form recognition of angle values."""

import math
from fractions import Fraction

import pytest
from test_galois import _recognized

from framelab import surd
from framelab.arith import residues
from framelab.frames import FrameSpec, angle_profile, frame_report
from framelab.groups import GroupSpec
from framelab.surd import SurdForm, display, moment_forms, recognize_angle


@pytest.mark.parametrize(
    "alpha,rat,coef,surd",
    [
        (1 / 3, Fraction(1, 9), 0, 1),
        (math.sqrt(5) / 3, Fraction(5, 9), 0, 1),
        (1 / math.sqrt(3), Fraction(1, 3), 0, 1),
        (1 / (math.sqrt(13) + 1), Fraction(7, 72), Fraction(-1, 72), 13),
        (1 / (math.sqrt(13) - 1), Fraction(7, 72), Fraction(1, 72), 13),
        (math.sqrt(88 + 8 * math.sqrt(29)) / 28, Fraction(11, 98), Fraction(1, 98), 29),
        (0.0, Fraction(0), 0, 1),
    ],
)
def test_recognize_known_forms(alpha, rat, coef, surd):
    form = recognize_angle(alpha)
    assert form == SurdForm(Fraction(rat), Fraction(coef), surd)


@pytest.mark.parametrize("alpha", [math.pi / 10, math.e / 10, 0.123456789, 2 * math.cos(2 * math.pi / 9) / 4])
def test_unrecognizable_values_return_none(alpha):
    # the last value is a cubic irrational (a 9th root of unity sum)
    assert recognize_angle(alpha) is None


def test_recognized_value_matches_input():
    for alpha in (1 / 3, 1 / (math.sqrt(13) - 1), math.sqrt(2) / 3):
        form = recognize_angle(alpha)
        assert math.sqrt(form.value()) == pytest.approx(alpha, abs=1e-12)


@pytest.mark.parametrize(
    "form,text",
    [
        (SurdForm(Fraction(1, 9), Fraction(0), 1), "1/3"),
        (SurdForm(Fraction(5, 9), Fraction(0), 1), "sqrt(5)/3"),
        (SurdForm(Fraction(1, 2), Fraction(0), 1), "sqrt(2)/2"),
        (SurdForm(Fraction(0), Fraction(0), 1), "0"),
        (SurdForm(Fraction(7, 72), Fraction(-1, 72), 13), "sqrt(7/72 - sqrt(13)/72)"),
        (SurdForm(Fraction(4, 9), Fraction(0), 1), "2/3"),
    ],
)
def test_display(form, text):
    assert display(form) == text


def test_extra_surd_candidates():
    # a surd beyond the built-in scan range, supplied by the caller
    val = math.sqrt(1 / 40 + math.sqrt(211) / 640)
    assert recognize_angle(val) is None
    form = recognize_angle(val, extra_surds=(211,))
    assert form == SurdForm(Fraction(1, 40), Fraction(1, 640), 211)


def test_paley_angles_keep_their_strings_at_the_coefficient_bound():
    # the squared angles of Z137's quadratic residues are
    # (69 -+ sqrt(137)) / 9248, denominators just inside MAX_COEFF
    p = 137
    residues = sorted({x * x % p for x in range(1, p)})
    f = FrameSpec(GroupSpec((p,)), tuple((x,) for x in residues))
    angles = angle_profile(f, symbolic=True)
    assert angles.d == 2 and all(angles.symbolic)
    for value, text in zip(angles.angles, angles.symbolic):
        assert "9248" in text
        assert abs(eval(text, {"__builtins__": {}, "sqrt": math.sqrt}) - value) <= 1e-12


def _paley(p):
    return FrameSpec(GroupSpec((p,)), tuple((x,) for x in residues(p, 2)))


@pytest.mark.parametrize(
    "p,den",
    [(149, 10952), (197, 19208), (1009, 508032)],  # (p - 1)^2 / 2, past MAX_COEFF
)
def test_paley_angles_keep_their_strings_past_the_coefficient_bound(monkeypatch, p, den):
    # ((p + 1)/2 -+ sqrt(p)) / ((p - 1)^2 / 2), from the two moments alone
    reports = []
    assert _recognized(monkeypatch, lambda: reports.append(frame_report(_paley(p)))) == []
    angles = reports[0]["angles"]
    half = (p + 1) // 2
    assert [a["symbolic"] for a in angles] == [
        f"sqrt({half}/{den} - sqrt({p})/{den})", f"sqrt({half}/{den} + sqrt({p})/{den})"
    ]
    for a in angles:
        value = eval(a["symbolic"], {"__builtins__": {}, "sqrt": math.sqrt})
        assert abs(value * value - a["value"] ** 2) <= 1e-15


@pytest.mark.parametrize(
    "n,m,Q,mults,want",
    [
        (7, 3, 6, (6,), [(Fraction(2, 9), 0, 1)]),  # Z7 {1, 2, 4}: the Welch bound
        (6, 3, 8, (3, 2), [(Fraction(1, 9), 0, 1), (Fraction(1, 3), 0, 1)]),  # Z6 {0, 1, 3}
        (13, 6, 78, (6, 6), [(Fraction(7, 72), Fraction(-1, 72), 13),
                             (Fraction(7, 72), Fraction(1, 72), 13)]),  # Z13 residues
    ],
)
def test_moment_forms(n, m, Q, mults, want):
    assert moment_forms(n, m, Q, mults) == tuple(SurdForm(Fraction(r), Fraction(c), s)
                                                 for r, c, s in want)


def test_moment_forms_reject_moments_no_frame_has():
    # Z6 {0, 1, 3} has Q = 8
    assert moment_forms(6, 3, 7, (3, 2)) is None  # negative variance
    assert moment_forms(6, 3, 10, (3, 2)) is None  # W k1 k2 = 504 = 2^3 3^2 7, 7 outside n = 6
    assert moment_forms(6, 3, 8, (5,)) is None  # one angle with nonzero variance
    # Q = 9 passes here, as the rational forms 1/15 and 2/5; only the
    # comparison with the angles in frames can refuse them
    assert moment_forms(6, 3, 9, (3, 2)) is not None


@pytest.mark.parametrize(
    "group,subset",
    [((6,), ((0,), (1,), (3,))), ((2, 4), ((0, 0), (1, 0), (0, 1))), ((5,), ((0,), (1,))),
     ((13,), tuple((x,) for x in residues(13, 2))), ((7,), ((1,), (2,), (4,)))],
)
@pytest.mark.parametrize("shift", [-1, 1, 2])
def test_corrupted_moments_fall_back_to_the_search(monkeypatch, group, subset, shift):
    # Q off by shift: every form is refused, and the search gives the strings
    f = FrameSpec(GroupSpec(group), subset)
    want = angle_profile(f, symbolic=True).symbolic
    assert _symbolic_with_q_off_by(monkeypatch, f, shift) == (want, True)


def test_corrupted_moments_report_no_wrong_string(monkeypatch):
    # Z149's Paley angles are beyond the search's coefficient bound, so with
    # their moment forms refused the report carries no string at all
    assert _symbolic_with_q_off_by(monkeypatch, _paley(149), 1) == ((None, None), True)


def _symbolic_with_q_off_by(monkeypatch, f, shift):
    """(f's symbolic tuple, whether it called surd.recognize_angle) with
    surd.moment_forms handed Q + shift."""
    exact = surd.moment_forms
    monkeypatch.setattr(surd, "moment_forms", lambda n, m, Q, k: exact(n, m, Q + shift, k))
    got = []
    calls = _recognized(monkeypatch, lambda: got.append(angle_profile(f, symbolic=True).symbolic))
    return got[0], bool(calls)
