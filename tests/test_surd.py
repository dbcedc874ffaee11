"""Exact-form recognition of angle values."""

import math
from fractions import Fraction

import pytest

from framelab.frames import FrameSpec, angle_profile
from framelab.groups import GroupSpec
from framelab.surd import SurdForm, display, recognize_angle


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
