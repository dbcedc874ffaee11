"""Exact-form recognition of angle values."""

import math
from fractions import Fraction

import pytest
from test_galois import _recognized

from framelab import frames, surd
from framelab.arith import residues
from framelab.frames import FrameSpec, angle_profile, frame_report
from framelab.groups import GroupSpec, galois_orbits
from framelab.surd import SurdForm, display, orbit_form, recognize_angle


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
    # ((p + 1)/2 -+ sqrt(p)) / ((p - 1)^2 / 2), read off the one Galois
    # orbit's two values (surd.orbit_form), with no search
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


@pytest.mark.parametrize("p,den", [(197, 19208), (1009, 508032)])
def test_three_angles_on_orbits_of_two_values_keep_their_strings(monkeypatch, p, den):
    # Z3 x Z_p with S = Z3 x the squares: the angle 0 on the characters
    # nontrivial on Z3, and Z_p's Paley pair on the rest; no orbit holds
    # three values, so nothing is searched, and the pair's denominators are
    # past the search's MAX_COEFF
    f = FrameSpec(GroupSpec((3, p)), tuple((a, x) for a in range(3) for x in residues(p, 2)))
    got = []
    assert _recognized(monkeypatch, lambda: got.append(angle_profile(f, symbolic=True))) == []
    half = (p + 1) // 2
    assert got[0].symbolic == (
        "0", f"sqrt({half}/{den} - sqrt({p})/{den})", f"sqrt({half}/{den} + sqrt({p})/{den})"
    )


def _cyclic(n, xs):
    return FrameSpec(GroupSpec((n,)), tuple((x,) for x in xs))


@pytest.mark.parametrize(
    "f,want,text",
    [
        (_cyclic(7, (1, 2, 4)), [(Fraction(2, 9), 0, 1)], ("sqrt(2)/3",)),  # the Welch bound
        (_cyclic(6, (0, 1, 3)), [(Fraction(1, 9), 0, 1), (Fraction(1, 3), 0, 1)],
         ("1/3", "sqrt(3)/3")),
        (_paley(13), [(Fraction(7, 72), Fraction(-1, 72), 13), (Fraction(7, 72), Fraction(1, 72), 13)],
         ("sqrt(7/72 - sqrt(13)/72)", "sqrt(7/72 + sqrt(13)/72)")),
    ],
    ids=["Z7-1,2,4", "Z6-0,1,3", "Z13-squares"],
)
def test_one_and_two_angle_frames_take_their_orbit_forms(monkeypatch, f, want, text):
    # every Galois orbit of these frames has one or two values, so each angle
    # takes its exact form from surd.orbit_form and nothing is searched
    mags = frames.angle_magnitudes(f)
    prof = angle_profile(f)
    got = []
    assert _recognized(monkeypatch, lambda: got.append(frames._recognized_forms(f, prof, mags))) == []
    assert got[0] == [SurdForm(Fraction(r), Fraction(c), s) for r, c, s in want]
    assert angle_profile(f, symbolic=True).symbolic == text


def _orbit_values(f):
    """v = m^2 alpha^2 on each Galois orbit of f's characters, as lists."""
    mags = frames.angle_magnitudes(f)
    orbit = galois_orbits(f.group)[1:]
    return [((f.m * mags[orbit == o]) ** 2).tolist() for o in sorted(set(orbit.tolist()))]


GOLDEN = (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2  # roots of t^2 - 3t + 1


def test_orbit_form_reads_two_conjugates_off_their_sum_and_product():
    assert orbit_form(list(GOLDEN), 1, 5) == SurdForm(Fraction(3, 2), Fraction(1, 2), 5)
    assert orbit_form([4.0, 4.0], 3, 6) == SurdForm(Fraction(4, 9), Fraction(0), 1)
    (values,) = _orbit_values(_paley(13))
    assert orbit_form(values, 6, 13) == SurdForm(Fraction(7, 72), Fraction(1, 72), 13)


def test_orbit_form_refuses_three_values():
    # the middle value is neither root of t^2 - 3t + 1, though the extremes are
    assert orbit_form([GOLDEN[0], 1.0, GOLDEN[1]], 1, 5) is None
    # Z9 {0, 1, 3, 4}: the orbit of order 9 holds three cubic conjugates
    orders_9, orders_3 = _orbit_values(_cyclic(9, (0, 1, 3, 4)))
    assert len({round(v, 9) for v in orders_9}) == 3
    assert orbit_form(orders_9, 4, 9) is None
    assert orbit_form(orders_3, 4, 9) == SurdForm(Fraction(1, 4), Fraction(0), 1)


@pytest.mark.parametrize("at", [0, 1, -1])
def test_orbit_form_refuses_a_value_moved_off_its_form(at):
    (values,) = _orbit_values(_paley(13))
    values[values.index(sorted(values)[at])] += 36 * 1e-11  # alpha^2 moved by 1e-11
    assert orbit_form(values, 6, 13) is None


def test_orbit_form_refuses_a_remainder_that_is_not_a_square():
    # D = 5 has no square factor over the primes of n = 6, and 5 is no square
    assert orbit_form(list(GOLDEN), 1, 6) is None
    assert orbit_form(list(GOLDEN), 1, 10) == SurdForm(Fraction(3, 2), Fraction(1, 2), 5)


@pytest.mark.parametrize(
    "group,subset",
    [((6,), ((0,), (1,), (3,))), ((2, 4), ((0, 0), (1, 0), (0, 1))), ((5,), ((0,), (1,))),
     ((13,), tuple((x,) for x in residues(13, 2))), ((7,), ((1,), (2,), (4,)))],
)
@pytest.mark.parametrize("shift", [-1, 1, 2])
def test_corrupted_moments_fall_back_to_the_search(monkeypatch, group, subset, shift):
    # values off by shift / 1000: the rule refuses every orbit, and the
    # search gives the strings
    f = FrameSpec(GroupSpec(group), subset)
    want = angle_profile(f, symbolic=True).symbolic
    assert _symbolic_with_values_off_by(monkeypatch, f, shift) == (want, True)


def test_corrupted_moments_report_no_wrong_string(monkeypatch):
    # Z149's Paley angles are beyond the search's coefficient bound, so with
    # its orbit refused the report carries no string at all
    assert _symbolic_with_values_off_by(monkeypatch, _paley(149), 1) == ((None, None), True)


def _symbolic_with_values_off_by(monkeypatch, f, shift):
    """(f's symbolic tuple, whether it called surd.recognize_angle) with every
    value handed to surd.orbit_form moved by shift / 1000, so that the two
    moments it reads, the sum and product of the orbit's extremes, are off."""
    exact = surd.orbit_form
    monkeypatch.setattr(surd, "orbit_form", lambda v, m, n: exact([x + shift / 1000 for x in v], m, n))
    got = []
    calls = _recognized(monkeypatch, lambda: got.append(angle_profile(f, symbolic=True).symbolic))
    return got[0], bool(calls)
