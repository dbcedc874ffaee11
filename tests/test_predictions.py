"""Closed-form predictors against brute-force angle profiles and the tables."""

import itertools
import math
from functools import partial

import pytest

from framelab import cli
from framelab.arith import residues
from framelab.diffsets import nested_divisible_chain
from framelab.errors import FramelabError, InvalidParametersError
from framelab.frames import FrameSpec, angle_profile
from framelab.groups import parse_group, parse_subset
from framelab.predictions import (
    TABLE_ROWS,
    dds_angles,
    gaussian_angles,
    ndds_angles,
    pds_angles,
    quartic_family_angles,
    rds_angles,
    run_all_table_checks,
    table_row_check,
)
from framelab.residues import quartic_gaussian_ds


def brute_angles(group: str, subset: str) -> tuple[float, ...]:
    g = parse_group(group)
    return angle_profile(FrameSpec(g, parse_subset(g, subset))).angles


def test_dds_z6():
    pred = dds_angles(6, 3, 2, 2, 1)
    assert pred.angles == (pytest.approx(1 / 3), pytest.approx(1 / math.sqrt(3)))
    assert pred.symbolic == ("1/3", "sqrt(3)/3")
    # stated counts pair n/l with the subgroup-sum angle; the identity-free
    # count swaps them, and the disagreement must be flagged
    assert pred.stated_multiplicities == (2, 3)
    assert pred.derived_multiplicities == (3, 2)
    assert pred.multiplicity_conflict
    brute = brute_angles("Z6", "0,1,3")
    assert brute == pytest.approx(pred.angles, abs=1e-10)


def test_dds_etf_branch_and_validation():
    pred = dds_angles(7, 3, 1, 1, 1)
    assert pred.is_etf and pred.angles[0] == pytest.approx(math.sqrt(2) / 3)
    with pytest.raises(InvalidParametersError):
        dds_angles(6, 3, 2, 2, 2)  # counting identity fails
    with pytest.raises(InvalidParametersError):
        dds_angles(6, 3, 4, 2, 1)  # l does not divide n


@pytest.mark.parametrize("l", [1, 7])
def test_dds_with_h_trivial_or_whole_is_an_etf(l):
    # the Fano plane (7, 3, 1) relative to H = {0} or H = G: one shell is
    # empty, and the other holds all six nontrivial characters; the rule once
    # gave two angles with stated multiplicities [7, -1] at l = 1
    lam, mu = (0, 1) if l == 1 else (1, 0)
    pred = dds_angles(7, 3, l, lam, mu)
    assert pred.is_etf and pred.angles == (pytest.approx(math.sqrt(2) / 3),)
    assert pred.stated_multiplicities == pred.derived_multiplicities == (6,)
    assert brute_angles("Z7", "1,2,4") == pytest.approx(pred.angles, abs=1e-12)


def test_rds_with_mu_zero_is_an_etf():
    # mu = 0 forces m = 1: both shells share the value m, so one angle, 1
    pred = rds_angles(4, 1, 2, 0)
    assert pred.is_etf and pred.angles == (1.0,) and pred.derived_multiplicities == (3,)


def test_rds_z8():
    pred = rds_angles(8, 3, 2, 1)
    assert pred.angles == (pytest.approx(1 / 3), pytest.approx(1 / math.sqrt(3)))
    assert pred.multiplicity_conflict  # same identity-index discrepancy as dds
    assert brute_angles("Z8", "0,1,3") == pytest.approx(pred.angles, abs=1e-10)


def test_rds_validation_and_etf():
    with pytest.raises(InvalidParametersError):
        rds_angles(4, 2, 2, 2)  # l*mu > m
    pred = rds_angles(7, 3, 1, 1)
    assert pred.is_etf


def test_rds_table3_row1_instance():
    pred = rds_angles(4, 2, 2, 1)
    assert pred.angles == (pytest.approx(0.0), pytest.approx(1 / math.sqrt(2)))


def test_pds_paley13():
    pred = pds_angles(13, 6, 2, 3, zero_in_s=False)
    want = sorted((1 / (math.sqrt(13) + 1), 1 / (math.sqrt(13) - 1)))
    assert pred.angles == pytest.approx(tuple(want), abs=1e-14)
    assert pred.symbolic == ("sqrt(7/72 - sqrt(13)/72)", "sqrt(7/72 + sqrt(13)/72)")
    qr = ",".join(str(r) for r in residues(13, 2))
    assert brute_angles("Z13", qr) == pytest.approx(pred.angles, abs=1e-10)


def test_pds_with_zero():
    # QR(13) + {0}: a reversible (13,7,4,3) partial difference set
    pred = pds_angles(13, 7, 4, 3, zero_in_s=True)
    qr0 = "0," + ",".join(str(r) for r in residues(13, 2))
    assert brute_angles("Z13", qr0) == pytest.approx(pred.angles, abs=1e-10)


def test_gaussian_13():
    pred = gaussian_angles(13, 3, 0, 1)
    S, _ = quartic_gaussian_ds(13)
    brute = brute_angles("Z13", ",".join(str(x[0]) for x in S))
    assert brute == pytest.approx(pred.angles, abs=1e-10)
    assert pred.stated_multiplicities == (6, 6)
    assert not pred.multiplicity_conflict


def test_gaussian_29_larger_on_residues():
    # counts fall 2 on the residues, 1 off them; the formula keeps that order
    S, (lam, mu) = quartic_gaussian_ds(29)
    assert (lam, mu) == (2, 1)
    pred = gaussian_angles(29, 7, lam, mu)
    brute = brute_angles("Z29", ",".join(str(x[0]) for x in S))
    assert brute == pytest.approx(pred.angles, abs=1e-10)


def test_gaussian_validation():
    with pytest.raises(InvalidParametersError):
        gaussian_angles(7, 3, 0, 1)  # p = 3 mod 4 cannot be two-angle
    with pytest.raises(InvalidParametersError):
        gaussian_angles(13, 4, 0, 1)  # counting identity fails


def _predictor_grid():
    """Every predictor at every argument tuple over a few values; n (or p) and m lead."""
    values = (-1, 0, 1, 2, 3, 7)
    for args in itertools.product(values, repeat=5):
        yield dds_angles, args
    for args in itertools.product(values, repeat=4):
        yield rds_angles, args
        yield partial(pds_angles, zero_in_s=False), args
        yield partial(pds_angles, zero_in_s=True), args
        yield gaussian_angles, args


def test_predictors_return_only_for_frames_that_exist():
    returned = 0
    for predictor, args in _predictor_grid():
        try:
            predictor(*args)
        except FramelabError:
            continue
        n, m = args[:2]
        assert n >= 2 and 1 <= m <= n, (predictor, args)
        returned += 1
    assert returned > 0


@pytest.mark.parametrize("argv", [
    # no such frame exists: no traceback and no printed angles
    "predict dds -n 1 -m 0 -l 1 --lam 0 --mu 0",
    "predict dds -n 0 -m 0 -l 1 --lam 0 --mu 0",
    "predict pds -n 0 -m 0 --lam 1 --mu 0",
    "predict pds -n -1 -m 1 --lam 2 --mu 0 --zero-in-s",
])
def test_predict_outside_the_frame_domain_is_a_domain_error(argv, capsys):
    assert cli.main(argv.split()) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: a frame needs")


def test_ndds_z2z4():
    g = parse_group("Z2xZ4")
    S = parse_subset(g, "(0,0),(1,0),(0,1)")
    chain = nested_divisible_chain(g, S)
    res = ndds_angles(chain)
    assert res.biangular
    assert res.prediction.angles == (
        pytest.approx(1 / 3),
        pytest.approx(math.sqrt(5) / 3),
    )
    assert res.prediction.stated_multiplicities == (5, 2)
    assert brute_angles("Z2xZ4", "(0,0),(1,0),(0,1)") == pytest.approx(
        res.prediction.angles, abs=1e-10
    )


def test_ndds_t2_matches_dds():
    g = parse_group("Z6")
    chain = nested_divisible_chain(g, parse_subset(g, "0,1,3"))
    res = ndds_angles(chain)
    assert res.biangular  # vacuous r-range at t = 2
    dds = dds_angles(6, 3, 2, 2, 1)
    assert res.prediction.angles == pytest.approx(dds.angles)
    # chain shell counts give the identity-free multiplicities directly
    assert res.prediction.stated_multiplicities == (3, 2)


def test_quartic_family():
    pred29 = quartic_family_angles(29, with_zero=False)
    want = sorted(
        (math.sqrt(88 - 8 * math.sqrt(29)) / 28, math.sqrt(88 + 8 * math.sqrt(29)) / 28)
    )
    assert pred29.angles == pytest.approx(tuple(want), abs=1e-14)
    assert pred29.stated_multiplicities == (14, 14)

    pred13 = quartic_family_angles(13, with_zero=False)
    want13 = sorted(
        (math.sqrt(40 - 8 * math.sqrt(13)) / 12, math.sqrt(40 + 8 * math.sqrt(13)) / 12)
    )
    assert pred13.angles == pytest.approx(tuple(want13), abs=1e-14)
    # same values as the residue-split rule at (13, 3, 0, 1)
    assert pred13.angles == pytest.approx(gaussian_angles(13, 3, 0, 1).angles, abs=1e-12)

    assert quartic_family_angles(13, with_zero=True).is_etf
    assert quartic_family_angles(37, with_zero=False).is_etf
    assert quartic_family_angles(53, with_zero=False) is None  # 53 in neither family
    assert quartic_family_angles(53, with_zero=True) is not None  # 53 = 49 + 4
    assert quartic_family_angles(17, with_zero=False) is None  # 17 = 1 mod 8


def test_quartic_family_against_brute_force():
    for p, with_zero in [(13, False), (29, False), (53, True)]:
        pred = quartic_family_angles(p, with_zero)
        S, _ = quartic_gaussian_ds(p, with_zero)
        brute = brute_angles(f"Z{p}", ",".join(str(x[0]) for x in S))
        assert brute == pytest.approx(pred.angles, abs=1e-8)


def test_tables_all_rows_pass_two_instantiations():
    reports = run_all_table_checks()
    seen: dict[tuple, int] = {}
    for rep in reports:
        assert rep.passed, rep
        key = (rep.table, rep.row)
        seen[key] = seen.get(key, 0) + 1
    expected_rows = {(r.table, r.row) for r in TABLE_ROWS}
    assert set(seen) == expected_rows
    assert all(v >= 2 for v in seen.values())


def test_table_row_check_skip_reason():
    rep = table_row_check("dds", 1, {"p": 5})  # 5 is not Mersenne
    assert not rep.passed and "Mersenne" in rep.skipped
    rep = table_row_check("dds", 3, {"a": 4})
    assert not rep.passed and rep.skipped


def test_predictions_satisfy_tight_sum():
    # tau1 a1^2 + tau2 a2^2 = (n-m)/m when multiplicities come from the identity
    cases = [
        dds_angles(6, 3, 2, 2, 1),
        rds_angles(8, 3, 2, 1),
        gaussian_angles(13, 3, 0, 1),
        pds_angles(13, 6, 2, 3, zero_in_s=False),
    ]
    for pred in cases:
        n, m = (pred.params.get("n") or pred.params["p"]), pred.params["m"]
        total = sum(
            t * a * a for a, t in zip(pred.angles, pred.derived_multiplicities)
        )
        assert total == pytest.approx((n - m) / m, abs=1e-10)


def test_paley_predictor_oracle_to_61():
    from framelab.arith import is_prime
    from framelab.frames import welch_bound

    for p in range(5, 62):
        if not is_prime(p):
            continue
        qr = ",".join(str(r) for r in residues(p, 2))
        brute = brute_angles(f"Z{p}", qr)
        if p % 4 == 1:
            pred = pds_angles(p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4, zero_in_s=False)
            assert brute == pytest.approx(pred.angles, abs=1e-8)
        else:
            assert len(brute) == 1
            assert brute[0] == pytest.approx(welch_bound(p, (p - 1) // 2), abs=1e-8)


def test_ndds_non_biangular_shells_match_brute_force():
    g = parse_group("Z2xZ4")
    S = parse_subset(g, "(0,0),(0,1),(0,2),(1,0)")
    res = ndds_angles(nested_divisible_chain(g, S))
    assert not res.biangular
    prof = angle_profile(FrameSpec(g, S))
    assert len(res.shell_values) == prof.d == 3
    for (sq, cnt), a, t in zip(res.shell_values, prof.angles, prof.multiplicities):
        assert math.sqrt(sq) == pytest.approx(a, abs=1e-9)
        assert cnt == t
    # the guaranteed angle pair occurs among the frame angles
    for a in res.prediction.angles:
        assert any(abs(a - b) < 1e-9 for b in prof.angles)


def test_ndds_three_angle_chain_takes_shell_multiplicities():
    # lambdas (3, 0, 1), sizes (3, 6, 12): the pair's two-angle derivation
    # gives 8.67 and 2.33, which once made predict ndds exit 1
    g = parse_group("Z3xZ4")
    S = parse_subset(g, "(0,0),(0,1),(1,0),(2,0)")
    res = ndds_angles(nested_divisible_chain(g, S))
    assert not res.biangular
    prof = angle_profile(FrameSpec(g, S))
    assert prof.angles == pytest.approx((0.25, 0.5, math.sqrt(10) / 4), abs=1e-12)
    assert prof.multiplicities == (8, 1, 2)
    assert len(res.shell_values) == prof.d
    for (sq, cnt), a, t in zip(res.shell_values, prof.angles, prof.multiplicities):
        assert math.sqrt(sq) == pytest.approx(a, abs=1e-9)
        assert cnt == t
    pred = res.prediction
    assert pred.angles == pytest.approx((0.25, math.sqrt(10) / 4))
    assert pred.stated_multiplicities == pred.derived_multiplicities == (8, 2)
    assert not pred.multiplicity_conflict
