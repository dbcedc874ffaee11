"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with -s or
-rA to see them); tolerances and runtime bounds are asserted as stated, never
loosened.  The same checks are reachable from the command line via
`framelab verify <suite>`.
"""

import math
import time

import pytest

from framelab.diffsets import classify
from framelab.frames import FrameSpec, angle_profile, btf_multiplicities_from_angles
from framelab.groups import GroupSpec, parse_group, parse_subset
from framelab.predictions import TABLE_TOL, dds_angles, run_all_table_checks
from framelab.residues import paley_pds, quartic_gaussian_ds
from framelab.search import cross_group_angle_match
from framelab.verify import (
    GAUSS_MAX_P,
    MODULATION_MAX_ORDER,
    MODULATION_TRIALS,
    suite_etf_difference,
    suite_exhaustion_order8,
    suite_gauss_sums,
    suite_modulation,
    suite_paley,
    suite_properties,
    suite_quartic,
    suite_quartic_special,
    suite_z6_example,
    suite_z9_example,
)


def _assert_all(results, criterion: str):
    failed = [r for r in results if not r.passed]
    assert not failed, f"{criterion}: " + "; ".join(f"{r.name} ({r.detail})" for r in failed)
    print(f"PASS {criterion}")


def test_criterion_1_exhaustion_order8():
    t0 = time.perf_counter()
    results = suite_exhaustion_order8()
    elapsed = time.perf_counter() - t0
    counts = cross_group_angle_match(8, 3, (1 / 3, math.sqrt(5) / 3))
    by_name = {g["group"]: g["match_count"] for g in counts["groups"]}
    assert by_name == {"Z2xZ2xZ2": 0, "Z2xZ4": 32, "Z8": 16}
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _assert_all(results, "criterion 1: order-8 exhaustion 0/32/16, proper chains, no bidifference sets")


def test_criterion_2_z6_example():
    t0 = time.perf_counter()
    results = suite_z6_example()
    elapsed = time.perf_counter() - t0
    # direct checks at the stated tolerance
    g = parse_group("Z6")
    S = parse_subset(g, "0,1,3")
    cls = classify(g, S)
    d = cls.divisible
    assert (cls.n, cls.m, d.l, d.lam, d.mu) == (6, 3, 2, 2, 1)
    prof = angle_profile(FrameSpec(g, S))
    pred = dds_angles(6, 3, 2, 2, 1)
    assert max(abs(a - b) for a, b in zip(prof.angles, pred.angles)) <= 1e-10
    assert prof.angles == pytest.approx((1 / 3, 1 / math.sqrt(3)))
    assert prof.multiplicities == (3, 2)
    assert btf_multiplicities_from_angles(6, 3, *prof.angles) == (3, 2)
    assert pred.multiplicity_conflict, "stated-vs-counted discrepancy must be flagged"
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    _assert_all(results, "criterion 2: Z6 divisible (6,3,2,2,1), angles {1/3, 1/sqrt(3)}, counted (3,2), tau discrepancy flagged")


def test_criterion_3_z9_counterexample():
    t0 = time.perf_counter()
    results = suite_z9_example()
    elapsed = time.perf_counter() - t0
    g = parse_group("Z9")
    S = parse_subset(g, "0,1,3,4")
    cls = classify(g, S)
    assert cls.proper_bidifference
    wit = next(w for w in cls.bidifference_witnesses if (w.lam, w.mu) == (2, 1))
    assert (cls.n, cls.m, wit.lam, wit.mu) == (9, 4, 2, 1)
    # the witness size is 5 = |{0,1,3,6,8}|; the counting identity excludes 4
    assert wit.l == 5
    assert angle_profile(FrameSpec(g, S)).d == 4
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    _assert_all(results, "criterion 3: Z9 {0,1,3,4} bidifference (9,4,*,2,1) yet 4-angular")


def test_criterion_4_etf_iff_difference_set():
    t0 = time.perf_counter()
    results = suite_etf_difference(max_order=10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _assert_all(results, "criterion 4: ETF <=> difference set, all subsets, orders 2..10")


def test_criterion_5_paley_family():
    t0 = time.perf_counter()
    results = suite_paley()
    elapsed = time.perf_counter() - t0
    for p in (13, 17, 29, 37, 41):
        S, cls = paley_pds(p)
        assert (cls.n, cls.m, cls.partial.lam, cls.partial.mu) == (
            p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4,
        )
        prof = angle_profile(FrameSpec(GroupSpec((p,)), S))
        want = sorted((1 / (math.sqrt(p) + 1), 1 / (math.sqrt(p) - 1)))
        assert max(abs(a - b) for a, b in zip(prof.angles, want)) <= 1e-9
    for p in (7, 11, 19, 23):
        _, cls = paley_pds(p)
        assert cls.difference_set_lambda == (p - 3) // 4
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _assert_all(results, "criterion 5: Paley residue sets, params and 1/(sqrt(p)+-1) angles")


def test_criterion_6_gauss_sums():
    t0 = time.perf_counter()
    assert GAUSS_MAX_P == 97
    results = suite_gauss_sums()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _assert_all(results, "criterion 6: quadratic and half Gauss sums vs closed forms, p <= 97")


def test_criterion_7_quartic_construction():
    t0 = time.perf_counter()
    results = suite_quartic()
    elapsed = time.perf_counter() - t0
    for p in (13, 29, 37, 53, 61):
        _, (lam, mu) = quartic_gaussian_ds(p)
        assert lam + mu == (p - 5) // 8
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _assert_all(results, "criterion 7: quartic residues, lam+mu = (p-5)/8, memberships, angles")


def test_criterion_8_quartic_special_cases():
    results = suite_quartic_special()
    g37 = GroupSpec((37,))
    S37, _ = quartic_gaussian_ds(37)
    assert classify(g37, S37).difference_set_lambda == 2
    S29, _ = quartic_gaussian_ds(29)
    cls29 = classify(GroupSpec((29,)), S29)
    assert cls29.almost is not None and (cls29.almost.lam, cls29.almost.t) == (1, 14)
    prof = angle_profile(FrameSpec(GroupSpec((29,)), S29))
    want = sorted(
        (math.sqrt(88 - 8 * math.sqrt(29)) / 28, math.sqrt(88 + 8 * math.sqrt(29)) / 28)
    )
    assert max(abs(a - b) for a, b in zip(prof.angles, want)) <= 1e-8
    _assert_all(results, "criterion 8: p=37 difference set (37,9,2); p=29 almost set with (1/28)sqrt(88+-8sqrt(29))")


def test_criterion_9_modulation_identities():
    assert (MODULATION_TRIALS, MODULATION_MAX_ORDER) == (200, 32)
    results = suite_modulation()
    _assert_all(results, "criterion 9: modulation identities within 1e-8 on 200 random frames, n <= 32")


def test_criterion_10_table_consistency():
    assert TABLE_TOL == 1e-10
    reports = run_all_table_checks()
    per_row: dict[tuple, int] = {}
    for rep in reports:
        assert rep.passed, f"{rep.table} row {rep.row} at {rep.sample}: {rep.skipped or rep.deviation}"
        per_row[(rep.table, rep.row)] = per_row.get((rep.table, rep.row), 0) + 1
    assert len(per_row) == 20  # 7 + 5 + 8 rows
    assert all(v >= 2 for v in per_row.values())
    print("PASS criterion 10: all 20 table rows consistent with predictors at >= 2 instantiations")


def test_criterion_11_property_suites():
    results = suite_properties()
    _assert_all(results, "criterion 11: translation invariance, equidistribution, tight-sum, reversibility, zero toggle")
