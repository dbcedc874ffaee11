"""The verify suites' own checks: each must be able to fail."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
import scalar_oracle

from framelab import frames, residues, verify
from framelab.errors import DomainError
from framelab.frames import FrameSpec
from framelab.search import abelian_groups_of_order


def _verdicts(results):
    return {r.name: r.passed for r in results}


def test_translation_invariance_fails_under_a_broken_translate(monkeypatch):
    # moving only the first element is not a translation of the set
    monkeypatch.setattr(verify, "translate", lambda g, S, c: (g.add(S[0], c),) + tuple(S[1:]))
    got = _verdicts(verify.suite_properties())
    assert not got["properties/translation-invariance"]
    assert got["properties/pds-reversibility"]


def test_translation_invariance_fails_under_a_non_affine_permutation(monkeypatch):
    # a translation followed by swapping two elements is a bijection of the
    # group, so every moved row is a subset, but classes are not preserved
    def swapped(g, S, c):
        els = g.elements()
        swap = {els[1]: els[2], els[2]: els[1]}
        return tuple(swap.get(y, y) for y in (g.add(x, c) for x in S))

    monkeypatch.setattr(verify, "translate", swapped)
    assert not _verdicts(verify.suite_properties())["properties/translation-invariance"]


def test_translation_sweep_calls_translate_once_per_group_and_shift(monkeypatch):
    calls = []
    translate = verify.translate

    def counted(g, S, c):
        calls.append((g, c))
        return translate(g, S, c)

    monkeypatch.setattr(verify, "translate", counted)
    checks = {r.name: r for r in verify.suite_properties()}
    invariance = checks["properties/translation-invariance"]
    assert invariance.passed
    assert invariance.detail == "2620 translated classifications compared"
    # Z6; Z2xZ2xZ2, Z2xZ4, Z8; Z3xZ3, Z9: 5 + 3 * 7 + 2 * 8 shifts
    assert len(calls) == len(set(calls)) == 42


def test_gauss_sums_fail_under_a_conjugated_root_table(monkeypatch):
    # conj flips the sign of i sqrt(p) for p = 3 mod 4, full and half sums
    checks = _verdicts(verify.suite_gauss_sums())
    assert checks["gauss-sums/full"] and checks["gauss-sums/half"]
    roots = residues._roots_of_unity
    monkeypatch.setattr(residues, "_roots_of_unity", lambda N: roots(N).conj())
    checks = _verdicts(verify.suite_gauss_sums())
    assert not checks["gauss-sums/full"]
    assert not checks["gauss-sums/half"]


def test_pds_reversibility_fails_under_a_broken_reversal(monkeypatch):
    # -S shifted by a nonzero element: a reversible set no longer maps to itself
    def shifted(g, S):
        return tuple(g.add(g.neg(x), g.elements()[1]) for x in S)

    monkeypatch.setattr(verify, "reversal", shifted)
    got = _verdicts(verify.suite_properties())
    assert not got["properties/pds-reversibility"]
    assert got["properties/translation-invariance"]


def test_proper_nested_check_fails_on_a_chain_one_step_too_long(monkeypatch):
    search = verify.enumerate_and_classify

    def longer_chains(job):
        report = search(job)
        for r in report.records:
            if r.flags.get("t") is not None:
                r.flags["t"] += 1
        return report

    checks = {r.name: r for r in verify.suite_exhaustion_order8()}
    for name in ("Z2xZ4", "Z8"):
        assert checks[f"exhaustion-order8/{name}-all-proper-nested"].passed
    monkeypatch.setattr(verify, "enumerate_and_classify", longer_chains)
    checks = {r.name: r for r in verify.suite_exhaustion_order8()}
    assert checks["exhaustion-order8/Z2xZ4-all-proper-nested"].detail == "0/32 proper chains"
    assert checks["exhaustion-order8/Z8-all-proper-nested"].detail == "0/16 proper chains"
    assert not checks["exhaustion-order8/Z8-all-proper-nested"].passed


def test_etf_difference_sweep_fails_under_a_shifted_welch_bound(monkeypatch):
    checks = {r.name: r for r in verify.suite_etf_difference()}
    equivalence = checks["etf-difference/equivalence"]
    assert equivalence.passed
    assert equivalence.detail == "2988 subsets over orders 2..10, 0 mismatches"
    welch = frames.welch_bound
    monkeypatch.setattr(frames, "welch_bound", lambda n, m: welch(n, m) + 0.01)
    checks = {r.name: r for r in verify.suite_etf_difference()}
    assert not checks["etf-difference/equivalence"].passed


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError):
        verify.run_suite("no-such-suite")


def _sweep_cases():
    """(group, m) for every m-subset size of every group of order <= 8."""
    for n in range(2, 9):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                yield g, m


def test_frame_sweep_matches_scalar_oracle():
    frames_seen = 0
    for g, m in _sweep_cases():
        got = verify._frame_violations(g, m)
        assert got == scalar_oracle.oracle_frame_violations(g, m), (g, m)
        frames_seen += got[0]
    assert frames_seen == 1026


def test_frame_sweep_matches_scalar_oracle_on_scaled_magnitudes(monkeypatch):
    # both sides cluster through cluster_rows: scaled, they must fail alike
    cluster_rows = frames.cluster_rows

    def scaled(values, tol):
        return cluster_rows(values * 1.01, tol)

    monkeypatch.setattr(frames, "cluster_rows", scaled)
    monkeypatch.setattr(verify, "cluster_rows", scaled)
    bad = 0
    for g, m in _sweep_cases():
        got = verify._frame_violations(g, m)
        assert got == scalar_oracle.oracle_frame_violations(g, m), (g, m)
        bad += got[1]
    assert bad > 0


def test_equidistribution_fails_under_a_non_character_column(monkeypatch):
    table = verify.full_character_table

    def mutated(g):
        T = table(g).copy()
        phases = np.random.default_rng(0).random(g.order)
        T[:, -1] = np.exp(2j * np.pi * phases)  # not a homomorphism
        return T

    monkeypatch.setattr(verify, "full_character_table", mutated)
    got = _verdicts(verify.suite_properties())
    assert not got["properties/equidistribution"]
    assert got["properties/translation-invariance"]


def test_tight_sum_fails_under_scaled_magnitudes(monkeypatch):
    cluster_rows = verify.cluster_rows
    monkeypatch.setattr(verify, "cluster_rows", lambda v, tol: cluster_rows(v * 1.01, tol))
    got = _verdicts(verify.suite_properties())
    assert not got["properties/tight-sum-identity"]
    assert got["properties/equidistribution"]


def _suite_draw():
    """The modulation suite's frames in draw order, from its seed."""
    rng = random.Random(verify.MODULATION_SEED)
    return [verify._random_frame(rng) for _ in range(verify.MODULATION_TRIALS)]


def _small_frames(max_order):
    """Every frame on every nonempty subset of every group of order 2..max_order."""
    return [
        FrameSpec(g, S)
        for n in range(2, max_order + 1)
        for g in abelian_groups_of_order(n)
        for m in range(1, n + 1)
        for S in itertools.combinations(g.elements(), m)
    ]


def test_modulation_identities_match_the_einsum_oracle():
    small = _small_frames(6)
    assert len(small) == 134
    for f in small + _suite_draw():
        got = frames.verify_modulation_identities(f)
        want = scalar_oracle.oracle_verify_modulation_identities(f)
        for key in (
            "definitional_deviation", "hs_orthogonality_deviation",
            "inversion_deviation", "angle_encoding_deviation",
        ):
            assert abs(getattr(got, key) - getattr(want, key)) <= 1e-12, (f, key)
        assert got.passed == want.passed, f


def test_modulation_deviations_keep_the_bits_of_the_dense_closed_forms():
    # the check works from the pair index alone; each column of the dense
    # closed forms has one nonzero, so every deviation keeps its bits
    small = _small_frames(8)
    assert len(small) == 1026
    for f in small + _suite_draw():
        got = frames.verify_modulation_identities(f)
        assert got == scalar_oracle.oracle_dense_modulation_identities(f), f


def test_modulation_suite_visits_the_drawn_frames_group_by_group(monkeypatch):
    visited = []
    check = verify.verify_modulation_identities

    def record(f):
        visited.append((f.group.factors, f.generators))
        return check(f)

    monkeypatch.setattr(verify, "verify_modulation_identities", record)
    assert all(r.passed for r in verify.suite_modulation())
    drawn = [(f.group.factors, f.generators) for f in _suite_draw()]
    assert Counter(visited) == Counter(drawn)
    assert [k for k, _ in visited] == sorted(k for k, _ in drawn)


def test_hs_check_fails_on_a_corrupted_character_table(monkeypatch):
    # the closed forms have one nonzero per column, so a Gram matrix of the
    # closed forms is diagonal whatever the table holds; the check takes the
    # Gram matrix of the definitional operators, which a wrong character sees
    table = frames.full_character_table

    def corrupted(g):
        T = table(g).copy()
        T[1, 1] = -T[1, 1]
        return T

    assert _verdicts(verify.suite_modulation())["modulation/hs"]
    monkeypatch.setattr(frames, "full_character_table", corrupted)
    got = _verdicts(verify.suite_modulation())
    assert not got["modulation/hs"]
    g = abelian_groups_of_order(7)[0]
    rep = frames.verify_modulation_identities(FrameSpec(g, ((0,), (1,), (3,))))
    assert rep.hs_orthogonality_deviation > 1.0
