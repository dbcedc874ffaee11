"""Frame construction, angle profiles, tightness, modulation operators."""

import math

import numpy as np
import pytest

from framelab.errors import DomainError, InconsistentAnglesError
from framelab.frames import (
    FrameSpec,
    angle_profile,
    btf_multiplicities_from_angles,
    classify_angularity,
    cluster_rows,
    frame_inner_product,
    frame_report,
    is_real_frame,
    modulation_operator,
    verify_modulation_identities,
    verify_tightness,
    welch_bound,
)
from framelab.groups import GroupSpec, parse_group, parse_subset


def F(group: str, subset: str) -> FrameSpec:
    g = parse_group(group)
    return FrameSpec(g, parse_subset(g, subset))


def gram_profile(f: FrameSpec, tol=1e-7):
    """Oracle: distinct magnitudes from the full Gram matrix."""
    V = f.vectors()
    G = np.abs(V @ V.conj().T)
    mags = sorted(G[i, j] for i in range(f.n) for j in range(f.n) if i != j)
    clusters = []
    for v in mags:
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def test_inner_product_examples():
    f = F("Z6", "0,1,3")
    assert abs(frame_inner_product(f, (2,), (0,))) == pytest.approx(1 / math.sqrt(3))
    assert frame_inner_product(f, (4,), (4,)) == pytest.approx(1)
    f7 = F("Z7", "0,1,3")
    assert abs(frame_inner_product(f7, (1,), (0,))) == pytest.approx(math.sqrt(2) / 3)


def test_shift_invariance_exact():
    f = F("Z2xZ4", "(0,0),(1,0),(0,1)")
    g = f.group
    for x in g.elements():
        for y in g.elements():
            assert frame_inner_product(f, x, y) == frame_inner_product(f, g.sub(x, y), g.zero)


@pytest.mark.parametrize(
    "group,subset,angles,mults",
    [
        ("Z7", "0,1,3", (math.sqrt(2) / 3,), (6,)),
        ("Z6", "0,1,3", (1 / 3, 1 / math.sqrt(3)), (3, 2)),
        ("Z2xZ4", "(0,0),(1,0),(0,1)", (1 / 3, math.sqrt(5) / 3), (5, 2)),
    ],
)
def test_angle_profiles_frozen(group, subset, angles, mults):
    prof = angle_profile(F(group, subset))
    assert prof.multiplicities == mults
    for got, want in zip(prof.angles, angles):
        assert got == pytest.approx(want, abs=1e-12)
    assert sum(prof.multiplicities) == F(group, subset).n - 1


def test_angle_profile_z9_four_angles():
    prof = angle_profile(F("Z9", "0,1,3,4"))
    assert prof.d == 4
    assert prof.multiplicities == (2, 2, 2, 2)
    sums = []
    for z in (1, 2, 3, 4):
        s = sum(np.exp(2j * np.pi * k * z / 9) for k in (0, 1, 3, 4))
        sums.append(abs(s) / 4)
    for got, want in zip(prof.angles, sorted(sums)):
        assert got == pytest.approx(want, abs=1e-12)


def test_angle_profile_matches_gram_oracle():
    for group, subset in [
        ("Z6", "0,1,3"),
        ("Z9", "0,1,3,4"),
        ("Z2xZ4", "(0,0),(1,0),(0,1)"),
        ("Z8", "0,1,3"),
        ("Z12", "0,1,3,7"),
    ]:
        f = F(group, subset)
        prof = angle_profile(f)
        oracle = gram_profile(f)
        assert len(oracle) == prof.d
        for (ov, oc), a, t in zip(oracle, prof.angles, prof.multiplicities):
            assert ov == pytest.approx(a, abs=1e-9)
            # the Gram oracle sees each angle once per ordered vector pair
            assert oc == t * f.n


def test_degenerate_profiles():
    # full character table: orthonormal profile {0}
    g = GroupSpec((5,))
    f = FrameSpec(g, g.elements())
    prof = angle_profile(f)
    assert prof.angles == (pytest.approx(0.0),)
    assert prof.multiplicities == (4,)
    # single generator: all magnitudes 1
    f1 = F("Z6", "0")
    assert angle_profile(f1).angles == (pytest.approx(1.0),)


def test_welch_bound():
    assert welch_bound(7, 3) == pytest.approx(math.sqrt(2) / 3)
    assert welch_bound(6, 3) == pytest.approx(math.sqrt(3 / 15))
    assert welch_bound(5, 5) == 0
    with pytest.raises(DomainError):
        welch_bound(1, 1)
    with pytest.raises(DomainError):
        welch_bound(4, 5)


def test_tightness():
    rep = verify_tightness(F("Z7", "0,1,3"))
    assert rep.passed and rep.frame_constant == pytest.approx(7 / 3)
    rep = verify_tightness(F("Z2xZ4", "(0,0),(1,0),(0,1)"))
    assert rep.passed and rep.frame_constant == pytest.approx(8 / 3)
    rep = verify_tightness(F("Z6", "0"))
    assert rep.passed and rep.frame_constant == pytest.approx(6.0)


def test_angularity_labels():
    assert classify_angularity(F("Z7", "0,1,3")).label == "ETF"
    assert classify_angularity(F("Z6", "0,1,3")).label == "BTF"
    assert classify_angularity(F("Z9", "0,1,3,4")).label == "4-angular"


@pytest.mark.parametrize(
    "n,m,a1,a2,want",
    [
        (13, 6, 1 / (math.sqrt(13) + 1), 1 / (math.sqrt(13) - 1), (6, 6)),
        (6, 3, 1 / math.sqrt(3), 1 / 3, (2, 3)),
        (8, 3, 1 / 3, math.sqrt(5) / 3, (5, 2)),
    ],
)
def test_btf_multiplicities(n, m, a1, a2, want):
    assert btf_multiplicities_from_angles(n, m, a1, a2) == want


def test_btf_multiplicities_rejects_noise():
    with pytest.raises(InconsistentAnglesError):
        btf_multiplicities_from_angles(8, 3, 0.31, 0.72)


def test_modulation_entries():
    f = F("Z7", "0,1,3")
    X = modulation_operator(f, (1,))
    nonzero = [(a, b) for a in range(3) for b in range(3) if X.entries[a, b] != 0]
    assert nonzero == [(0, 1)]
    assert X.entries[0, 1] == pytest.approx(7 / 3)
    X0 = modulation_operator(f, (0,))
    assert np.allclose(X0.entries, (7 / 3) * np.eye(3))
    assert X0.hs_norm_sq == pytest.approx(49 / 3)
    X2 = modulation_operator(F("Z6", "0,1,3"), (2,))
    nz = np.argwhere(np.abs(X2.entries) > 0)
    assert [tuple(t) for t in nz] == [(1, 2)]


def test_modulation_identities():
    for group, subset in [
        ("Z6", "0,1,3"),
        ("Z2xZ4", "(0,0),(1,0),(0,1)"),
        ("Z7", "0,1,3"),
    ]:
        rep = verify_modulation_identities(F(group, subset))
        assert rep.passed, rep
    # lambda = 1 difference set: constant HS norms off the identity frequency
    f = F("Z7", "0,1,3")
    for xi in f.group.elements():
        if xi == (0,):
            continue
        assert modulation_operator(f, xi).hs_norm_sq == pytest.approx(49 / 9)


def test_is_real_frame():
    assert is_real_frame(F("Z2xZ2xZ2", "(0,0,0),(1,0,1),(1,1,0)"))
    assert not is_real_frame(F("Z7", "0,1,3"))
    assert is_real_frame(F("Z8", "0,4"))
    assert not is_real_frame(F("Z8", "0,2"))


def test_frame_report_schema_and_roundtrip():
    import json

    rep = frame_report(F("Z6", "0,1,3"))
    assert rep["schema"] == 1
    assert rep["is_btf"] and rep["is_tight"] and not rep["is_etf"]
    assert rep["welch_bound"] == pytest.approx(math.sqrt(3 / 15))
    assert not rep["real_frame"]
    assert json.loads(json.dumps(rep)) == rep
    syms = [a.get("symbolic") for a in rep["angles"]]
    assert syms == ["1/3", "sqrt(3)/3"]


def test_equidistribution_small_sweep():
    import itertools

    for g in (GroupSpec((6,)), GroupSpec((2, 4))):
        for m in (2, 3):
            for subset in itertools.combinations(g.elements(), m):
                f = FrameSpec(g, subset)
                V = f.vectors()
                G = np.abs(V @ V.conj().T)
                np.fill_diagonal(G, -1)
                rows = np.sort(G, axis=1)
                assert np.max(rows.max(axis=0) - rows.min(axis=0)) < 1e-10


def test_tight_sum_identity_holds_on_profiles():
    for group, subset in [("Z6", "0,1,3"), ("Z9", "0,1,3,4"), ("Z8", "0,1,2,5")]:
        f = F(group, subset)
        prof = angle_profile(f)
        assert prof.tight_sum() == pytest.approx((f.n - f.m) / f.m, abs=1e-8)


def test_cluster_ambiguity_flag():
    # force clusters separated by less than 10x the tolerance: flagged, not merged
    prof = angle_profile(F("Z9", "0,1,3,4"), tol=0.004)
    assert prof.d == 4
    assert prof.ambiguous  # 0.4698 and 0.5 sit 0.030 < 0.04 apart
    prof_fine = angle_profile(F("Z9", "0,1,3,4"), tol=1e-7)
    assert not prof_fine.ambiguous


def oracle_cluster(values, tol):
    """The one-row clustering loop cluster_rows replaced."""
    order = np.sort(values)
    reps, mults = [], []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or order[i] - order[i - 1] > tol:
            block = order[start:i]
            reps.append(float(block.mean()))
            mults.append(len(block))
            start = i
    pos = np.cumsum(mults)
    ambiguous = any(order[pos[j]] - order[pos[j] - 1] < 10 * tol for j in range(len(reps) - 1))
    return reps, mults, ambiguous


def test_cluster_rows_match_one_row_loop():
    # rows of every length 1..63 made of planted clusters of random sizes, some of
    # them closer than 10 * tol, so every cluster size and both ambiguity outcomes occur
    rng = np.random.default_rng(5)
    tol = 1e-7
    for width in range(1, 64):
        rows = []
        for _ in range(20):
            row = []
            while len(row) < width:
                k = int(rng.integers(1, width - len(row) + 1))
                centre = row[-1] + 5 * tol if row and rng.random() < 0.2 else rng.uniform(0, 1)
                row.extend(centre + rng.uniform(0, tol / 4, k))
            rows.append(rng.permutation(row))
        c = cluster_rows(np.array(rows), tol)
        for i, row in enumerate(rows):
            reps, mults, ambiguous = oracle_cluster(row, tol)
            prof = c.profile(i)
            assert list(prof.angles) == reps  # bit for bit
            assert list(prof.multiplicities) == mults
            assert prof.ambiguous == ambiguous


def test_modulation_capacity_bound():
    import framelab.frames as fr
    from framelab.errors import CapacityError

    g = GroupSpec((64,))
    f = FrameSpec(g, g.elements())
    old = fr.MODULATION_CAPACITY
    fr.MODULATION_CAPACITY = 1000
    try:
        with pytest.raises(CapacityError):
            verify_modulation_identities(f)
    finally:
        fr.MODULATION_CAPACITY = old


@pytest.mark.parametrize(
    "group,subset,alpha,kept",
    [
        # PSLQ finds sqrt(3589/2069 - 525*sqrt(42)/2069); sqrt(42) is not in Q(zeta_14)
        ("Z14", "0,2,4,7,8,9", 0.30032295596747305, {0.3333333333333333: "1/3"}),
        # PSLQ finds sqrt(9869/8020 - 1677*sqrt(34)/8020); sqrt(34) is not in Q(zeta_16)
        ("Z16", "0,1,6,9,12,15", 0.10622382168008773, {
            0.2357022603955158: "sqrt(2)/6",
            0.3569074902558747: "sqrt(1/6 - sqrt(2)/36)",
            0.4538175588632353: "sqrt(1/6 + sqrt(2)/36)",
        }),
    ],
)
def test_symbolic_forms_outside_the_cyclotomic_field_are_dropped(group, subset, alpha, kept):
    prof = angle_profile(F(group, subset), symbolic=True)

    def form(value):
        (i,) = [i for i, a in enumerate(prof.angles) if abs(a - value) < 1e-12]
        return prof.symbolic[i]

    assert form(alpha) is None
    for a, text in kept.items():
        assert form(a) == text


@pytest.mark.parametrize(
    "s,N,inside",
    [(13, 13, True), (5, 10, True), (2, 8, True), (2, 4, False), (3, 12, True),
     (3, 6, False), (13, 26, True), (42, 14, False), (34, 16, False)],
)
def test_surd_conductor_rule(s, N, inside):
    from framelab.frames import _surd_in_cyclotomic_field

    assert _surd_in_cyclotomic_field(s, N) is inside
