"""Frame construction, angle profiles, tightness, modulation operators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scalar_oracle

from framelab import diffsets, frames, search
from framelab.diffsets import _row_weights
from framelab.errors import DomainError, InconsistentAnglesError
from framelab.frames import (
    FrameSpec,
    angle_magnitudes,
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
from framelab.groups import GroupSpec, full_character_table, parse_group, parse_subset
from framelab.search import SearchJob, abelian_groups_of_order, enumerate_and_classify


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


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_angle_tolerance_must_be_finite_and_positive(tol):
    f = F("Z6", "0,1,3")
    for cluster in (angle_profile, frame_report):
        with pytest.raises(DomainError, match="angle tolerance must be finite and positive"):
            cluster(f, tol=tol)


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


def test_btf_multiplicities_check_the_frame_size():
    # n < 2 or m = 0 is a DomainError, not a division by zero
    for n, m in ((1, 1), (5, 0)):
        with pytest.raises(DomainError, match="a frame needs"):
            btf_multiplicities_from_angles(n, m, 0.1, 0.2)


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


def _small_frames(max_order: int = 8):
    """Every frame on every nonempty subset of every group of order <= max_order."""
    for n in range(2, max_order + 1):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                for subset in itertools.combinations(g.elements(), m):
                    yield FrameSpec(g, subset)


def test_modulation_operator_matches_scalar_oracle():
    checked = 0
    for f in _small_frames():
        for xi in f.group.elements():
            want = scalar_oracle.oracle_modulation_operator(f, xi)
            assert np.array_equal(modulation_operator(f, xi).entries, want), (f, xi)
            checked += 1
    assert checked == 7689


def test_modulation_check_fails_on_transposed_difference_table(monkeypatch):
    # transposed pair indices give X_(-xi) in place of X_xi; only the
    # definitional sums, from the character table, can see it.  The closed
    # forms read the generators' pair indices; the table itself reaches only
    # the encoding check, which is symmetric in it
    f = F("Z7", "0,1,3")
    assert verify_modulation_identities(f).passed
    pairs = frames._pair_differences
    monkeypatch.setattr(frames, "_pair_differences", lambda g, rows: pairs(g, rows).swapaxes(-1, -2))
    rep = verify_modulation_identities(f)
    assert not rep.passed
    assert rep.definitional_deviation == pytest.approx(7 / 3)


def test_single_subset_paths_build_no_difference_table():
    # classify, the counts, a frame report, the closed-form operators and
    # realness read the generators' coordinates; only search blocks and the
    # modulation check's encoding identity read the (n, n) table
    from framelab.groups import _difference_index_table

    _difference_index_table.cache_clear()
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                f = FrameSpec(g, g.elements()[:m])
                if m >= 2:
                    diffsets.classify(g, f.generators)
                    diffsets.difference_counts(g, f.generators)
                frame_report(f)
                modulation_operator(f, g.elements()[-1])
                is_real_frame(f)
    assert _difference_index_table.cache_info().currsize == 0


def test_is_real_frame():
    assert is_real_frame(F("Z2xZ2xZ2", "(0,0,0),(1,0,1),(1,1,0)"))
    assert not is_real_frame(F("Z7", "0,1,3"))
    assert is_real_frame(F("Z8", "0,4"))
    assert not is_real_frame(F("Z8", "0,2"))


def test_is_real_frame_matches_scalar_oracle():
    verdicts = [
        is_real_frame(f) == scalar_oracle.oracle_is_real_frame(f) for f in _small_frames()
    ]
    assert len(verdicts) == 1026 and all(verdicts)


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


def test_frame_angles_are_the_search_record_bit_for_bit():
    # every subset of every group of order <= 12 at every m: 13,308 frames,
    # classified one by one and by a full search, with the same bits
    frames_seen = 0
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            T = full_character_table(g)
            for m in range(1, n + 1):
                idx = np.array(list(itertools.combinations(range(n), m)))
                mags = frames.character_magnitudes(T, idx)
                fortran = frames.character_magnitudes(np.asfortranarray(T), idx)
                assert mags.tobytes() == fortran.tobytes(), (g, m)
                for r in enumerate_and_classify(SearchJob(g, m)).records:
                    a = classify_angularity(FrameSpec(g, r.subset))
                    got = (a.profile.angles, a.profile.multiplicities, a.is_etf, a.is_btf)
                    assert got == (r.angles, r.multiplicities, r.is_etf, r.is_btf), (g, r.subset)
                    frames_seen += 1
    assert frames_seen == 13_308


def test_translates_negation_and_reversal_share_angle_bits():
    # every subset of every group of order <= 12: each translate of it, its
    # negation and its generators in reversed order report the same angle
    # and multiplicity bits as it does, and so does its search record
    frames_seen = 0
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            elements = g.elements()
            index = {x: i for i, x in enumerate(elements)}
            plus = np.array([[index[g.add(x, h)] for x in elements] for h in elements])
            minus = np.array([index[g.neg(x)] for x in elements])

            def profile(subset):
                a = classify_angularity(FrameSpec(g, tuple(elements[i] for i in subset)))
                return a.profile.angles, a.profile.multiplicities

            for m in range(1, n + 1):
                idx = np.array(list(itertools.combinations(range(n), m)))
                got = {tuple(S): profile(S) for S in idx.tolist()}
                for images in [np.sort(minus[idx], axis=1), *np.sort(plus[:, idx], axis=2)]:
                    for S, image in zip(idx.tolist(), images.tolist()):
                        assert got[tuple(image)] == got[tuple(S)], (g, S, image)
                for S in idx.tolist():
                    assert profile(S[::-1]) == got[tuple(S)], (g, S)
                for r in enumerate_and_classify(SearchJob(g, m)).records:
                    key = tuple(index[x] for x in r.subset)
                    assert (r.angles, r.multiplicities) == got[key], (g, r.subset)
                    frames_seen += 1
    assert frames_seen == 13_308


def test_class_representatives_match_set_oracle():
    # the least-key translate of S or -S containing 0, from Python sets and
    # wrapping 64-bit sums, against the (B, m, m) gather
    classes = {}
    for g, m in [(GroupSpec((21,)), 4), (GroupSpec((2, 6)), 5), (GroupSpec((3, 3)), 1)]:
        elements = g.elements()
        index = {x: i for i, x in enumerate(elements)}
        w = [int(v) % 2**64 for v in _row_weights(g.order)]
        rows = np.array(list(itertools.combinations(range(g.order), m)))
        want = []
        for S in rows.tolist():
            xs = [elements[i] for i in S]
            cands = [{index[g.sub(y, x)] for y in xs} for x in xs]
            cands += [{index[g.sub(x, y)] for y in xs} for x in xs]
            want.append(sorted(min(cands, key=lambda c: (sum(w[i] for i in c) + 2**63) % 2**64)))
        got = frames.class_representatives(g, diffsets._pair_block(g, rows))
        assert got.tolist() == want, g
        classes[g.name] = len({tuple(r) for r in want})
    assert classes["Z21"] == 165  # among its 5,985 4-subsets


def test_angles_past_the_difference_table_cap():
    # the representative's pair block comes from coordinates, so a frame of
    # order 5003 > SUBGROUP_ORDER_BOUND gets its angles without an n x n table
    g = GroupSpec((5003,))
    S = ((0,), (1,), (3,))
    tracemalloc.start()
    try:
        got = classify_angularity(FrameSpec(g, S))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # an int16 difference table alone holds 50 MB
    x = np.arange(1, 5003)
    want = np.abs(sum(np.exp(2j * np.pi * x * s / 5003) for (s,) in S)) / 3
    mags = angle_magnitudes(FrameSpec(g, S))
    assert np.abs(mags - want).max() < 1e-14
    angles = np.array(got.profile.angles)
    near = np.clip(np.searchsorted(angles, want), 1, len(angles) - 1)
    assert np.minimum(abs(want - angles[near]), abs(want - angles[near - 1])).max() <= 1e-7
    assert got.profile.d == 2500 and sum(got.profile.multiplicities) == 5002
    shifted = FrameSpec(g, ((5001,), (0,), (5000,)))  # S - 3, in another order
    assert angle_magnitudes(shifted).tobytes() == mags.tobytes()
    # the closed-form operators and realness read coordinates too
    op = modulation_operator(FrameSpec(g, S), (2,)).entries  # 3 - 1 is the only difference 2
    assert np.flatnonzero(op).tolist() == [5] and op[1, 2] == 5003 / 3
    assert not is_real_frame(FrameSpec(g, S))


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


def _search_chunks(monkeypatch):
    """The magnitude arrays every full-mode search hands cluster_rows: every m
    for the groups of order <= 12, and Z32 m = 4."""
    chunks = []

    def recorded(values, tol):
        chunks.append(values.copy())
        return cluster_rows(values, tol)

    monkeypatch.setattr(search, "cluster_rows", recorded)
    jobs = [SearchJob(g, m) for n in range(2, 13) for g in abelian_groups_of_order(n)
            for m in range(1, n + 1)]
    for job in jobs + [SearchJob(GroupSpec((32,)), 4)]:
        enumerate_and_classify(job)
    monkeypatch.undo()
    return chunks


def _planted_rows(rng, width, sizes, gap):
    """A shuffled row of clusters of the given sizes, a cluster of k values
    rising in steps below width / k, and a gap of gap() after each cluster."""
    row, at = [], rng.uniform(0, 1)
    for k in sizes:
        steps = rng.uniform(0, 1, k)
        row.extend(at + (np.cumsum(steps) - steps[0]) * width / k)
        at = row[-1] + gap()
    return rng.permutation(row)


def test_cluster_rows_match_per_size_oracle(monkeypatch):
    # bit for bit against the per-size gather loop: every full-mode search
    # chunk of the small groups and Z32; planted clusters of 8 to 69 values,
    # where numpy's pairwise sum leaves a left-to-right sum; planted gaps
    # within 5% of 10 * tol, on both sides of the ambiguity cut
    rng = np.random.default_rng(17)
    cases = [(x, 1e-7) for x in _search_chunks(monkeypatch)]
    not_left_to_right = 0
    for tol in (1e-7, 1e-3, 0.05):
        rows = [_planted_rows(rng, tol, rng.integers(8, 70, 3), lambda: 3 * tol)
                for _ in range(40)]
        width = min(len(r) for r in rows)
        batch = np.array([r[:width] for r in rows])
        cases.append((batch, tol))
        for row in batch:
            c = scalar_oracle.oracle_cluster_rows(row[None, :], tol)
            for rep, a, k in zip(c.reps, np.cumsum(c.sizes) - c.sizes, c.sizes):
                not_left_to_right += rep != sum(np.sort(row)[a : a + k].tolist()) / k
        rows = [_planted_rows(rng, tol / 2, rng.integers(1, 12, 6),
                              lambda: tol * rng.uniform(9.5, 10.5)) for _ in range(60)]
        cases += [(np.array([r]), tol) for r in rows]
    assert not_left_to_right > 0
    near_cut = []
    for values, tol in cases:
        got = cluster_rows(values, tol)
        want = scalar_oracle.oracle_cluster_rows(values, tol)
        for name in ("reps", "sizes", "starts", "ambiguous"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if got.d.tolist() == [6]:
            near_cut.append(bool(got.ambiguous[0]))
    assert len(near_cut) == 180 and 0 < sum(near_cut) < 180


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


@pytest.mark.parametrize("group,subset", [("Z6", "0,1,3"), ("Z2xZ4", "(0,0),(1,0),(0,1)")])
def test_frame_report_clusters_once(monkeypatch, group, subset):
    from framelab import frames

    calls = {"angle_magnitudes": 0, "cluster_rows": 0}

    def counted(name):
        original = getattr(frames, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(frames, name, counted(name))
    report = frame_report(F(group, subset))
    assert calls == {"angle_magnitudes": 1, "cluster_rows": 1}
    monkeypatch.undo()
    prof = angle_profile(F(group, subset), symbolic=True)
    assert report["angles"] == prof.as_dict()["angles"]
