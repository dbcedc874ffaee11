"""The taxonomy's converse, counted: which BTFs the difference-set classes
miss, and which bidifference sets give no BTF.

One reduced-mode search per (group, m) covers the subsets containing 0 of
every abelian group of order 4..16, for m = 2..n-2: 169 searches, 198,911
subsets.  A two-angle tight frame need not come from a bidifference set or
a nested divisible chain: in the groups below its counts take more levels
than any chain of length Omega(n) can hold.  And a proper bidifference set
(exactly two count levels) need not give a BTF.

Every BTF satisfies the dual-set identity.  Let D be the characters that
carry its less frequent angle.  The counts are the Fourier transform of
the squared character sums, which take one value on D and another off it,
so for d != 0, c(d) is an affine function of sum_{chi in D} chi(d) with a
nonzero slope.  Hence the count levels are as many as the distinct values
of that sum.

Every BTF and ETF also gets its exact squared angles from two integer
moments (surd.moment_forms), with Q the sum of its squared count row.

Complements keep the angle class.  For d != 0 the complement S' of S has
counts c_S(d) + n - 2m, and off the trivial character its character sum is
minus that of S, so m alpha_S = (n - m) alpha_S' with equal multiplicities.
"""

from collections import Counter

import numpy as np

from framelab import surd
from framelab.diffsets import _count_rows
from framelab.frames import character_magnitudes
from framelab.groups import full_character_table
from framelab.search import SearchJob, abelian_groups_of_order, enumerate_and_classify

BTFS = 13_884
ETFS = 1_398
# SearchReport.class_counts summed over the 169 searches
CLASS_COUNTS = {
    "almost": 8_181, "bidifference": 23_679, "btf": 13_884, "difference_set": 1_398,
    "divisible": 4_758, "etf": 1_398, "gaussian": 228, "nested_divisible": 29_520,
    "partial": 2_201, "relative": 238,
}
# BTFs that are neither bidifference nor nested divisible, by (group, m);
# in each group the two values of m are complements
BTF_OUTSIDE = {
    ("Z2xZ2xZ3", 5): 60, ("Z2xZ2xZ3", 7): 84,
    ("Z3xZ4", 5): 10, ("Z3xZ4", 7): 14,
    ("Z2xZ8", 7): 56, ("Z2xZ8", 9): 72,
}
# |D| of the BTFs in BTF_OUTSIDE, D the characters of the less frequent angle
DUAL_SIZES_OUTSIDE = {2: 96, 4: 72, 6: 128}
# proper bidifference sets whose frame is not a BTF, by group (10,191 in all)
BIDIFFERENCE_WITHOUT_BTF = {
    "Z2xZ3": 6, "Z7": 21, "Z2xZ4": 32, "Z8": 48, "Z9": 162, "Z2xZ5": 200, "Z11": 275,
    "Z2xZ2xZ3": 60, "Z3xZ4": 288, "Z13": 897, "Z2xZ7": 1204, "Z3xZ5": 1830,
    "Z2xZ2xZ2xZ2": 1680, "Z2xZ2xZ4": 848, "Z2xZ8": 528, "Z4xZ4": 432, "Z16": 1680,
}


def dual_sets_and_moments(g, records) -> tuple[list[int], float]:
    """(|D| per BTF record, the largest deviation of a moment form), after
    checking the dual-set identity on each BTF and the moment forms on every
    BTF and ETF record.

    D is the set of nonzero x whose magnitude |sum_{s in S} chi_x(s)| / m
    is the less frequent angle (the smaller one on a tie; the sum over the
    complement is -1 minus the sum over D, so it has as many values).  A
    moment form deviates by |value - angle^2|, and may deviate by at most
    surd.VERIFY_TOL, the bound frames holds it to.
    """
    index = {x: i for i, x in enumerate(g.elements())}
    rows = np.array([[index[x] for x in r.subset] for r in records])
    T = full_character_table(g)
    _, counts = _count_rows(g, rows)
    sizes, worst = [], 0.0
    for r, mags, row in zip(records, character_magnitudes(T, rows), counts):
        forms = surd.moment_forms(g.order, len(r.subset), int((row * row).sum()), r.multiplicities)
        assert forms is not None, (g, r.subset)
        for form, a in zip(forms, r.angles):
            worst = max(worst, abs(form.value() - a * a))
        assert worst <= surd.VERIFY_TOL, (g, r.subset)
        if not r.is_btf:
            continue
        (a1, a2), (k1, k2) = r.angles, r.multiplicities
        D = 1 + np.flatnonzero(np.abs(mags - (a1 if k1 <= k2 else a2)) <= 1e-7)
        sums = T[D, 1:].sum(axis=0)
        assert np.abs(sums.imag).max() < 1e-9, (g, r.subset)
        values = len(set(np.round(sums.real, 6).tolist()))
        assert values == len(set(row.tolist())), (g, r.subset)
        sizes.append(len(D))
    return sizes, worst


def test_census_of_btfs_against_the_difference_set_classes():
    searches = subsets = btfs = etfs = 0
    worst = 0.0
    dual_outside: Counter = Counter()
    outside: Counter = Counter()
    without: Counter = Counter()
    counts: Counter = Counter()
    for n in range(4, 17):
        for g in abelian_groups_of_order(n):
            for m in range(2, n - 1):
                report = enumerate_and_classify(SearchJob(g, m, mode="reduced"))
                searches += 1
                subsets += report.total_enumerated
                counts.update(report.class_counts)
                found = [r for r in report.records if r.is_btf or r.is_etf]
                sizes, deviation = dual_sets_and_moments(g, found) if found else ([], 0.0)
                worst = max(worst, deviation)
                etfs += sum(r.is_etf for r in found)
                for r, size in zip([r for r in found if r.is_btf], sizes):
                    btfs += 1
                    if not (r.flags["bidifference"] or r.flags["nested_divisible"]):
                        outside[g.name, m] += 1
                        dual_outside[size] += 1
                for r in report.records:
                    if not r.is_btf and r.flags["proper_bidifference"]:
                        without[g.name] += 1
    assert (searches, subsets) == (169, 198_911)
    assert (btfs, etfs) == (BTFS, ETFS)
    assert worst <= 1e-15
    assert dict(counts) == CLASS_COUNTS
    assert dict(outside) == BTF_OUTSIDE
    assert dict(dual_outside) == DUAL_SIZES_OUTSIDE
    assert dict(without) == BIDIFFERENCE_WITHOUT_BTF
    assert sum(without.values()) == 10_191


def test_complement_keeps_angles_and_count_shape():
    # full searches at m and n - m for every m = 2..n-2 of the groups of
    # order 4..12: each subset's record against its complement's
    pairs, worst = 0, 0.0
    differ: Counter = Counter()
    for n in range(4, 13):
        for g in abelian_groups_of_order(n):
            whole = frozenset(g.elements())
            by_m = {
                m: {frozenset(r.subset): r for r in enumerate_and_classify(SearchJob(g, m)).records}
                for m in range(2, n - 1)
            }
            for m, records in by_m.items():
                for S, r in records.items():
                    c = by_m[n - m][whole - S]
                    pairs += 1
                    for a, b in zip(r.angles, c.angles, strict=True):
                        worst = max(worst, abs(m * a - (n - m) * b))
                    assert (r.multiplicities, r.is_etf, r.is_btf) == (
                        c.multiplicities, c.is_etf, c.is_btf
                    )
                    for k, v in r.flags.items():
                        if k in ("lam", "mu"):  # None (more than two levels) on both sides
                            assert c.flags[k] == (None if v is None else v + n - 2 * m)
                        elif c.flags[k] != v:
                            differ[k] += 1
    assert pairs == 13_058
    assert worst <= 1e-12
    # relative needs lam = 0 and regular needs 0 outside S: neither survives
    # the shift of the counts or the move of 0 into the complement
    assert dict(differ) == {"relative": 224, "regular": 894}
