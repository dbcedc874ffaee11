"""Galois orbits of characters, and exact angle recognition once per orbit."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
import scalar_oracle

from framelab import frames, surd
from framelab.arith import residues, unit_generators
from framelab.frames import FrameSpec, angle_profile, cluster_rows, frame_report
from framelab.groups import (
    GroupSpec,
    full_character_table,
    galois_orbits,
    parse_group,
    parse_subset,
)
from framelab.search import abelian_groups_of_order


def F(group: str, subset: str) -> FrameSpec:
    g = parse_group(group)
    return FrameSpec(g, parse_subset(g, subset))


def test_unit_generators_generate_the_units():
    for N in range(1, 400):
        units = {k for k in range(N) if math.gcd(k, N) == 1} if N > 1 else {0}
        found, frontier = {1 % N}, [1 % N]
        while frontier:
            x = frontier.pop()
            for k in unit_generators(N):
                if x * k % N not in found:
                    found.add(x * k % N)
                    frontier.append(x * k % N)
        assert found == units, N


def test_galois_orbits_are_the_generators_of_each_cyclic_subgroup():
    # orbit of x under x -> kx = the elements y with <y> = <x>; label = smallest index
    for n in range(1, 25):
        for g in abelian_groups_of_order(n) if n > 1 else []:
            cyclic = {}
            for x in g.elements():
                span, y = {g.zero}, x
                while y != g.zero:
                    span.add(y)
                    y = g.add(y, x)
                cyclic[x] = frozenset(span)
            want = [min(g.index(y) for y in g.elements() if cyclic[y] == cyclic[x])
                    for x in g.elements()]
            assert galois_orbits(g).tolist() == want, g


def _plus_minus_pairs(g):
    """Orbits of x -> -x alone: the smallest index of {x, -x}."""
    return np.array([min(g.index(x), g.index(g.neg(x))) for x in g.elements()])


def _small_frames():
    """(group, m, character sums) for every m-subset of every group of order <= 12:
    row i of the sums holds sum_{s in S_i} chi_s(x) for every element x."""
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            T = full_character_table(g)
            for m in range(1, n + 1):
                rows = np.zeros((math.comb(n, m), n))
                for i, S in enumerate(itertools.combinations(range(n), m)):
                    rows[i, list(S)] = 1.0
                yield g, m, rows @ T.T


def _orbit_sum_violations(label_of):
    """(frames, frames whose sum of m^2 |<f_x, f_0>|^2 over some orbit of
    label_of(g) is not within 1e-9 of an integer)."""
    seen = bad = 0
    for g, _, sums in _small_frames():
        labels = label_of(g)
        onehot = labels[:, None] == np.unique(labels)[None, :]
        totals = np.abs(sums) ** 2 @ onehot
        bad += int((np.abs(totals - np.round(totals)) > 1e-9).any(axis=1).sum())
        seen += len(sums)
    return seen, bad


def test_orbit_sums_are_integers():
    # sigma_k permutes an orbit, so the sum over it is a rational algebraic
    # integer; complex conjugation alone does not give whole orbits
    assert _orbit_sum_violations(galois_orbits) == (13_308, 0)
    seen, bad = _orbit_sum_violations(_plus_minus_pairs)
    assert seen == 13_308 and bad > 0


def test_galois_classes_are_whole_clusters_and_whole_orbits():
    # every orbit of a frame meets exactly the clusters of its class: orbits
    # that share a value share every value, so a class is a union of whole
    # clusters and whole orbits, and its clusters are conjugates
    seen = 0
    for g, m, sums in _small_frames():
        orbit = np.delete(galois_orbits(g), g.index(g.zero))
        mags = np.delete(np.abs(sums) / m, g.index(g.zero), axis=1)
        c = cluster_rows(mags, frames.DEFAULT_ANGLE_TOL)
        for i, row in enumerate(mags):
            sizes = c.sizes[c.starts[i] : c.starts[i + 1]]
            first = frames._galois_classes(g, row, tuple(sizes.tolist()))
            cluster = np.empty(len(row), dtype=np.int64)
            cluster[np.argsort(row, kind="stable")] = np.repeat(np.arange(len(sizes)), sizes)
            meets = np.zeros((g.order, len(sizes)), dtype=bool)
            meets[orbit, cluster] = True
            assert (meets[orbit] == (first[None, :] == first[cluster][:, None])).all()
            seen += 1
    assert seen == 13_308


@pytest.mark.parametrize(
    "group,subset,calls",
    [
        ("Z13", "0,1,2,4,7", 1),  # 6 per-angle calls, none recognized
        ("Z11", "0,1,3", 1),  # 5
        # 2 conjugate surds, both from the two moments (surd.moment_forms)
        ("Z13", ",".join(map(str, residues(13, 2))), 0),
        ("Z9", "0,1,3,4", 2),  # 4: orbits of order 9 and 3
        ("Z64", "0,1,5,11,20,33,40", 6),  # 31: one orbit per order 2..64
    ],
)
def test_one_recognition_per_galois_class(monkeypatch, group, subset, calls):
    assert len(_recognized(monkeypatch, lambda: frame_report(F(group, subset)))) == calls


def test_ambiguous_profiles_recognize_every_angle(monkeypatch):
    # at tol 0.004 two of Z9's clusters sit closer than 10 * tol
    f = F("Z9", "0,1,3,4")
    assert len(_recognized(monkeypatch, lambda: angle_profile(f, symbolic=True))) == 2
    prof = angle_profile(f, tol=0.004)
    assert prof.ambiguous and prof.d == 4
    seen = _recognized(monkeypatch, lambda: angle_profile(f, tol=0.004, symbolic=True))
    assert seen == list(prof.angles)


def _recognized(monkeypatch, run):
    """The angles run() hands surd.recognize_angle, in call order."""
    seen = []
    recognize = surd.recognize_angle

    def counted(alpha, extra_surds=()):
        seen.append(alpha)
        return recognize(alpha, extra_surds=extra_surds)

    monkeypatch.setattr(surd, "recognize_angle", counted)
    run()
    monkeypatch.undo()
    return seen


def _report_mix_frames():
    """report-mix's structured requests and its two roster subsets (its random
    requests are affine images of these, with the same angles)."""
    def cyclic(n, xs):
        return FrameSpec(GroupSpec((n,)), tuple((x,) for x in xs))

    out = [cyclic(6, (0, 1, 3)), cyclic(9, (0, 1, 3, 4)),
           FrameSpec(GroupSpec((2, 4)), ((0, 0), (1, 0), (0, 1)))]
    out += [cyclic(p, residues(p, 2)) for p in (7, 11, 13, 17, 29, 37)]
    out += [cyclic(13, residues(13, 4)), cyclic(29, (0,) + residues(29, 4)),
            cyclic(37, (0,) + residues(37, 4))]
    return out + [cyclic(11, (0, 1, 3)), cyclic(13, (0, 1, 2, 4, 7))]


# symbolic tuple of each _report_mix_frames() profile, in that order
REPORT_MIX_SYMBOLIC = [
    ("1/3", "sqrt(3)/3"),
    (None, None, None, "1/2"),
    ("1/3", "sqrt(5)/3"),
    ("sqrt(2)/3",),
    ("sqrt(3)/5",),
    ("sqrt(7/72 - sqrt(13)/72)", "sqrt(7/72 + sqrt(13)/72)"),
    ("sqrt(9/128 - sqrt(17)/128)", "sqrt(9/128 + sqrt(17)/128)"),
    ("sqrt(15/392 - sqrt(29)/392)", "sqrt(15/392 + sqrt(29)/392)"),
    ("sqrt(19/648 - sqrt(37)/648)", "sqrt(19/648 + sqrt(37)/648)"),
    ("sqrt(5/18 - sqrt(13)/18)", "sqrt(5/18 + sqrt(13)/18)"),
    ("sqrt(3/32 - sqrt(29)/64)", "sqrt(3/32 + sqrt(29)/64)"),
    ("sqrt(3/40 - sqrt(37)/200)", "sqrt(3/40 + sqrt(37)/200)"),
    (None,) * 5,
    (None,) * 6,
]


def test_report_mix_strings_are_pinned():
    # the one- and two-angle strings come from the moments, the rest from
    # the Galois-class search; both must keep every string byte for byte
    got = [angle_profile(f, symbolic=True).symbolic for f in _report_mix_frames()]
    assert got == REPORT_MIX_SYMBOLIC


def _sampled_frames(count, seed=18):
    rng = random.Random(seed)
    groups = [g for n in range(5, 17) for g in abelian_groups_of_order(n)]
    out = []
    for _ in range(count):
        g = rng.choice(groups)
        m = rng.randrange(2, g.order - 1)
        out.append(FrameSpec(g, tuple(sorted(rng.sample(g.elements(), m)))))
    return out


def test_symbolic_forms_match_the_per_angle_oracle(monkeypatch):
    # both paths share one memo of recognize_angle, so PSLQ runs once per value
    memo = functools.lru_cache(maxsize=None)(surd.recognize_angle)
    monkeypatch.setattr(surd, "recognize_angle", memo)
    nested = set()
    for f in _report_mix_frames() + _sampled_frames(10):
        got = angle_profile(f, symbolic=True)
        want = scalar_oracle.oracle_with_symbolic(f, angle_profile(f))
        assert got.symbolic == want.symbolic, f
        nested |= {s[s.index(" ") + 1] for s in got.symbolic if s and " " in s}
    assert nested == {"+", "-"}  # both signs of conjugate surds were compared
