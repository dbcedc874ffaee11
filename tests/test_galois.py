"""Galois orbits of characters, and exact angle recognition once per orbit."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
import scalar_oracle

from framelab import diffsets, frames, surd
from framelab.arith import residues, unit_generators
from framelab.frames import FrameSpec, angle_profile, frame_report
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


def _element_orders(g):
    """The order of each element: a union of whole orbits, one label per order."""
    E = np.array(g.elements())
    sizes = np.array(g.factors) // np.gcd(E, g.factors)
    return np.lcm.reduce(sizes, axis=1)


def _orbit_sharing_violations(label_of):
    """(frames, frames in which two orbits of label_of(g) share one magnitude
    within 1e-9 but not all of them)."""
    seen = bad = 0
    for g, m, sums in _small_frames():
        labels = np.delete(label_of(g), g.index(g.zero))
        mags = np.delete(np.abs(sums) / m, g.index(g.zero), axis=1)
        onehot = (labels[:, None] == np.unique(labels)[None, :]).astype(np.int64)
        near = (np.abs(mags[:, :, None] - mags[:, None, :]) <= 1e-9).astype(np.int64)
        # hits[b, p, o]: the characters of orbit p with a magnitude within
        # 1e-9 of one in orbit o; near is symmetric, so some implies all
        # both ways exactly when the two orbits have the same magnitudes
        hits = onehot.T @ ((near @ onehot) > 0)
        some, every = hits > 0, hits == onehot.sum(axis=0)[:, None]
        bad += int((some != every).any(axis=(1, 2)).sum())
        seen += len(sums)
    return seen, bad


def test_orbits_that_share_one_magnitude_share_all():
    # the failed-orbit rule of frames._recognized_forms: sigma_k maps two
    # orbits that share one value alike, so they share every value; the
    # elements of one order, a union of orbits, need not
    assert _orbit_sharing_violations(galois_orbits) == (13_308, 0)
    seen, bad = _orbit_sharing_violations(_element_orders)
    assert seen == 13_308 and bad > 0


@pytest.mark.parametrize(
    "group,subset,calls",
    [
        ("Z13", "0,1,2,4,7", 1),  # 6 per-angle calls, none recognized
        ("Z11", "0,1,3", 1),  # 5
        # 2 conjugate surds, both off the one orbit's two values (surd.orbit_form)
        ("Z13", ",".join(map(str, residues(13, 2))), 0),
        # 4 per angle; of the orbits of order 9 and 3 only the first, of
        # three values, is searched: surd.orbit_form gives {3, 6} the
        # rational 1/2
        ("Z9", "0,1,3,4", 1),
        # 31 per angle; of the 6 orbits of order 2..64, surd.orbit_form
        # reads the 3 of order 2, 4 and 8, each of one value
        ("Z64", "0,1,5,11,20,33,40", 3),
    ],
)
def test_one_recognition_per_galois_class(monkeypatch, group, subset, calls):
    assert len(_recognized(monkeypatch, lambda: frame_report(F(group, subset)))) == calls


def test_ambiguous_profiles_search_once_per_orbit(monkeypatch):
    # at tol 0.004 two of Z9's clusters sit closer than 10 * tol; its 4
    # clusters still come from 2 orbits (orders 9 and 3), and only the one
    # of three values is searched
    f = F("Z9", "0,1,3,4")
    prof = angle_profile(f, tol=0.004)
    assert prof.ambiguous and prof.d == 4
    assert len(_recognized(monkeypatch, lambda: angle_profile(f, tol=0.004, symbolic=True))) == 1
    # Z1601 is prime: its 800 clusters are one orbit, searched once
    f = F("Z1601", "0,1,3")
    got = []
    assert len(_recognized(monkeypatch, lambda: got.append(angle_profile(f, symbolic=True)))) == 1
    assert got[0].ambiguous and got[0].d == 800 and got[0].symbolic == (None,) * 800


@pytest.mark.parametrize("extra", [(), ((0, 3),)])
def test_a_cluster_merging_magnitudes_gets_no_string(extra):
    # at tol 0.03 one cluster merges characters of different magnitudes
    # (0.0813 twice and 0.1111 three times in the first set); no character
    # has its mean, so it gets no exact form, and every other form is exact
    g = GroupSpec((3, 4))
    S = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3)) + extra
    f = FrameSpec(g, tuple(sorted(S)))
    mags = frames.angle_magnitudes(f)
    prof = angle_profile(f, tol=0.03, symbolic=True)
    cuts = np.cumsum(prof.multiplicities)[:-1]
    merged = [np.ptp(c) > 1e-9 for c in np.split(np.sort(mags), cuts)]
    assert sum(merged) == 1
    for a, text, mixed in zip(prof.angles, prof.symbolic, merged):
        if mixed:
            assert text is None
        else:
            assert abs(eval(text, {"__builtins__": {}, "sqrt": math.sqrt}) - a) <= 1e-9


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
    # the strings of orbits of one or two values come from surd.orbit_form,
    # the rest from the search; both must keep every string byte for byte
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


def _class_frames(max_order):
    """One frame per translate-negation class of the proper nonempty subsets
    of every group of order <= max_order."""
    out = []
    for n in range(2, max_order + 1):
        for g in abelian_groups_of_order(n):
            elements = g.elements()
            reps = set()
            for m in range(1, n):
                rows = np.array(list(itertools.combinations(range(n), m)))
                pairs = diffsets._pair_block(g, rows)
                reps |= set(map(tuple, frames.class_representatives(g, pairs).tolist()))
            out += [FrameSpec(g, tuple(elements[i] for i in r)) for r in sorted(reps)]
    return out


def test_only_orbits_of_three_or_more_values_are_searched(monkeypatch):
    # surd.orbit_form serves every orbit of one or two distinct values, so a
    # recognize_angle call reads the smallest-index magnitude of an orbit
    # holding at least three; over every class of the groups of order <= 8
    # and the report-mix and sampled frames
    searched = 0
    for f in _class_frames(8) + _report_mix_frames() + _sampled_frames(10):
        mags = frames.angle_magnitudes(f)
        orbit = galois_orbits(f.group)[1:] - 1
        for alpha in _recognized(monkeypatch, lambda: angle_profile(f, symbolic=True)):
            (o,) = [i for i in np.flatnonzero(mags == alpha) if orbit[i] == i]
            values = np.sort(mags[orbit == o])
            assert 1 + (np.diff(values) > 1e-9).sum() >= 3, (f, alpha)
            searched += 1
    assert searched == 18


def test_symbolic_forms_match_the_per_angle_oracle(monkeypatch):
    # both paths share one memo of recognize_angle, so PSLQ runs once per
    # value; at tol 0.004 the small groups' classes include ambiguous
    # profiles (orders <= 8 keep the oracle's PSLQ to a few seconds)
    memo = functools.lru_cache(maxsize=None)(surd.recognize_angle)
    monkeypatch.setattr(surd, "recognize_angle", memo)
    nested, ambiguous = set(), 0
    cases = [(f, frames.DEFAULT_ANGLE_TOL) for f in _report_mix_frames() + _sampled_frames(10)]
    cases += [(f, 0.004) for f in _class_frames(8)]
    for f, tol in cases:
        got = angle_profile(f, tol=tol, symbolic=True)
        want = scalar_oracle.oracle_with_symbolic(f, angle_profile(f, tol=tol))
        assert got.symbolic == want.symbolic, (f, tol)
        nested |= {s[s.index(" ") + 1] for s in got.symbolic if s and " " in s}
        ambiguous += got.ambiguous
    assert nested == {"+", "-"}  # both signs of conjugate surds were compared
    assert len(cases) == 26 + 147 and ambiguous == 2
