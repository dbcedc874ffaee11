"""Difference counts, taxonomy classification, chains, zero toggle."""


import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.arith import residues
from framelab.diffsets import (
    NestedChain,
    classify,
    difference_counts,
    is_proper,
    nested_divisible_chain,
    pds_zero_toggle,
    reversal,
    translate,
)
from framelab.errors import InvalidOperationError, InvalidSubsetError
from framelab.groups import GroupSpec, all_subgroups, parse_group, parse_subset
from framelab.search import SearchJob, abelian_groups_of_order, enumerate_and_classify

Z6 = GroupSpec((6,))
Z7 = GroupSpec((7,))
Z9 = GroupSpec((9,))
Z13 = GroupSpec((13,))
Z2Z4 = GroupSpec((2, 4))


def S(g, text):
    return parse_subset(g, text)


def test_difference_counts_z7():
    dc = difference_counts(Z7, S(Z7, "0,1,3"))
    assert all(c == 1 for c in dc.counts.values())
    assert sum(dc.counts.values()) == 6


def test_difference_counts_z2z4():
    dc = difference_counts(Z2Z4, S(Z2Z4, "(0,0),(1,0),(0,1)"))
    want = {
        (1, 0): 2,
        (0, 1): 1, (0, 3): 1, (1, 1): 1, (1, 3): 1,
        (0, 2): 0, (1, 2): 0,
    }
    assert dc.counts == want


def test_difference_counts_z6():
    dc = difference_counts(Z6, S(Z6, "0,1,3"))
    assert dc.counts == {(3,): 2, (1,): 1, (2,): 1, (4,): 1, (5,): 1}


def test_difference_counts_validation():
    with pytest.raises(InvalidSubsetError):
        difference_counts(Z6, ((0,), (0,)))
    with pytest.raises(InvalidSubsetError):
        difference_counts(Z6, ((0,),))


def test_counts_symmetric_under_negation():
    for g, text in [(Z9, "0,1,3,4"), (Z2Z4, "(0,0),(1,0),(0,1)"), (Z13, "0,1,4,6")]:
        dc = difference_counts(g, S(g, text))
        for x, c in dc.counts.items():
            assert dc.counts[g.neg(x)] == c


def test_classify_z6_divisible():
    cls = classify(Z6, S(Z6, "0,1,3"))
    assert cls.proper_bidifference
    d = cls.divisible
    assert (cls.n, cls.m, d.l, d.lam, d.mu) == (6, 3, 2, 2, 1)
    assert d.H == ((0,), (3,))
    assert d.proper
    assert cls.relative is None  # lam = 2 != 0
    assert cls.partial is None
    assert cls.almost is not None and (cls.almost.lam, cls.almost.t) == (1, 4)


def test_classify_z9_counterexample():
    cls = classify(Z9, S(Z9, "0,1,3,4"))
    assert cls.proper_bidifference
    a_sets = {w.A for w in cls.bidifference_witnesses}
    assert ((0,), (1,), (3,), (6,), (8,)) in a_sets
    # both assignments have |A| = 5; the counting identity forbids l = 4
    assert {w.l for w in cls.bidifference_witnesses} == {5}
    for w in cls.bidifference_witnesses:
        assert cls.m * (cls.m - 1) == w.lam * (w.l - 1) + w.mu * (cls.n - w.l)
    assert cls.divisible is None
    assert cls.partial is None
    assert cls.nested_divisible is None


def test_classify_paley13():
    qr = tuple((r,) for r in residues(13, 2))
    cls = classify(Z13, qr)
    assert (cls.partial.lam, cls.partial.mu) == (2, 3)
    assert cls.partial.proper and not cls.partial.zero_in_s
    assert cls.reversible and cls.regular
    assert cls.gaussian is not None and (cls.gaussian.lam, cls.gaussian.mu) == (2, 3)
    assert cls.almost is not None and (cls.almost.lam, cls.almost.t) == (2, 6)


def test_difference_set_degenerate_memberships():
    cls = classify(Z7, S(Z7, "0,1,3"))
    assert cls.is_difference_set and cls.difference_set_lambda == 1
    assert cls.bidifference and not cls.proper_bidifference
    assert cls.bidifference_witnesses == ()
    # prime order: no informative subgroup witness exists
    assert cls.divisible is None
    # S + {0} and QR + {0} work degenerately with lam = mu
    assert cls.partial is not None and cls.partial.lam == cls.partial.mu == 1
    assert cls.gaussian is not None and not cls.gaussian.proper
    # composite order difference sets pick up a degenerate subgroup witness
    g16 = GroupSpec((4, 4))
    axes = S(g16, "(0,1),(0,2),(0,3),(1,0),(2,0),(3,0)")
    cls16 = classify(g16, axes)
    assert cls16.difference_set_lambda == 2
    assert cls16.divisible is not None and not cls16.divisible.proper


def test_reversal():
    assert reversal(Z7, S(Z7, "0,1,3")) == ((0,), (6,), (4,))
    qr = tuple((r,) for r in residues(13, 2))
    assert frozenset(reversal(Z13, qr)) == frozenset(qr)
    g = GroupSpec((2, 2, 2))
    sub = S(g, "(0,0,0),(1,0,1)")
    assert reversal(g, sub) == sub
    assert reversal(Z7, reversal(Z7, S(Z7, "0,1,3"))) == S(Z7, "0,1,3")


def test_pds_zero_toggle_roundtrip():
    qr = tuple((r,) for r in residues(13, 2))
    plus, params = pds_zero_toggle(Z13, qr)
    assert params == (13, 7, 4, 3)
    assert (0,) in plus
    back, params2 = pds_zero_toggle(Z13, plus, params=(13, 7, 4, 3))
    assert params2 == (13, 6, 2, 3)
    assert frozenset(back) == frozenset(qr)


def test_pds_zero_toggle_rejects_non_pds():
    with pytest.raises(InvalidOperationError):
        pds_zero_toggle(Z9, S(Z9, "0,1,3,4"))
    qr = tuple((r,) for r in residues(13, 2))
    with pytest.raises(InvalidOperationError):
        pds_zero_toggle(Z13, qr, params=(13, 6, 1, 3))


def test_nested_chain_z2z4():
    chain = nested_divisible_chain(Z2Z4, S(Z2Z4, "(0,0),(1,0),(0,1)"))
    assert chain.t == 3
    assert chain.lambdas == (2, 0, 1)
    assert chain.subgroups[1] == ((0, 0), (1, 0))
    assert chain.subgroups[2] == ((0, 0), (0, 2), (1, 0), (1, 2))
    assert is_proper(chain)


@pytest.mark.parametrize(
    "group,subset,t",
    [
        ("Z7", "0,1,3", 1),
        ("Z6", "0,1,3", 2),
        ("Z8", "0,1,4", 3),
        ("Z2xZ2", "(0,0),(0,1),(1,0)", 1),
        ("Z2xZ4", "(0,0),(0,1),(0,2)", 2),
        ("Z2xZ4", "(0,0),(1,0),(0,1)", 3),
    ],
)
def test_chain_starts_at_the_trivial_subgroup(group, subset, t):
    # t = 1 and t = 2 come from the fast paths, t = 3 from the subgroup DAG
    g = parse_group(group)
    cls = classify(g, S(g, subset))
    assert cls.nested_divisible.t == t
    assert cls.nested_divisible.subgroups[0] == (g.zero,)
    zero = g.zero[0] if g.rank == 1 else list(g.zero)
    assert cls.as_dict()["nested_divisible"]["subgroups"][0] == [zero]


def test_nested_chain_z6_and_z9():
    chain = nested_divisible_chain(Z6, S(Z6, "0,1,3"))
    assert chain.t == 2
    assert chain.lambdas == (2, 1)
    assert chain.subgroups[1] == ((0,), (3,))
    assert nested_divisible_chain(Z9, S(Z9, "0,1,3,4")) is None


def test_nested_chain_difference_set_is_t1():
    chain = nested_divisible_chain(Z7, S(Z7, "0,1,3"))
    assert chain.t == 1 and chain.lambdas == (1,)


def test_is_proper_params():
    assert is_proper((6, 3, 2, 2, 1))
    assert not is_proper((6, 3, 2, 2, 2))
    padded = NestedChain(
        Z6,
        S(Z6, "0,1,3"),
        (((0,),), ((0,), (3,)), ((0,), (2,), (4,)) , tuple(sorted(Z6.elements()))),
        (2, 1, 1),
    )
    # a hand-built 3-step chain over the Z6 set is not minimal
    assert not is_proper(padded)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_translation_invariance(data):
    g = data.draw(st.sampled_from([Z6, Z9, Z2Z4, GroupSpec((2, 2, 2))]))
    els = g.elements()
    m = data.draw(st.integers(min_value=2, max_value=4))
    subset = tuple(sorted(data.draw(st.permutations(els))[:m]))
    c = data.draw(st.sampled_from(els))
    base = classify(g, subset)
    moved = classify(g, tuple(sorted(translate(g, subset, c))))
    assert base.difference_set_lambda == moved.difference_set_lambda
    key = lambda cls: tuple(sorted((w.l, w.lam, w.mu) for w in cls.bidifference_witnesses))
    assert key(base) == key(moved)
    assert (base.divisible is None) == (moved.divisible is None)
    if base.divisible is not None:
        bd, md = base.divisible, moved.divisible
        assert (bd.l, bd.lam, bd.mu) == (md.l, md.lam, md.mu)


def test_counting_identity_all_witnesses():
    for g, text in [(Z6, "0,1,3"), (Z9, "0,1,3,4"), (Z13, "1,3,4,9,10,12")]:
        cls = classify(g, S(g, text))
        m, n = cls.m, cls.n
        for w in cls.bidifference_witnesses:
            assert m * (m - 1) == w.lam * (w.l - 1) + w.mu * (n - w.l)


def test_gaussian_counting_identity_quartics():
    # p = 8q+5: the fourth powers have lam + mu = q against the residue split
    for p, q in [(13, 1), (29, 3), (37, 4)]:
        g = GroupSpec((p,))
        r4 = tuple((z,) for z in residues(p, 4))
        cls = classify(g, r4)
        assert cls.gaussian is not None
        assert cls.gaussian.lam + cls.gaussian.mu == q


def test_split_level_chain():
    # a count value may repeat across non-adjacent annuli: lambdas (2, 1, 2);
    # neither {0}+level is a subgroup, so only the lattice walk can find this
    S = ((0, 0), (0, 1), (0, 2), (1, 0))
    chain = nested_divisible_chain(Z2Z4, S)
    assert chain.t == 3
    assert chain.lambdas == (2, 1, 2)
    assert chain.subgroups[2] == ((0, 0), (0, 2), (1, 1), (1, 3))
    cls = classify(Z2Z4, S)
    assert not any(
        frozenset(w.A) in {frozenset(a) for a in chain.subgroups} for w in cls.bidifference_witnesses
    )


def brute_force_chains(g, dc):
    """Every chain {0} = A_0 < ... < A_t = G with count-constant annuli, with its lambdas."""
    sets = [h.as_set() for h in all_subgroups(g)]
    out = []

    def extend(path, lambdas):
        if len(path[-1]) == g.order:
            out.append((tuple(tuple(sorted(a)) for a in path), tuple(lambdas)))
            return
        for b in sets:
            if path[-1] < b:
                vals = {dc.counts[x] for x in b - path[-1]}
                if len(vals) == 1:
                    extend(path + [b], lambdas + [vals.pop()])

    extend([frozenset([g.zero])], [])
    return out


def test_order8_match_chains_are_minimal_and_lexicographically_first():
    # the exhaustion-order8 matches: every chain the library reports is the
    # lexicographically first among the shortest count-constant chains
    target = (1 / 3, math.sqrt(5) / 3)
    checked = 0
    for g in abelian_groups_of_order(8):
        for r in enumerate_and_classify(SearchJob(g, 3, target_angles=target)).records:
            dc = difference_counts(g, r.subset)
            chain = nested_divisible_chain(g, r.subset)
            found = brute_force_chains(g, dc)
            assert chain is not None and found
            shortest = min(len(lams) for _, lams in found)
            assert chain.t == shortest
            assert all(a != b for a, b in zip(chain.lambdas, chain.lambdas[1:]))
            assert (chain.subgroups, chain.lambdas) == min(
                c for c in found if len(c[1]) == shortest
            )
            assert is_proper(chain)
            checked += 1
    assert checked == 32 + 16


def test_is_proper_rejects_longer_valid_chain():
    # Z8 {0,1,3}: {0} < {0,4} < Z8 is minimal; inserting {0,2,4,6} keeps every
    # annulus count-constant but is one step longer
    Z8 = GroupSpec((8,))
    subset = S(Z8, "0,1,3")
    chain = nested_divisible_chain(Z8, subset)
    assert chain.subgroups[1:] == (((0,), (4,)), tuple(Z8.elements()))
    assert chain.lambdas == (0, 1)
    padded_groups = (((0,),), ((0,), (4,)), ((0,), (2,), (4,), (6,)), tuple(Z8.elements()))
    found = dict(brute_force_chains(Z8, difference_counts(Z8, subset)))
    assert found[padded_groups] == (0, 1, 1)
    padded = NestedChain(Z8, subset, padded_groups, (0, 1, 1))
    assert not is_proper(padded)


def test_count_rows_offsets_promote_past_int16():
    # 4096 rows of Z21 put row offsets b * n up to 85,995, past int16's 32,767
    from framelab.diffsets import _count_rows

    g = GroupSpec((21,))
    rows = np.array(list(itertools.combinations(range(21), 4))[:4096])
    _, counts = _count_rows(g, rows)
    for i in (0, 1600, 4095):
        diffs = Counter((b - a) % 21 for a in rows[i].tolist() for b in rows[i].tolist() if a != b)
        assert counts[i].tolist() == [diffs[x] for x in range(1, 21)]


def test_pair_indices_from_coordinates_match_the_table_gather():
    # a single subset's pair indices come from coordinates, a search block's
    # from the difference index table: the same entries and dtype
    from framelab.diffsets import _pair_block
    from framelab.groups import _pair_differences

    blocks = 0
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                rows = np.array(list(itertools.combinations(range(n), m)))
                got, want = _pair_differences(g, rows), _pair_block(g, rows)
                assert got.dtype == want.dtype and np.array_equal(got, want), (g, m)
                blocks += 1
    assert blocks == 118


def test_difference_counts_invariant_is_a_typed_error(monkeypatch):
    # pair indices that send every difference to the identity lose every
    # pair: a single subset's, from coordinates, and a block's, from the table
    from framelab import diffsets
    from framelab.errors import InvariantError

    def zeros(g, rows):
        return np.zeros(rows.shape + rows.shape[-1:], dtype=np.int16)

    monkeypatch.setattr(diffsets, "_pair_differences", zeros)
    with pytest.raises(InvariantError):
        difference_counts(Z6, S(Z6, "0,1,3"))
    monkeypatch.undo()
    monkeypatch.setattr(diffsets, "_pair_block", zeros)
    with pytest.raises(InvariantError):
        diffsets.classify_rows(Z6, np.array([[0, 1, 3], [0, 1, 2]]))
