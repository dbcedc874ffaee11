"""Differential test: classify, the row kernel and the chain DAG vs the scalar oracle.

The oracle (scalar_oracle.py) is the set-based classifier the library used
before classify became a one-row call of the row kernel: a double loop over
ordered pairs for the counts, set tests for witnesses and splits, and a
shortest path recomputed with Python set operations for every subset.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import scalar_oracle
from framelab import diffsets
from framelab.diffsets import classify
from framelab.errors import CapacityError
from framelab.groups import GroupSpec, all_subgroups
from framelab.search import SearchJob, abelian_groups_of_order, enumerate_and_classify


def _cases():
    for n in range(2, 11):
        for g in abelian_groups_of_order(n):
            for m in range(2, n + 1):
                for S in itertools.combinations(g.elements(), m):
                    yield g, S
    for g in abelian_groups_of_order(16):
        for rest in itertools.combinations(g.elements()[1:], 3):
            yield g, (g.zero,) + rest


def test_kernels_match_scalar_oracle():
    seen = 0
    chains = 0
    for g, S in _cases():
        got = classify(g, S)
        want = scalar_oracle.classify(g, S)
        assert list(got.counts.counts.items()) == list(want.counts.counts.items()), (g, S)
        assert list(got.counts.levels.items()) == list(want.counts.levels.items()), (g, S)
        a, b = got.nested_divisible, want.nested_divisible
        assert (a is None) == (b is None), (g, S)
        if a is not None:
            assert (a.subgroups, a.lambdas) == (b.subgroups, b.lambdas), (g, S)
            chains += a.t >= 3
        assert got.as_dict() == want.as_dict(), (g, S)
        seen += 1
    # every subset of the 13 groups of order <= 10, plus 5 * C(15, 3) at order 16
    assert seen == 2_988 + 5 * 455
    assert chains > 0  # the DAG walk itself ran, not just the fast paths


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (4, 4), (2, 8)])
def test_dag_edges_are_strict_inclusions(factors):
    g = GroupSpec(factors)
    dag = diffsets._chain_dag(g)
    sets = [frozenset(h) for h in dag.subgroups]
    pairs = [(i, j) for i in range(len(sets)) for j in range(len(sets)) if sets[i] < sets[j]]
    assert list(zip(dag.src.tolist(), dag.dst.tolist())) == pairs
    assert dag.size.tolist() == [len(sets[j] - sets[i]) for i, j in pairs]
    nonzero = g.elements()[1:]
    for i, h in enumerate(sets):
        assert dag.member[i].tolist() == [float(x in h) for x in nonzero]


def test_deep_classify_runs_one_level_pass(monkeypatch):
    levels = diffsets._chain_levels
    calls = []

    def counted(dag, counts):
        calls.append(len(counts))
        return levels(dag, counts)

    monkeypatch.setattr(diffsets, "_chain_levels", counted)
    g = GroupSpec((2, 4))
    chain = classify(g, ((0, 0), (1, 0), (0, 1))).nested_divisible
    assert chain.t == 3
    assert chain == scalar_oracle.oracle_nested_divisible_chain(g, ((0, 0), (1, 0), (0, 1)))
    assert calls == [1]


def _bound_cases():
    # every subset of the groups of order <= 12, the reduced 4-subsets of the
    # five groups of order 16, and the full 4-subsets of Z21
    for n in range(2, 13):
        for g in abelian_groups_of_order(n):
            for m in range(2, n + 1):
                yield g, np.array(list(itertools.combinations(range(n), m)))
    for g in abelian_groups_of_order(16):
        rest = np.array(list(itertools.combinations(range(1, 16), 3)))
        yield g, np.concatenate((np.zeros((len(rest), 1), dtype=int), rest), axis=1)
    yield GroupSpec((21,)), np.array(list(itertools.combinations(range(21), 4)))


def test_level_bounds_are_exact(monkeypatch):
    # the columns with both bounds equal those with neither: the chain pass
    # on every row that missed the fast paths, the splits on every row
    bounded = [diffsets.classify_rows(g, rows) for g, rows in _bound_cases()]
    monkeypatch.setattr(diffsets, "_chain_height", lambda g: 1 << 30)
    rows_seen = 0
    for (g, rows), cols in zip(_bound_cases(), bounded, strict=True):
        free = diffsets.classify_rows(g, rows)
        member, counts = diffsets._count_rows(g, rows)
        free["partial"] = diffsets._constant_split_rows(counts, member[:, 1:])
        q = diffsets._residue_mask(g)
        if q is not None:
            free["gaussian"] = diffsets._constant_split_rows(counts, q)
        assert cols.keys() == free.keys()
        for k in cols:
            assert np.array_equal(cols[k], free[k]), (g, rows.shape, k)
        rows_seen += len(rows)
    assert rows_seen == 13_190 + 5 * 455 + 5_985


def test_chain_pass_skips_rows_the_height_rules_out(monkeypatch):
    # Omega(21) = 2, so no Z21 row can carry a chain of three or more steps;
    # Z2^4 (Omega = 4) still sends its deep rows through the pass
    levels = diffsets._chain_levels
    calls = []

    def counted(dag, counts):
        calls.append(len(counts))
        return levels(dag, counts)

    monkeypatch.setattr(diffsets, "_chain_levels", counted)
    z21 = SearchJob(GroupSpec((21,)), 4)
    enumerate_and_classify(z21)
    assert calls == []
    enumerate_and_classify(SearchJob(GroupSpec((2, 2, 2, 2)), 4, mode="reduced"))
    assert sum(calls) > 0
    calls.clear()
    monkeypatch.setattr(diffsets, "_chain_height", lambda g: 1 << 30)
    enumerate_and_classify(z21)
    assert sum(calls) == 5_943  # every Z21 row but the 42 on the fast paths


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (4, 4), (2, 8), (12,), (2, 2, 6), (3, 9)])
def test_lattice_views_match_element_tuples(factors):
    # the subgroup keys and the DAG's member and rank rows, derived again
    # from the Subgroup element tuples with GroupSpec.index
    g = GroupSpec(factors)
    subs = all_subgroups(g)
    masks = []
    for h in subs:
        mask = np.zeros(g.order, dtype=bool)
        mask[[g.index(x) for x in h.elements]] = True
        masks.append(mask)
    assert diffsets._subgroup_keys(g) == {np.packbits(m[1:]).tobytes() for m in masks}
    dag = diffsets._chain_dag(g)
    assert dag.subgroups == tuple(h.elements for h in subs)
    assert np.array_equal(dag.member, np.array([m[1:] for m in masks], dtype=np.float64))
    by_elements = sorted(range(len(subs)), key=lambda i: subs[i].elements)
    assert [by_elements.index(i) for i in range(len(subs))] == dag.rank.tolist()


def test_classify_counts_once(monkeypatch):
    count_rows = diffsets._count_rows
    calls = []

    def counted(g, rows):
        calls.append(len(rows))
        return count_rows(g, rows)

    monkeypatch.setattr(diffsets, "_count_rows", counted)
    for g, S in [(GroupSpec((6,)), ((0,), (1,), (3,))), (GroupSpec((2, 4)), ((0, 0), (1, 0), (0, 1)))]:
        calls.clear()
        got = classify(g, S)
        assert calls == [1]
        assert got.counts == scalar_oracle.oracle_difference_counts(g, S)


def test_classify_capped_before_any_table():
    g = GroupSpec((5003,))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            classify(g, ((0,), (1,), (3,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
