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
from framelab.search import abelian_groups_of_order


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
