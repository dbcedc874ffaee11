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
    sets = [h.as_set() for h in all_subgroups(g)]
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


def _blocks(top):
    # every subset of the groups of order <= top, one block per (group, m),
    # and the reduced 4-subsets of the five groups of order 16
    for n in range(2, top + 1):
        for g in abelian_groups_of_order(n):
            for m in range(2, n + 1):
                yield g, np.array(list(itertools.combinations(range(n), m)))
    for g in abelian_groups_of_order(16):
        rest = np.array(list(itertools.combinations(range(1, 16), 3)))
        yield g, np.concatenate((np.zeros((len(rest), 1), dtype=int), rest), axis=1)


def _bound_cases():
    # the blocks to order 12, and the full 4-subsets of Z21
    yield from _blocks(12)
    yield GroupSpec((21,)), np.array(list(itertools.combinations(range(21), 4)))


def test_level_bounds_are_exact(monkeypatch):
    # the columns with both bounds equal those with neither: the chain pass
    # on every row that missed the fast paths, and in place of the level
    # mask the oracle's min/max split test on every row
    bounded = [diffsets.classify_rows(g, rows) for g, rows in _bound_cases()]
    monkeypatch.setattr(diffsets, "_chain_height", lambda g: 1 << 30)
    rows_seen = 0
    for (g, rows), cols in zip(_bound_cases(), bounded, strict=True):
        free = diffsets.classify_rows(g, rows)
        member, counts = diffsets._count_rows(g, rows)
        free["partial"] = scalar_oracle.oracle_constant_split_rows(counts, member[:, 1:])
        q = diffsets._residue_mask(g)
        if q is not None:
            free["gaussian"] = scalar_oracle.oracle_constant_split_rows(counts, q)
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
    count_rows = diffsets._count_rows
    chunks = []
    monkeypatch.setattr(
        diffsets, "_count_rows", lambda g, rows, *pairs: chunks.append(rows) or count_rows(g, rows, *pairs)
    )
    enumerate_and_classify(z21)
    sent, searched = sum(calls), list(chunks)
    # the pass sees each chunk's distinct count rows off the fast paths (t not 1 or 2)
    distinct = 0
    for rows in searched:
        _, counts = count_rows(z21.group, rows)
        t = diffsets.classify_rows(z21.group, rows)["t"]
        distinct += len(np.unique(counts[(t < 0) | (t > 2)], axis=0))
    assert sent == distinct
    assert sum(map(len, searched)) == 5_985


def _assert_same_kernel(want, got, where):
    cols, level, counts = got
    assert cols.keys() == want[0].keys(), where
    for k in cols:
        assert cols[k].dtype == want[0][k].dtype, (where, k)
        assert np.array_equal(cols[k], want[0][k]), (where, k)
    assert (level is None) == (want[1] is None), where
    if level is not None:  # one row per distinct count row, in no fixed order
        assert np.array_equal(np.unique(level, axis=0), np.unique(want[1], axis=0)), where
    assert np.array_equal(counts, want[2]), where


def test_block_kernel_matches_row_kernel():
    # a block decides each distinct count row once and gathers the columns
    # back; a one-row call shares nothing.
    rows_seen = deep = 0
    for g, rows in _blocks(10):
        single = [diffsets._row_kernel(g, rows[i : i + 1]) for i in range(len(rows))]
        levels = [lv for _, lv, _ in single if lv is not None]
        want = (
            {k: np.concatenate([c[k] for c, _, _ in single]) for k in single[0][0]},
            np.concatenate(levels) if levels else None,
            np.concatenate([c for _, _, c in single]),
        )
        _assert_same_kernel(want, diffsets._row_kernel(g, rows), (g, rows.shape))
        assert np.array_equal(diffsets.classify_rows(g, rows)["t"], want[0]["t"])
        rows_seen += len(rows)
        deep += len(levels)
    assert rows_seen == 2_988 + 5 * 455
    assert deep > 0


def test_key_collisions_fall_back_to_whole_rows(monkeypatch):
    # constant weights key every row by its sum, m(m - 1): every key of a
    # block collides, so only the row comparison keeps distinct rows apart
    blocks = list(_blocks(10))
    want = [diffsets._row_kernel(g, rows) for g, rows in blocks]
    monkeypatch.setattr(diffsets, "_row_weights", lambda width: np.ones(width, dtype=np.int64))
    merged = 0
    for (g, rows), w in zip(blocks, want, strict=True):
        _, counts = diffsets._count_rows(g, rows)
        merged += len(np.unique(counts, axis=0)) > 1
        _assert_same_kernel(w, diffsets._row_kernel(g, rows), (g, rows.shape))
    assert merged > 0


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
    assert np.array_equal(dag.member, np.array([m[1:] for m in masks], dtype=np.float64))
    by_elements = sorted(range(len(subs)), key=lambda i: subs[i].elements)
    assert [by_elements.index(i) for i in range(len(subs))] == dag.rank.tolist()


def test_classify_counts_once(monkeypatch):
    count_rows = diffsets._count_rows
    calls = []

    def counted(g, rows, *pairs):
        calls.append(len(rows))
        return count_rows(g, rows, *pairs)

    monkeypatch.setattr(diffsets, "_count_rows", counted)
    for g, S in [(GroupSpec((6,)), ((0,), (1,), (3,))), (GroupSpec((2, 4)), ((0, 0), (1, 0), (0, 1)))]:
        calls.clear()
        got = classify(g, S)
        assert calls == [1]
        assert got.counts == scalar_oracle.oracle_difference_counts(g, S)


def test_classify_capped_before_any_table():
    g = GroupSpec((5003,))
    for call in (classify, diffsets.difference_counts):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="difference counts capped at order 4096"):
                call(g, ((0,), (1,), (3,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 1024 * 1024, call


def test_classify_at_the_order_cap_builds_no_table():
    # the pairs of one subset come from its coordinates, so classify at the
    # cap allocates O(n + m^2), not the 32 MB (n, n) int16 difference table
    g = GroupSpec((4093,))
    tracemalloc.start()
    try:
        cls = classify(g, ((0,), (1,), (3,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.proper_bidifference
    assert cls.counts.levels[1] == ((1,), (2,), (3,), (4090,), (4091,), (4092,))
    assert peak < 5 * 1024 * 1024
