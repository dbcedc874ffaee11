"""Differential test: table-driven difference counts and chain DAG vs the scalar code.

The two oracles below are the set-based implementations that the bincount
kernel and the cached subgroup DAG replaced, kept verbatim in logic: a
double loop over ordered pairs, and a shortest path recomputed with Python
set operations for every subset.
"""

import itertools

import pytest

from framelab import diffsets
from framelab.diffsets import DiffCounts, NestedChain, classify
from framelab.groups import GroupSpec, all_subgroups
from framelab.search import abelian_groups_of_order


def oracle_difference_counts(g, S):
    subset = tuple(S)
    raw = {}
    for a in subset:
        for b in subset:
            if a != b:
                d = g.sub(a, b)
                raw[d] = raw.get(d, 0) + 1
    counts = {x: raw.get(x, 0) for x in g.elements() if x != g.zero}
    levels = {}
    for x, c in counts.items():
        levels.setdefault(c, []).append(x)
    return DiffCounts(g, subset, counts, {c: tuple(sorted(v)) for c, v in levels.items()})


def oracle_nested_divisible_chain(g, S, _dc=None):
    dc = _dc if _dc is not None else oracle_difference_counts(g, S)
    n = g.order
    values = dc.values()
    whole = tuple(sorted(g.elements()))
    subs = all_subgroups(g)
    sets = [h.as_set() for h in subs]
    if len(values) == 1:
        return NestedChain(g, dc.subset, ((g.zero,), whole), (values[0],), proper=True)
    if len(values) == 2:
        for lam in values:
            A = frozenset(dc.levels[lam]) | {g.zero}
            if A in sets:
                mu = values[1] if lam == values[0] else values[0]
                return NestedChain(
                    g, dc.subset, ((g.zero,), tuple(sorted(A)), whole),
                    (lam, mu), proper=True,
                )
    sizes = [len(s) for s in sets]
    full = next(i for i, s in enumerate(sets) if len(s) == n)
    triv = next(i for i, s in enumerate(sets) if len(s) == 1)

    def annulus_value(i, j):
        vals = {dc.counts[x] for x in sets[j] - sets[i]}
        return vals.pop() if len(vals) == 1 else None

    def successors(i):
        return [
            j for j in range(len(subs))
            if sizes[j] > sizes[i] and sets[i] < sets[j] and annulus_value(i, j) is not None
        ]

    INF = float("inf")
    dist = [INF] * len(subs)
    dist[full] = 0
    for i in sorted(range(len(subs)), key=lambda t: -sizes[t]):
        if i == full:
            continue
        for j in successors(i):
            dist[i] = min(dist[i], dist[j] + 1)
    if dist[triv] == INF:
        return None
    chain_idx = [triv]
    cur = triv
    while cur != full:
        cur = min(
            (j for j in successors(cur) if dist[j] == dist[cur] - 1),
            key=lambda j: subs[j].elements,
        )
        chain_idx.append(cur)
    lambdas = tuple(
        annulus_value(chain_idx[k], chain_idx[k + 1]) for k in range(len(chain_idx) - 1)
    )
    return NestedChain(g, dc.subset, tuple(subs[i].elements for i in chain_idx), lambdas, True)


def _cases():
    for n in range(2, 11):
        for g in abelian_groups_of_order(n):
            for m in range(2, n + 1):
                for S in itertools.combinations(g.elements(), m):
                    yield g, S
    for g in abelian_groups_of_order(16):
        for rest in itertools.combinations(g.elements()[1:], 3):
            yield g, (g.zero,) + rest


def _oracle_classify(monkeypatch, g, S):
    with monkeypatch.context() as mp:
        mp.setattr(diffsets, "difference_counts", oracle_difference_counts)
        mp.setattr(diffsets, "nested_divisible_chain", oracle_nested_divisible_chain)
        return classify(g, S)


def test_kernels_match_scalar_oracle(monkeypatch):
    seen = 0
    chains = 0
    for g, S in _cases():
        got = classify(g, S)
        want = _oracle_classify(monkeypatch, g, S)
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
