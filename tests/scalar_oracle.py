"""Scalar code the library's array kernels replaced, kept as a test oracle.

classify below is the set-based classifier the library used before
diffsets.classify became a one-row view of diffsets.classify_rows: counts
from a double loop over ordered pairs, two-level witnesses and splits
tested with Python sets, and the minimal subgroup chain as a shortest path
recomputed from the subgroup lattice for every subset.  None of it calls
the library's count kernel, row kernel or chain DAG, so tests that compare
the library against it are not comparing the library with itself.

oracle_modulation_operator and oracle_is_real_frame are the frames
functions before they read the difference index table and integer phase
columns: one GroupSpec.sub per generator pair, one exact Fraction phase
per (generator, element).
"""

from fractions import Fraction

import numpy as np

from framelab.arith import is_prime, residues
from framelab.diffsets import (
    AlmostRecord,
    BidifferenceWitness,
    Classification,
    DiffCounts,
    DivisibleRecord,
    GaussianRecord,
    NestedChain,
    PartialRecord,
    RelativeRecord,
    reversal,
)
from framelab.groups import all_subgroups, character_phase


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
        return NestedChain(g, dc.subset, ((g.zero,), whole), (values[0],))
    if len(values) == 2:
        for lam in values:
            A = frozenset(dc.levels[lam]) | {g.zero}
            if A in sets:
                mu = values[1] if lam == values[0] else values[0]
                return NestedChain(
                    g, dc.subset, ((g.zero,), tuple(sorted(A)), whole), (lam, mu),
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
    return NestedChain(g, dc.subset, tuple(subs[i].elements for i in chain_idx), lambdas)


def _constant_split(dc, A):
    """(lam, mu) when counts are constant on A\\{0} and on the complement."""
    g = dc.group
    inside = {dc.counts[x] for x in A if x != g.zero}
    outside = {dc.counts[x] for x in dc.counts if x not in A}
    if len(inside) != 1 or len(outside) != 1:
        return None
    return inside.pop(), outside.pop()


def _level_is_subgroup(g, dc, lam):
    """Whether {0} + the level of lam is a subgroup."""
    return frozenset(dc.levels[lam]) | {g.zero} in {h.as_set() for h in all_subgroups(g)}


def classify(g, S):
    """Full taxonomy membership of a generator subset."""
    dc = oracle_difference_counts(g, S)
    subset = dc.subset
    n = g.order
    values = dc.values()
    zero = g.zero

    diff_lambda = values[0] if len(values) == 1 else None

    witnesses = []
    if len(values) == 2:
        for lam, mu in ((values[0], values[1]), (values[1], values[0])):
            A = tuple(sorted(dc.levels[lam] + (zero,)))
            witnesses.append(BidifferenceWitness(A, len(A), lam, mu))

    bidifference = len(values) <= 2
    proper_bidifference = len(values) == 2

    divisible = relative = None
    if proper_bidifference:
        for w in witnesses:
            if _level_is_subgroup(g, dc, w.lam):
                divisible = DivisibleRecord(w.A, w.l, w.lam, w.mu, w.lam != w.mu)
                break
    elif diff_lambda is not None:
        for h in all_subgroups(g):
            if 1 < h.order < n:
                divisible = DivisibleRecord(
                    h.elements, h.order, diff_lambda, diff_lambda, False
                )
                break
    if divisible is not None and divisible.lam == 0:
        relative = RelativeRecord(divisible.H, divisible.l, divisible.mu)

    partial = None
    A_s = frozenset(subset) | {zero}
    if len(A_s) < n:
        split = _constant_split(dc, A_s)
        if split is not None:
            lam, mu = split
            partial = PartialRecord(lam, mu, zero in subset, lam != mu)

    gaussian = None
    if g.rank == 1 and g.factors[0] > 2 and is_prime(g.factors[0]):
        p = g.factors[0]
        A_q = frozenset((r,) for r in residues(p, 2)) | {zero}
        split = _constant_split(dc, A_q)
        if split is not None:
            lam, mu = split
            gaussian = GaussianRecord(p, lam, mu, lam != mu)

    almost = None
    if len(values) == 2 and values[1] == values[0] + 1:
        lam = values[0]
        almost = AlmostRecord(lam, len(dc.levels[lam]))

    nested = oracle_nested_divisible_chain(g, subset, _dc=dc)

    rev = frozenset(reversal(g, subset)) == frozenset(subset)
    return Classification(
        group=g,
        subset=subset,
        counts=dc,
        difference_set_lambda=diff_lambda,
        bidifference=bidifference,
        proper_bidifference=proper_bidifference,
        bidifference_witnesses=tuple(witnesses),
        divisible=divisible,
        relative=relative,
        partial=partial,
        gaussian=gaussian,
        almost=almost,
        nested_divisible=nested,
        reversible=rev,
        regular=rev and zero not in subset,
    )


def oracle_modulation_operator(f, xi):
    """Closed-form entries of X_xi: (a, b) is n/m when g_b - g_a = xi."""
    entries = np.zeros((f.m, f.m), dtype=complex)
    for a, ga in enumerate(f.generators):
        for b, gb in enumerate(f.generators):
            if f.group.sub(gb, ga) == xi:
                entries[a, b] = f.n / f.m
    return entries


def oracle_is_real_frame(f):
    half = Fraction(1, 2)
    return all(
        character_phase(f.group, g, x) in (0, half)
        for g in f.generators
        for x in f.group.elements()
    )
