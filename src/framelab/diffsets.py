"""Difference structures of generator subsets and the set-class taxonomy.

The difference structure of S counts, for every nonzero group element x, the
ordered pairs of distinct members of S differing by x.  Membership in each
set class is decided directly from that count map:

  * difference set      - one count value everywhere,
  * bidifference set    - two count values; both (lambda, mu) assignments of
                          the witness A = {0} + level are recorded,
  * divisible/relative  - some witness A is a subgroup (relative: lambda = 0),
  * partial             - A = S + {0} works as a witness,
  * gaussian            - prime cyclic group and A = quadratic residues + {0},
  * almost              - the two count values differ by one,
  * nested divisible    - a chain of subgroups with count-constant annuli.

Constant counts make a difference set a degenerate member of the two-level
classes wherever a witness exists; witnesses {0} and the whole group are
excluded as uninformative.

Scalar classify is the single-subset API (the CLI, frame reports, verify)
and the reference the row kernel is tested against.  The row kernel,
classify_rows, gives the search flags of a whole block of subsets from one
bincount count matrix; search uses it and never calls classify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .arith import is_prime, residues
from .errors import InvalidElementError, InvalidOperationError, InvalidSubsetError
from .groups import Element, GroupSpec, _difference_index_table, all_subgroups


@dataclass(frozen=True)
class DiffCounts:
    """Representation counts of every nonzero element as a difference of S."""

    group: GroupSpec
    subset: tuple[Element, ...]
    counts: dict[Element, int]
    levels: dict[int, tuple[Element, ...]]

    @property
    def m(self) -> int:
        return len(self.subset)

    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.levels))

    def row(self) -> np.ndarray:
        """The counts in element order, as one int64 row."""
        return np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))


def difference_counts(g: GroupSpec, S: Sequence[Element]) -> DiffCounts:
    """Count the ordered difference pairs of S over every nonzero element.

    One bincount over the rows and columns of S in the group's difference
    index table; the diagonal lands on the identity (index 0), which is
    dropped.  counts and levels follow element order, so level tuples come
    out sorted.
    """
    subset = tuple(S)
    idx = np.array([g.index(x) for x in subset])  # validates every element
    if len(set(subset)) != len(subset):
        raise InvalidSubsetError("subset has duplicate elements")
    if len(subset) < 2:
        raise InvalidSubsetError("difference structure needs at least 2 elements")
    diffs = _difference_index_table(g)[idx[:, None], idx]
    raw = np.bincount(diffs.ravel(), minlength=g.order)[1:].tolist()
    counts = dict(zip(g.elements()[1:], raw))
    levels: dict[int, list[Element]] = {}
    for x, c in counts.items():
        levels.setdefault(c, []).append(x)
    m = len(subset)
    assert sum(raw) == m * (m - 1)
    return DiffCounts(g, subset, counts, {c: tuple(v) for c, v in levels.items()})


def reversal(g: GroupSpec, S: Iterable[Element]) -> tuple[Element, ...]:
    """Elementwise negation -S, order preserved."""
    return tuple(g.neg(x) for x in S)


def translate(g: GroupSpec, S: Iterable[Element], c: Element) -> tuple[Element, ...]:
    return tuple(g.add(x, c) for x in S)


# ---------------------------------------------------------------------------
# Class records


@dataclass(frozen=True)
class BidifferenceWitness:
    A: tuple[Element, ...]
    l: int
    lam: int
    mu: int


@dataclass(frozen=True)
class DivisibleRecord:
    H: tuple[Element, ...]
    l: int
    lam: int
    mu: int
    proper: bool


@dataclass(frozen=True)
class RelativeRecord:
    H: tuple[Element, ...]
    l: int
    mu: int


@dataclass(frozen=True)
class PartialRecord:
    lam: int
    mu: int
    zero_in_s: bool
    proper: bool


@dataclass(frozen=True)
class GaussianRecord:
    p: int
    lam: int
    mu: int
    proper: bool


@dataclass(frozen=True)
class AlmostRecord:
    """(n, m, lam, t)-almost difference set; t elements are hit exactly lam times."""

    lam: int
    t: int


@dataclass(frozen=True)
class NestedChain:
    """Subgroup chain {0} = A_0 < A_1 < ... < A_t = G with count-constant annuli."""

    group: GroupSpec
    subset: tuple[Element, ...]
    subgroups: tuple[tuple[Element, ...], ...]
    lambdas: tuple[int, ...]
    proper: bool

    @property
    def t(self) -> int:
        return len(self.lambdas)

    @property
    def sizes(self) -> tuple[int, ...]:
        """|A_1|, ..., |A_t|."""
        return tuple(len(a) for a in self.subgroups[1:])


@dataclass(frozen=True)
class Classification:
    group: GroupSpec
    subset: tuple[Element, ...]
    counts: DiffCounts
    difference_set_lambda: int | None
    bidifference: bool
    proper_bidifference: bool
    bidifference_witnesses: tuple[BidifferenceWitness, ...]
    divisible: DivisibleRecord | None
    relative: RelativeRecord | None
    partial: PartialRecord | None
    gaussian: GaussianRecord | None
    almost: AlmostRecord | None
    nested_divisible: NestedChain | None
    reversible: bool
    regular: bool

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def m(self) -> int:
        return len(self.subset)

    @property
    def is_difference_set(self) -> bool:
        return self.difference_set_lambda is not None

    def _el(self, x: Element):
        return x[0] if self.group.rank == 1 else list(x)

    def _els(self, xs: Iterable[Element]) -> list:
        return [self._el(x) for x in xs]

    def as_dict(self) -> dict:
        c = self
        return {
            "schema": 1,
            "group": c.group.name,
            "subset": c._els(c.subset),
            "n": c.n,
            "m": c.m,
            "difference_set": (
                None if c.difference_set_lambda is None else {"lam": c.difference_set_lambda}
            ),
            "bidifference": c.bidifference,
            "proper_bidifference": c.proper_bidifference,
            "bidifference_witnesses": [
                {"A": c._els(w.A), "l": w.l, "lam": w.lam, "mu": w.mu}
                for w in c.bidifference_witnesses
            ],
            "divisible": (
                None
                if c.divisible is None
                else {
                    "H": c._els(c.divisible.H),
                    "l": c.divisible.l,
                    "lam": c.divisible.lam,
                    "mu": c.divisible.mu,
                    "proper": c.divisible.proper,
                }
            ),
            "relative": (
                None
                if c.relative is None
                else {"H": c._els(c.relative.H), "l": c.relative.l, "mu": c.relative.mu}
            ),
            "partial": (
                None
                if c.partial is None
                else {
                    "lam": c.partial.lam,
                    "mu": c.partial.mu,
                    "zero_in_s": c.partial.zero_in_s,
                    "proper": c.partial.proper,
                }
            ),
            "gaussian": (
                None
                if c.gaussian is None
                else {
                    "p": c.gaussian.p,
                    "lam": c.gaussian.lam,
                    "mu": c.gaussian.mu,
                    "proper": c.gaussian.proper,
                }
            ),
            "almost": (
                None if c.almost is None else {"lam": c.almost.lam, "t": c.almost.t}
            ),
            "nested_divisible": (
                None
                if c.nested_divisible is None
                else {
                    "t": c.nested_divisible.t,
                    "lambdas": list(c.nested_divisible.lambdas),
                    "subgroups": [c._els(a) for a in c.nested_divisible.subgroups],
                    "proper": c.nested_divisible.proper,
                }
            ),
            "reversible": c.reversible,
            "regular": c.regular,
        }


def _constant_split(
    dc: DiffCounts, A: frozenset[Element]
) -> tuple[int, int] | None:
    """(lam, mu) when counts are constant on A\\{0} and on the complement."""
    g = dc.group
    inside = {dc.counts[x] for x in A if x != g.zero}
    outside = {dc.counts[x] for x in dc.counts if x not in A}
    if len(inside) != 1 or len(outside) != 1:
        return None
    return inside.pop(), outside.pop()


def classify(g: GroupSpec, S: Sequence[Element], chain: bool = True) -> Classification:
    """Full taxonomy membership of a generator subset."""
    dc = difference_counts(g, S)
    subset = dc.subset
    n, m = g.order, dc.m
    values = dc.values()
    zero = g.zero

    diff_lambda = values[0] if len(values) == 1 else None

    witnesses: list[BidifferenceWitness] = []
    if len(values) == 2:
        for lam, mu in ((values[0], values[1]), (values[1], values[0])):
            A = tuple(sorted(dc.levels[lam] + (zero,)))
            witnesses.append(BidifferenceWitness(A, len(A), lam, mu))

    bidifference = len(values) <= 2
    proper_bidifference = len(values) == 2

    divisible = relative = None
    if proper_bidifference:
        row = dc.row()
        for w in witnesses:
            if _level_is_subgroup(g, row, w.lam):
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

    nested = nested_divisible_chain(g, subset, _dc=dc) if chain else None

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


def _level_is_subgroup(g: GroupSpec, row: np.ndarray, lam: int) -> bool:
    """Whether {0} + the level of lam is a subgroup, given the counts as one row."""
    return np.packbits(row == lam).tobytes() in _subgroup_keys(g)


@lru_cache(maxsize=None)
def _subgroup_keys(g: GroupSpec) -> frozenset[bytes]:
    """Each subgroup's membership over the nonzero elements, as packed bits."""
    keys = set()
    for h in all_subgroups(g):
        mask = np.zeros(g.order, dtype=bool)
        mask[[g.index(x) for x in h.elements]] = True
        keys.add(np.packbits(mask[1:]).tobytes())
    return frozenset(keys)


# ---------------------------------------------------------------------------
# Nested divisible chains


def nested_divisible_chain(
    g: GroupSpec, S: Sequence[Element], _dc: DiffCounts | None = None
) -> NestedChain | None:
    """Minimal-length subgroup chain whose annuli are count-constant.

    Shortest path from the trivial subgroup to the full group in the DAG
    whose edges H -> H' require H < H' and a single count value on H' \\ H;
    among minimal chains the lexicographically smallest is returned.  Minimal
    chains automatically have distinct adjacent lambdas (equal neighbours
    could be merged into a shorter chain).
    """
    dc = _dc if _dc is not None else difference_counts(g, S)
    values = dc.values()
    whole = tuple(sorted(g.elements()))

    # one count value: the two-term chain {0} < G always works
    if len(values) == 1:
        return NestedChain(g, dc.subset, ((g.zero,), whole), (values[0],), proper=True)

    # two count values: a chain of length 2 exists iff a witness is a subgroup,
    # and at most one of the two witnesses can be (index arithmetic on n)
    row = dc.row()
    if len(values) == 2:
        for lam in values:
            if _level_is_subgroup(g, row, lam):
                A = tuple(sorted(dc.levels[lam] + (g.zero,)))
                mu = values[1] if lam == values[0] else values[0]
                return NestedChain(
                    g, dc.subset, ((g.zero,), A, whole), (lam, mu), proper=True,
                )

    dag = _chain_dag(g)
    total, usable = _edge_sums(dag, row[None])
    # {0} lies in every other subgroup, so the first len(rank) - 1 edges leave it
    if not usable[0, : len(dag.rank) - 1].any():
        return None

    # distance to G over usable edges, sources taken largest first; each
    # subgroup keeps the edge to its lexicographically first nearest successor
    edges = np.flatnonzero(usable[0])
    src, dst = dag.src[edges].tolist(), dag.dst[edges].tolist()
    lams = (total[0, edges] // dag.size[edges]).tolist()
    rank = dag.rank
    full = len(rank) - 1
    INF = len(rank)
    dist = [INF] * len(rank)
    dist[full] = 0
    step: dict[int, int] = {}
    for e in reversed(range(len(edges))):
        i, j = src[e], dst[e]
        d = dist[j] + 1
        if d < dist[i] or (d == dist[i] and rank[j] < rank[dst[step[i]]]):
            dist[i] = d
            step[i] = e
    if dist[0] == INF:
        return None

    chain_idx = [0]
    lambdas = []
    while chain_idx[-1] != full:
        e = step[chain_idx[-1]]
        chain_idx.append(dst[e])
        lambdas.append(lams[e])
    subgroups = tuple(dag.subgroups[i] for i in chain_idx)
    return NestedChain(g, dc.subset, subgroups, tuple(lambdas), proper=True)


@dataclass(frozen=True)
class _ChainDag:
    """Every strict inclusion H_i < H_j between subgroups, as candidate chain edges.

    Subgroups are numbered as in all_subgroups (trivial first, G last); edge
    e is H_src[e] < H_dst[e], edges sorted by (src, dst), and size[e] is
    |H_dst \\ H_src|.  out_starts[i] is the first edge out of H_i for every
    subgroup but G (which has none); rank[i] is H_i's place in element-list
    order; member[i] is H_i's nonzero elements as a 0/1 row.
    """

    subgroups: tuple[tuple[Element, ...], ...]
    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    out_starts: np.ndarray
    rank: list[int]
    member: np.ndarray


_DAG_CHUNK = 1 << 20  # bound on the entries of each matrix built at once


@lru_cache(maxsize=None)
def _chain_dag(g: GroupSpec) -> _ChainDag:
    subs = all_subgroups(g)
    count, n = len(subs), g.order
    pos = {x: i for i, x in enumerate(g.elements())}
    member = np.zeros((count, n), dtype=bool)
    member[
        np.repeat(np.arange(count), [h.order for h in subs]),
        [pos[x] for h in subs for x in h.elements],
    ] = True
    sizes = member.sum(axis=1)

    # H_i < H_j iff |H_i & H_j| = |H_i| < |H_j|; intersections by blocks of rows
    weights = member.astype(np.float32)
    rows = max(1, _DAG_CHUNK // count)
    src_parts, dst_parts = [], []
    for a in range(0, count, rows):
        block = sizes[a : a + rows, None]
        i, j = np.nonzero((weights[a : a + rows] @ weights.T == block) & (sizes > block))
        src_parts.append(i + a)
        dst_parts.append(j)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)

    rank = [0] * count
    for r, k in enumerate(sorted(range(count), key=lambda i: subs[i].elements)):
        rank[k] = r
    return _ChainDag(
        tuple(h.elements for h in subs), src, dst, sizes[dst] - sizes[src],
        np.searchsorted(src, np.arange(count - 1)), rank, member[:, 1:].astype(np.float64),
    )


def _edge_sums(dag: _ChainDag, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of nonzero-element counts and per edge: the annulus sum and usability.

    An edge H_i < H_j is usable when the counts c on its annulus are
    constant, that is when (sum c)^2 = |H_j \\ H_i| * sum c^2 (equality in
    Cauchy-Schwarz); the constant is then sum c / |H_j \\ H_i|.  Both sums
    are differences of per-subgroup sums, which one product with the
    membership matrix gives for a batch of rows.  Counts are at most m and
    add up to m(m - 1), so with n <= SUBGROUP_ORDER_BOUND every sum and
    product is an integer below 2^53: the float product and the int64 test
    are exact.
    """
    c = counts.astype(np.float64)
    s1 = (c @ dag.member.T).astype(np.int64)
    s2 = ((c * c) @ dag.member.T).astype(np.int64)
    total = s1[:, dag.dst] - s1[:, dag.src]
    return total, total * total == dag.size * (s2[:, dag.dst] - s2[:, dag.src])


# ---------------------------------------------------------------------------
# Row kernel: the search flags of a block of subsets at once

# the boolean columns of classify_rows; its other columns (lam, mu, l, t) are
# integers with -1 where undefined
ROW_FLAGS = (
    "difference_set", "bidifference", "proper_bidifference", "divisible", "relative",
    "partial", "gaussian", "almost", "nested_divisible", "reversible", "regular",
    "proper_chain",
)

_EDGE_CHUNK = 1 << 14  # bound on the (rows, edges) entries of a chain-length batch


def classify_rows(g: GroupSpec, rows: np.ndarray) -> dict[str, np.ndarray]:
    """Search flags of many subsets, given as a (B, m) array of element indices.

    Returns one length-B column per flag of a search record, in record
    order: the class flags of classify, lam/mu/l of the first bidifference
    witness (the subgroup one first) and the minimal chain length t.  Every
    column comes from one (B, n-1) count matrix, a bincount of the rows'
    difference indices.  The number of levels comes from sorted rows; a
    two-level witness is a subgroup when its packed level mask is among the
    subgroup keys; t is 1 or 2 on those fast paths, and only the remaining
    rows walk the chain DAG, breadth-first from G for all of them at once.
    """
    rows = np.asarray(rows, dtype=np.intp)
    B, m = rows.shape
    n = g.order
    if m < 2:
        raise InvalidSubsetError("difference structure needs at least 2 elements")
    if rows.size and not 0 <= rows.min() <= rows.max() < n:
        raise InvalidElementError(f"element indices must lie in [0, {n})")
    member = np.zeros((B, n), dtype=bool)
    member[np.arange(B)[:, None], rows] = True
    if (member.sum(axis=1) != m).any():
        raise InvalidSubsetError("subset has duplicate elements")

    table = _difference_index_table(g)
    diffs = table[rows[:, :, None], rows[:, None, :]] + n * np.arange(B)[:, None, None]
    counts = np.bincount(diffs.ravel(), minlength=B * n).reshape(B, n)[:, 1:]

    ordered = np.sort(counts, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    levels = 1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)
    one, two = levels == 1, levels == 2

    # two levels: the witness {0} + level(lam) is tried with lam = lo, then hi
    lam = np.where(one | two, lo, -1)
    mu = np.where(one, lo, np.where(two, hi, -1))
    witness = np.zeros(B, dtype=bool)
    keys = _subgroup_keys(g)
    pair = np.flatnonzero(two)
    low = counts[pair] == lo[pair, None]
    for i, a, b in zip(pair.tolist(), np.packbits(low, axis=1), np.packbits(~low, axis=1)):
        if a.tobytes() in keys:
            witness[i] = True
        elif b.tobytes() in keys:
            witness[i] = True
            lam[i], mu[i] = hi[i], lo[i]
    size = np.count_nonzero(counts == lam[:, None], axis=1) + 1
    # one level: divisible when any subgroup lies strictly between {0} and G
    divisible = (two & witness) | (one & (len(keys) > 2))

    partial = _constant_split_rows(counts, member[:, 1:])  # A = S + {0}
    q = _residue_mask(g)
    gaussian = np.zeros(B, dtype=bool) if q is None else _constant_split_rows(counts, q)

    reversible = (member[:, table[:, 0]] == member).all(axis=1)  # table[:, 0] negates

    t = np.where(one, 1, np.where(two & witness, 2, -1))
    deep = np.flatnonzero(t < 0)
    if deep.size:
        t[deep] = _chain_lengths(_chain_dag(g), counts[deep])
    nested = t > 0
    return {
        "difference_set": one,
        "bidifference": levels <= 2,
        "proper_bidifference": two,
        "divisible": divisible,
        "relative": divisible & (lam == 0),
        "partial": partial,
        "gaussian": gaussian,
        "almost": two & (hi == lo + 1),
        "nested_divisible": nested,
        "reversible": reversible,
        "regular": reversible & ~member[:, 0],
        "lam": lam,
        "mu": mu,
        "l": np.where(two, size, -1),
        "t": t,
        "proper_chain": nested,
    }


def _constant_split_rows(counts: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per row: one count value on the inside columns and one on the rest, both nonempty."""

    def constant(mask: np.ndarray) -> np.ndarray:
        return np.where(mask, counts, big).min(axis=1) == np.where(mask, counts, -1).max(axis=1)

    big = counts.max(initial=0) + 1
    return constant(inside) & constant(~inside)


@lru_cache(maxsize=None)
def _residue_mask(g: GroupSpec) -> np.ndarray | None:
    """Quadratic residues among the nonzero elements of Z_p, p an odd prime; else None."""
    if g.rank != 1 or g.order <= 2 or not is_prime(g.order):
        return None
    q = np.zeros(g.order - 1, dtype=bool)
    q[np.array(residues(g.order, 2)) - 1] = True
    return q


def _chain_lengths(dag: _ChainDag, counts: np.ndarray) -> np.ndarray:
    """Minimal chain length for each row of nonzero-element counts, -1 if none.

    Edges are tested by _edge_sums.  Level k of a breadth-first pass from G
    holds the subgroups first reached over a usable edge into level k - 1,
    for every row at once; t is the level of {0}.  Batches take as many rows
    as keep (rows, edges) arrays within _EDGE_CHUNK.
    """
    t = np.full(len(counts), -1)
    top = len(dag.rank) - 1  # G; every other subgroup is an edge source
    step = max(1, _EDGE_CHUNK // len(dag.src))
    for a in range(0, len(counts), step):
        _, usable = _edge_sums(dag, counts[a : a + step])
        reached = np.zeros((len(usable), top + 1), dtype=bool)
        reached[:, top] = True
        frontier = reached.copy()
        found = t[a : a + step]  # a view: levels land in t
        for level in range(1, top + 1):
            new = np.logical_or.reduceat(usable & frontier[:, dag.dst], dag.out_starts, axis=1)
            new &= ~reached[:, :top]
            found[new[:, 0]] = level
            new[found > 0] = False
            if not new.any():
                break
            reached[:, :top] |= new
            frontier[:, :top] = new
            frontier[:, top] = False
    return t


def is_proper(obj) -> bool:
    """Properness of a chain (no shorter chain fits) or of bidifference params."""
    if isinstance(obj, NestedChain):
        minimal = nested_divisible_chain(obj.group, obj.subset)
        return minimal is not None and obj.t == minimal.t
    if isinstance(obj, (BidifferenceWitness, DivisibleRecord, GaussianRecord, PartialRecord)):
        return obj.lam != obj.mu
    if isinstance(obj, (tuple, list)):
        *_, lam, mu = obj
        return lam != mu
    raise InvalidOperationError(f"cannot decide properness of {obj!r}")


# ---------------------------------------------------------------------------
# Partial-difference-set zero toggle


def pds_zero_toggle(
    g: GroupSpec,
    S: Sequence[Element],
    params: tuple[int, int, int, int] | None = None,
) -> tuple[tuple[Element, ...], tuple[int, int, int, int]]:
    """Remove or adjoin the identity of a reversible partial difference set.

    Removal (0 in S) yields a regular (n, m-1, lam-2, mu) set; adjoining to a
    regular set yields a reversible (n, m+1, lam+2, mu) set.  The output is
    re-verified by classification.
    """
    subset = tuple(S)
    cls = classify(g, subset, chain=False)
    if cls.partial is None or not cls.reversible:
        raise InvalidOperationError("zero toggle needs a reversible partial difference set")
    n, m = cls.n, cls.m
    cur = (n, m, cls.partial.lam, cls.partial.mu)
    if params is not None and tuple(params) != cur:
        raise InvalidOperationError(f"stated parameters {params} do not match {cur}")
    zero = g.zero
    if zero in subset:
        new_set = tuple(sorted(x for x in subset if x != zero))
        new_params = (n, m - 1, cls.partial.lam - 2, cls.partial.mu)
    else:
        if not cls.regular:
            raise InvalidOperationError("adjoining the identity needs a regular set")
        new_set = tuple(sorted(subset + (zero,)))
        new_params = (n, m + 1, cls.partial.lam + 2, cls.partial.mu)
    check = classify(g, new_set, chain=False)
    if check.partial is None or (
        check.n,
        check.m,
        check.partial.lam,
        check.partial.mu,
    ) != new_params:
        raise InvalidOperationError("toggled set failed re-classification")
    return new_set, new_params
