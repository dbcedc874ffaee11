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

Counts come from one count step, _count_rows (validation, the pair block,
and one bincount): a single subset's pairs come from its coordinates
(groups._pair_differences), a search block's from the difference index table
(_pair_block), which the class representatives read too.  The row kernel,
classify_rows, decides every class of a block.  Every class but partial
depends on S only through its count row, which translation and negation
leave unchanged (c_{S+g} = c_{-S} = c_S), so a block has few distinct rows:
the kernel makes each count-only decision, the chain pass included, once per
distinct count row and gathers the columns back; partial, reversible and
regular read S itself and run per row.  classify is the single-subset view
of the same kernel (the CLI, frame reports, verify): it runs it on one row,
takes its DiffCounts from the kernel's count row, and only builds the
records around the flags.  Subgroups are read from the group's one
membership matrix, groups._subgroup_lattice.  Minimal chains come from one
breadth-first pass over the subgroup inclusion DAG, _chain_levels: search
reads the chain length from it, and the scalar chain walks its levels.

One low-level mask per distinct count row (all True on one level) decides
the three two-level witnesses.  A witness A works when the counts are
constant on A and on the rest, both nonempty: on two levels A must be a
level, so the subgroup witness looks the packed mask and its complement up
among the subgroup keys, and gaussian and partial (A = S minus 0, per row)
compare the mask with A; on one level any nonempty A with a nonempty rest
works.  A row that misses both fast paths needs a chain of t >= 3, and t
is at least the number of levels (one count value per annulus) and at most
Omega(n), the number of prime factors of n with multiplicity; so only rows
with max(3, levels) <= Omega(n) reach the chain pass, and the others read
t = -1, as the pass would give them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .arith import factorize, is_prime, residues
from .errors import InvalidElementError, InvalidOperationError, InvalidSubsetError, InvariantError
from .groups import (
    Element, GroupSpec, _check_order, _difference_index_table, _negation_indices,
    _pair_differences, _subgroup_lattice, all_subgroups,
)


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


def difference_counts(g: GroupSpec, S: Sequence[Element]) -> DiffCounts:
    """Count the ordered difference pairs of S over every nonzero element.

    The count step on one row, pairs from coordinates; counts and levels
    follow element order, so level tuples come out sorted.
    """
    subset = tuple(S)
    rows = np.array([[g.index(x) for x in subset]])  # index validates
    _, counts = _count_rows(g, rows, _pair_differences(g, rows))
    return _diff_counts(g, subset, counts[0])


def _diff_counts(g: GroupSpec, subset: tuple[Element, ...], row: np.ndarray) -> DiffCounts:
    """The DiffCounts record of one count row of _count_rows."""
    counts = dict(zip(g.elements()[1:], row.tolist()))
    levels: dict[int, list[Element]] = {}
    for x, c in counts.items():
        levels.setdefault(c, []).append(x)
    return DiffCounts(g, subset, counts, {c: tuple(v) for c, v in levels.items()})


def _count_rows(
    g: GroupSpec, rows: np.ndarray, pairs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The one count step: validate a (B, m) block of element indices and count it.

    Returns (member, counts): member[b] marks row b's elements, counts[b]
    its ordered pairs differing by each nonzero element, in element order.
    pairs is the rows' pair block (_pair_block unless given), and one
    bincount counts its m^2 cells (row b offset by bn); counts is the
    bincount's columns 1..n-1.  The m diagonal cells of a row are its only
    identities: pairs that give the identity for two distinct elements lose
    that pair.  The order is bounded before anything of size n is built.
    """
    n = g.order
    _check_order(n, "difference counts")
    rows = np.asarray(rows, dtype=np.intp)
    B, m = rows.shape
    if m < 2:
        raise InvalidSubsetError("difference structure needs at least 2 elements")
    if rows.size and not 0 <= rows.min() <= rows.max() < n:
        raise InvalidElementError(f"element indices must lie in [0, {n})")
    member = np.zeros((B, n), dtype=bool)
    member.ravel()[(rows + n * np.arange(B)[:, None]).ravel()] = True
    if np.count_nonzero(member) != B * m:  # a row with a repeat marks fewer than m
        raise InvalidSubsetError("subset has duplicate elements")
    if pairs is None:
        pairs = _pair_block(g, rows)
    cells = pairs.reshape(B, m * m) + n * np.arange(B)[:, None]  # promotes: the offsets overflow int16
    counts = np.bincount(cells.ravel(), minlength=B * n).reshape(B, n)
    if (counts[:, 0] != m).any():
        raise InvariantError(f"difference counts of a subset do not add up to {m * (m - 1)}")
    return member, counts[:, 1:]


def _pair_block(g: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """(B, m, m) pair block of a (B, m) index block: entry [b, i, j] is the
    index of s_j - s_i in row b, one gather from the difference index table.

    Search blocks' groups._pair_differences.  The count step counts its
    cells; frames.class_representatives reads a row's translates S - s_i and
    s_j - S from its rows and columns.
    """
    n = g.order
    return _difference_index_table(g).take(rows[:, :, None] * n + rows[:, None, :])


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

    def _record(self, r) -> dict | None:
        """A class record as JSON: its fields in order, element sets as lists."""
        if r is None:
            return None
        d = {f.name: getattr(r, f.name) for f in fields(r)}
        for key in d.keys() & {"A", "H"}:
            d[key] = self._els(d[key])
        return d

    def as_dict(self) -> dict:
        c, chain = self, self.nested_divisible
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
            "bidifference_witnesses": [c._record(w) for w in c.bidifference_witnesses],
            **{
                k: c._record(getattr(c, k))
                for k in ("divisible", "relative", "partial", "gaussian", "almost")
            },
            "nested_divisible": None if chain is None else {
                "t": chain.t,
                "lambdas": list(chain.lambdas),
                "subgroups": [c._els(a) for a in chain.subgroups],
                "proper": True,  # schema 1 key: a returned chain is minimal by construction
            },
            "reversible": c.reversible,
            "regular": c.regular,
        }


def classify(g: GroupSpec, S: Sequence[Element]) -> Classification:
    """Full taxonomy membership of a generator subset: classify_rows on one row.

    Every class decision (count levels, the subgroup witness, the partial
    and Gaussian splits, the chain length t, reversibility) is the row
    kernel's, on pairs from coordinates (no n x n table).  This function
    only builds the records around it: the
    bidifference witness sets, the divisible H, the partial and Gaussian
    (lam, mu) read from the count row, the almost t, and the chain subgroups.
    """
    subset = tuple(S)
    rows = np.array([[g.index(x) for x in subset]])  # index validates
    cols, level, (row,) = _row_kernel(g, rows, _pair_differences(g, rows))
    dc = _diff_counts(g, subset, row)
    zero = g.zero
    k = {name: col[0].item() for name, col in cols.items()}
    values = dc.values()
    lam, mu = k["lam"], k["mu"]

    witnesses = []
    if k["proper_bidifference"]:
        for a, b in ((values[0], values[1]), (values[1], values[0])):
            A = tuple(sorted(dc.levels[a] + (zero,)))
            witnesses.append(BidifferenceWitness(A, len(A), a, b))

    divisible = relative = None
    if k["divisible"]:
        if k["difference_set"]:  # any subgroup strictly between {0} and G
            H = next(h.elements for h in all_subgroups(g) if 1 < h.order < g.order)
        else:
            H = tuple(sorted(dc.levels[lam] + (zero,)))
        divisible = DivisibleRecord(H, len(H), lam, mu, lam != mu)
    if k["relative"]:
        relative = RelativeRecord(divisible.H, divisible.l, divisible.mu)

    partial = gaussian = almost = None
    if k["partial"]:
        a, b = _split(row, np.isin(np.arange(1, g.order), rows))
        partial = PartialRecord(a, b, zero in subset, a != b)
    if k["gaussian"]:
        a, b = _split(row, _residue_mask(g))
        gaussian = GaussianRecord(g.order, a, b, a != b)
    if k["almost"]:
        almost = AlmostRecord(values[0], len(dc.levels[values[0]]))

    return Classification(
        group=g,
        subset=subset,
        counts=dc,
        difference_set_lambda=lam if k["difference_set"] else None,
        bidifference=k["bidifference"],
        proper_bidifference=k["proper_bidifference"],
        bidifference_witnesses=tuple(witnesses),
        divisible=divisible,
        relative=relative,
        partial=partial,
        gaussian=gaussian,
        almost=almost,
        nested_divisible=_chain(dc, row, k["t"], divisible, level),
        reversible=k["reversible"],
        regular=k["regular"],
    )


def _split(row: np.ndarray, inside: np.ndarray) -> tuple[int, int]:
    """(lam, mu): a count row at the first nonzero element inside the mask and outside it."""
    return int(row[inside.argmax()]), int(row[(~inside).argmax()])


@lru_cache(maxsize=None)
def _subgroup_keys(g: GroupSpec) -> frozenset[bytes]:
    """Each subgroup's membership over the nonzero elements, as packed bits."""
    return frozenset(row.tobytes() for row in np.packbits(_subgroup_lattice(g)[:, 1:], axis=1))


# ---------------------------------------------------------------------------
# Nested divisible chains


def nested_divisible_chain(g: GroupSpec, S: Sequence[Element]) -> NestedChain | None:
    """Minimal-length subgroup chain whose annuli are count-constant, or None.

    The nested_divisible record of classify: among minimal chains the
    lexicographically smallest (see _chain).  Minimal chains automatically
    have distinct adjacent lambdas (equal neighbours could be merged into a
    shorter chain).
    """
    return classify(g, S).nested_divisible


def _chain(
    dc: DiffCounts, row: np.ndarray, t: int, divisible: DivisibleRecord | None,
    level: np.ndarray | None,
) -> NestedChain | None:
    """The chain of the row kernel's length t (-1: none) for dc and its count row.

    t = 1 is {0} < G and t = 2 is {0} < H < G, H the subgroup witness
    divisible.H.  A longer chain follows level, the (1, subgroups) output
    of the _chain_levels pass that gave t (the row kernel hands it over, so
    the pass runs once): from {0}, each step goes over a usable edge to
    the lowest-ranked subgroup (first in element-list order) one level
    nearer G, so the chain is the lexicographically first of the minimal
    ones.
    """
    g = dc.group
    whole = tuple(sorted(g.elements()))
    if t < 0:
        return None
    if t == 1:
        return NestedChain(g, dc.subset, ((g.zero,), whole), dc.values())
    if t == 2:
        return NestedChain(
            g, dc.subset, ((g.zero,), divisible.H, whole), (divisible.lam, divisible.mu)
        )
    dag = _chain_dag(g)
    total, usable = _edge_sums(dag, row[None])
    down = usable[0] & (level[0, dag.dst] == level[0, dag.src] - 1)
    path, lambdas = [0], []
    while level[0, path[-1]] > 0:
        e = np.flatnonzero(down & (dag.src == path[-1]))
        e = e[np.argmin(dag.rank[dag.dst[e]])]
        path.append(int(dag.dst[e]))
        lambdas.append(int(total[0, e] // dag.size[e]))
    subs = all_subgroups(g)
    return NestedChain(g, dc.subset, tuple(subs[i].elements for i in path), tuple(lambdas))


@dataclass(frozen=True)
class _ChainDag:
    """Every strict inclusion H_i < H_j between subgroups, as candidate chain edges.

    Subgroups are numbered as in all_subgroups (trivial first, G last); edge
    e is H_src[e] < H_dst[e], edges sorted by (src, dst), and size[e] is
    |H_dst \\ H_src|.  out_starts[i] is the first edge out of H_i for every
    subgroup but G (which has none); rank[i] is H_i's place in element-list
    order; member[i] is H_i's nonzero elements as a 0/1 row.
    """

    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    out_starts: np.ndarray
    rank: np.ndarray
    member: np.ndarray


_DAG_CHUNK = 1 << 20  # bound on the entries of each matrix built at once


@lru_cache(maxsize=None)
def _chain_dag(g: GroupSpec) -> _ChainDag:
    subs, member = all_subgroups(g), _subgroup_lattice(g)
    count = len(member)
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

    rank = np.empty(count, dtype=np.int64)
    rank[sorted(range(count), key=lambda i: subs[i].elements)] = np.arange(count)
    return _ChainDag(
        src, dst, sizes[dst] - sizes[src],
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
# integers with -1 where undefined.  proper_chain is a schema-1 alias of
# nested_divisible: the chain behind t is minimal by construction.
ROW_FLAGS = (
    "difference_set", "bidifference", "proper_bidifference", "divisible", "relative",
    "partial", "gaussian", "almost", "nested_divisible", "reversible", "regular",
    "proper_chain",
)

_EDGE_CHUNK = 1 << 14  # bound on the (rows, edges) entries of a chain-length batch


def classify_rows(
    g: GroupSpec, rows: np.ndarray, pairs: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Search flags of many subsets, given as a (B, m) array of element indices.

    Returns one length-B column per flag of a search record, in record
    order: the class flags of classify, lam/mu/l of the first bidifference
    witness (the subgroup one first) and the minimal chain length t.  Every
    column comes from one (B, n-1) count matrix, a bincount of the rows'
    difference indices.  The count-only columns are computed once per
    distinct count row and gathered back; partial, reversible and regular
    are computed per row.  The number of levels comes from sorted rows; a
    two-level witness is a subgroup when its packed level mask is among the
    subgroup keys, and the partial and Gaussian witnesses are read off the
    same mask; t is 1 or 2 on those fast paths.  Of the remaining rows
    only those with max(3, levels) <= _chain_height(g) go through
    _chain_levels, breadth-first from G for all of them at once; the others
    read t = -1.  classify is this function on one row.  pairs is the rows'
    pair block (_pair_block), for a caller that already holds it; the count
    step gathers it otherwise.
    """
    return _row_kernel(g, rows, pairs)[0]


def _row_kernel(
    g: GroupSpec, rows: np.ndarray, pairs: np.ndarray | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray | None, np.ndarray]:
    """The columns of classify_rows, the _chain_levels output behind t, and the counts.

    Every count-only column (levels, lam/mu/l and the subgroup witness,
    divisible, relative, almost, gaussian, t) is computed once per distinct
    count row (_distinct_rows) and gathered back to the rows; partial,
    reversible and regular depend on S itself and are computed per row, and
    a one-row call takes the same path.  One low-level mask per distinct
    row decides the three two-level witnesses (_is_level).  The levels have
    one row per distinct count row that reached the chain pass (missed both
    fast paths, and max(3, levels) <= _chain_height(g)), in _distinct_rows
    order, as classify, their one reader, runs one row; None when no row
    reached it.  classify walks its deep chain on the levels and reads its
    DiffCounts, chain sums and (lam, mu) from the (B, n-1) counts, so the
    level pass and the count step run once.
    """
    member, counts = _count_rows(g, rows, pairs)
    B = len(counts)
    distinct, inverse = _distinct_rows(counts)
    U = len(distinct)

    ordered = np.sort(distinct, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    levels = 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
    one, two = levels == 1, levels == 2
    low = distinct == lo[:, None]  # the low level; all True on one level

    # two levels: the witness {0} + level(lam) is tried with lam = lo, then hi
    lam = np.where(one | two, lo, -1)
    mu = np.where(one, lo, np.where(two, hi, -1))
    witness = np.zeros(U, dtype=bool)
    keys = _subgroup_keys(g)
    pair = np.flatnonzero(two)
    mask = low[pair]
    for i, a, b in zip(pair.tolist(), np.packbits(mask, axis=1), np.packbits(~mask, axis=1)):
        if a.tobytes() in keys:
            witness[i] = True
        elif b.tobytes() in keys:
            witness[i] = True
            lam[i], mu[i] = hi[i], lo[i]
    size = (distinct == lam[:, None]).sum(axis=1) + 1
    # one level: divisible when any subgroup lies strictly between {0} and G
    divisible = (two & witness) | (one & (len(keys) > 2))
    # one level: the residues and the non-residues are both nonempty
    q = _residue_mask(g)
    gaussian = np.zeros(U, dtype=bool) if q is None else one | (two & _is_level(low, q))

    t = np.where(one, 1, np.where(two & witness, 2, -1))
    # a missed row needs t >= 3, and t >= levels (one count value per annulus)
    deep = np.flatnonzero((t < 0) & (np.maximum(levels, 3) <= _chain_height(g)))
    level = None
    if deep.size:
        level = _chain_levels(_chain_dag(g), distinct[deep])
        t[deep] = level[:, 0]

    # one stacked gather takes the count-only columns back to the rows
    levels, lam, mu, size, t, *flags = np.array(
        (levels, lam, mu, np.where(two, size, -1), t, divisible, gaussian, two & (hi == lo + 1))
    )[:, inverse]
    divisible, gaussian, almost = (f.astype(bool) for f in flags)
    one, two = levels == 1, levels == 2

    # per row: partial (A = S + {0}), reversible and regular read S itself
    inside = member[:, 1:]
    partial = two & _is_level(low[inverse], inside)
    partial |= one & inside.any(axis=1) & ~inside.all(axis=1)  # S \ {0} and the rest nonempty
    reversible = (member[:, _negation_indices(g)] == member).all(axis=1)
    nested = t > 0
    return {
        "difference_set": one,
        "bidifference": one | two,
        "proper_bidifference": two,
        "divisible": divisible,
        "relative": divisible & (lam == 0),
        "partial": partial,
        "gaussian": gaussian,
        "almost": almost,
        "nested_divisible": nested,
        "reversible": reversible,
        "regular": reversible & ~member[:, 0],
        "lam": lam,
        "mu": mu,
        "l": size,
        "t": t,
        "proper_chain": nested,
    }, level, counts


@lru_cache(maxsize=None)
def _row_weights(width: int) -> np.ndarray:
    """Fixed odd int64 weights: the keys of count rows of this width
    (_distinct_rows), and the element weights of a group of this order
    behind the set keys of frames.class_representatives.

    A change to them changes which translate represents a class, so the
    last bits of every reported angle.  The splitmix64 finaliser of
    1..width, so the weights are spread over all 64 bits without a random
    generator.
    """
    x = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(mult)
    x ^= x >> np.uint64(31)
    return (x | np.uint64(1)).view(np.int64)


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse): the distinct rows of counts, and distinct[inverse] == counts.

    Rows are keyed by one 64-bit product with _row_weights (wrapping) and
    grouped by sorting the keys.  The keys are exact only if no two distinct
    rows collide, so the gathered rows are compared with counts, and any
    difference falls back to deduplicating whole rows.
    """
    key = counts @ _row_weights(counts.shape[1])
    order = key.argsort()
    key = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    distinct = counts[order[new]]
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    if not (distinct[inverse] == counts).all():  # a key collision
        distinct, inverse = np.unique(counts, axis=0, return_inverse=True)
    return distinct, inverse


def _is_level(low: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per row of low-level masks: whether inside is the mask or its complement."""
    other = low != inside
    return ~other.any(axis=1) | other.all(axis=1)


@lru_cache(maxsize=None)
def _chain_height(g: GroupSpec) -> int:
    """Omega(n): the prime factors of n with multiplicity, the length of the
    longest subgroup chain of an abelian group of order n (a composition
    series), so no nested divisible chain is longer."""
    return sum(e for _, e in factorize(g.order))


@lru_cache(maxsize=None)
def _residue_mask(g: GroupSpec) -> np.ndarray | None:
    """Quadratic residues among the nonzero elements of Z_p, p an odd prime; else None."""
    if g.rank != 1 or g.order <= 2 or not is_prime(g.order):
        return None
    q = np.zeros(g.order - 1, dtype=bool)
    q[np.array(residues(g.order, 2)) - 1] = True
    return q


def _chain_levels(dag: _ChainDag, counts: np.ndarray) -> np.ndarray:
    """Each subgroup's level, per row of nonzero-element counts: (rows, subgroups).

    The row kernel passes distinct count rows only.  One breadth-first
    pass from G over the edges _edge_sums finds usable, for every row at
    once: G is level 0, and level k holds the subgroups first reached over
    a usable edge into level k - 1.  A row stops at the level that reaches
    {0}, so level[:, 0] is the minimal chain length t;
    -1 marks a subgroup the row did not reach (for {0}: no chain).  Levels
    are counted as levels waited unreached: an addition per level is cheaper
    than a masked store.  Batches keep (rows, edges) arrays within _EDGE_CHUNK.
    """
    top = len(dag.rank) - 1  # G; every other subgroup is an edge source
    level = np.full((len(counts), top + 1), -1)
    level[:, top] = 0
    step = max(1, _EDGE_CHUNK // len(dag.src))
    for a in range(0, len(counts), step):
        _, usable = _edge_sums(dag, counts[a : a + step])
        unreached = np.ones((len(usable), top), dtype=bool)
        waited = np.zeros((len(usable), top), dtype=int)
        frontier = np.zeros((len(usable), top + 1), dtype=bool)
        frontier[:, top] = True
        for _ in range(top):
            waited += unreached
            new = np.logical_or.reduceat(usable & frontier[:, dag.dst], dag.out_starts, axis=1)
            new &= unreached
            unreached ^= new
            new[~unreached[:, 0]] = False  # rows that reached {0} stop
            if not new.any():
                break
            frontier[:, :top] = new
            frontier[:, top] = False
        level[a : a + step, :top] = np.where(unreached, -1, waited)
    return level


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
    cls = classify(g, subset)
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
    check = classify(g, new_set).partial
    if check is None or (n, len(new_set), check.lam, check.mu) != new_params:
        raise InvalidOperationError("toggled set failed re-classification")
    return new_set, new_params
