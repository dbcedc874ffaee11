"""Exhaustive enumeration and classification of generator subsets.

Subsets stream in lexicographic order as (B, m) blocks of element indices,
cut at one rule, _block_rows(n) = max(MIN_BLOCK_ROWS, BLOCK_ENTRIES // n)
rows, so each (B, n) temporary of a block holds at most BLOCK_ENTRIES
entries whenever MIN_BLOCK_ROWS rows fit, and memory is bounded by the
group, not by the job.  A block is filled from the combinations stream by
one np.fromiter and classified with array operations.  One gather of the
difference index table, the block's pair block (diffsets._pair_block),
serves both the count step and the class representatives.  Angles are
taken once per translate-negation class of the block: each row maps to
its class representative (frames.class_representatives, the routine that
gives a frame its angles, so a record and a frame report share their
bits), and the distinct representatives get their magnitudes from
frames.character_magnitudes, their clusters and the ETF/BTF decision from
frames (frames.cluster_rows sorts and cuts the rows and takes every cluster
mean with one reduceat).  The set classes come from the diffsets row
kernel.  Records are built in bulk and only for subsets that pass the
filter; the records of one class share its immutable angle and
multiplicity tuples.  The serial path classifies each block as it
is cut; with jobs > 1 and more than one block a process pool classifies
them, with at most 2 * jobs blocks in flight.  Aggregation
merges blocks in index order, so reports are identical for any worker
count.  Full mode walks all C(n, m) subsets; reduced mode walks the
C(n-1, m-1) subsets containing the identity.  That is not one
representative per translation class: a class of m-subsets with trivial
stabilizer has m members containing the identity, and all of them are kept
and counted.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import factorize
from .diffsets import ROW_FLAGS, _distinct_rows, _pair_block, classify, classify_rows  # noqa: F401 (re-exports classify)
from .errors import CapacityError, DomainError
from .frames import DEFAULT_ANGLE_TOL, character_magnitudes, class_representatives, cluster_rows, etf_btf
from .groups import CHARACTER_TABLE_ORDER_BOUND, Element, GroupSpec, full_character_table

SUBSET_CAP = 10**7  # most subsets a job may enumerate, read when a search starts


@lru_cache(maxsize=None)
def abelian_groups_of_order(n: int) -> tuple[GroupSpec, ...]:
    """Every abelian group of order n, one per isomorphism type.

    Factor n into prime powers and take one partition of each exponent;
    factors are flattened and sorted ascending, e.g. order 8 gives
    Z2xZ2xZ2, Z2xZ4, Z8.  Cached: the result is a tuple of frozen specs.
    """
    if n < 2:
        raise DomainError(f"group order must be >= 2, got {n}")

    def partitions(k: int, cap: int | None = None) -> list[tuple[int, ...]]:
        if k == 0:
            return [()]
        cap = k if cap is None else cap
        out = []
        for first in range(min(k, cap), 0, -1):
            out.extend((first,) + tail for tail in partitions(k - first, first))
        return out

    groups = []
    per_prime = [
        [tuple(p**e for e in part) for part in partitions(exp)] for p, exp in factorize(n)
    ]
    for combo in itertools.product(*per_prime):
        factors = tuple(sorted(f for part in combo for f in part))
        groups.append(GroupSpec(factors))
    groups.sort(key=lambda g: g.factors)
    return tuple(groups)


@dataclass(frozen=True)
class SearchJob:
    group: GroupSpec
    m: int
    mode: str = "full"  # "full" | "reduced"
    filter_name: str | None = None  # etf | btf | difference-set | bidifference | ...
    target_angles: tuple[float, ...] | None = None
    angle_tol: float = DEFAULT_ANGLE_TOL
    jobs: int = 1

    def subset_count(self) -> int:
        n = self.group.order
        if self.mode == "reduced":
            return math.comb(n - 1, self.m - 1)
        return math.comb(n, self.m)


@dataclass(slots=True)
class SubsetRecord:
    """One kept subset of a search: its angles, the ETF/BTF decision and its flags.

    Mutable: find_btfs adds a key to each record's flags dict, so freezing
    the fields would not make a record immutable, and a slotted class
    without frozen=True is cheaper to build, once per kept row.  The angle
    and multiplicity tuples are immutable and shared by every record of one
    translate-negation class in a block; the flags dict is each record's
    own.  Records compare by value, do not hash, and pickle (the pool path
    returns them).
    """

    subset: tuple[Element, ...]
    angles: tuple[float, ...]
    multiplicities: tuple[int, ...]
    is_etf: bool
    is_btf: bool
    flags: dict


@dataclass
class SearchReport:
    job: SearchJob
    records: list[SubsetRecord]
    total_enumerated: int
    class_counts: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_dict(self) -> dict:
        g = self.job.group
        one = g.rank == 1
        return {
            "schema": 1,
            "group": g.name,
            "m": self.job.m,
            "mode": self.job.mode,
            "filter": self.job.filter_name,
            "target_angles": (
                None if self.job.target_angles is None else list(self.job.target_angles)
            ),
            "total_enumerated": self.total_enumerated,
            "match_count": len(self.records),
            "class_counts": dict(sorted(self.class_counts.items())),
            "runtime_seconds": self.runtime_seconds,
            "records": [
                {
                    "subset": [x[0] if one else list(x) for x in r.subset],
                    "angles": list(r.angles),
                    "multiplicities": list(r.multiplicities),
                    "is_etf": r.is_etf,
                    "is_btf": r.is_btf,
                    **r.flags,
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> list[list]:
        g = self.job.group
        rows: list[list] = [
            ["group", "subset", "n", "m", *CSV_FLAGS, *CSV_PARAMETERS, "angles"]
        ]
        for r in self.records:
            fl = r.flags
            rows.append([
                g.name,
                " ".join(g.format_element(x) for x in r.subset),
                g.order,
                self.job.m,
                *(fl.get(k, False) for k in CSV_FLAGS),
                *(fl.get(k, "") for k in CSV_PARAMETERS),
                ";".join(f"{a:.12g}" for a in r.angles),
            ])
        return rows


# classes counted in SearchReport.class_counts, in this order
COUNTED = (
    "difference_set", "bidifference", "divisible", "relative",
    "partial", "gaussian", "almost", "nested_divisible", "etf", "btf",
)
# a record's CSV columns: flags (False where absent), then parameters ("" where absent)
CSV_FLAGS = (
    "difference_set", "bidifference", "divisible", "relative", "partial",
    "gaussian", "almost", "nested_divisible", "reversible", "regular",
)
CSV_PARAMETERS = ("lam", "mu", "l", "t")
MIN_BLOCK_ROWS = 128  # least rows per block
BLOCK_ENTRIES = 2**15  # entries of a block's (rows, n) arrays: 512 KB complex


def _filter_column(job: SearchJob) -> str | None:
    """The column a job filters on; DomainError for an unknown filter name."""
    if job.filter_name is None:
        return None
    name = job.filter_name.replace("-", "_")
    if name not in ("etf", "btf") + ROW_FLAGS:
        raise DomainError(
            f"unknown filter {job.filter_name!r}; expected etf, btf or one of "
            + ", ".join(f.replace("_", "-") for f in ROW_FLAGS)
        )
    return name


def _block_rows(n: int) -> int:
    """Rows per block: as many as keep a block's (rows, n) temporaries within
    BLOCK_ENTRIES entries, but at least MIN_BLOCK_ROWS."""
    return max(MIN_BLOCK_ROWS, BLOCK_ENTRIES // n)


@lru_cache(maxsize=None)
def _element_objects(g: GroupSpec) -> np.ndarray:
    """elements() as a 1-D object array, so a block's subsets are one gather."""
    return np.fromiter(g.elements(), dtype=object, count=g.order)


def _flag_dicts(flags: dict[str, np.ndarray], pick: np.ndarray) -> list[dict]:
    """The record flag dicts of the picked rows, in pick order.

    A dict is built once per distinct row of the int64 flag columns
    (diffsets._distinct_rows), and each record gets its own copy, because
    find_btfs adds a key per record.  Values keep their types: bool for
    ROW_FLAGS, int or None (for -1) for lam, mu, l and t.
    """
    if not flags:
        return [{} for _ in pick]
    distinct, inverse = _distinct_rows(
        np.stack([v[pick] for v in flags.values()], axis=1, dtype=np.int64)
    )
    dicts = [
        {k: bool(v) if k in ROW_FLAGS else None if v < 0 else v for k, v in zip(flags, row)}
        for row in distinct.tolist()
    ]
    return list(map(dict.copy, map(dicts.__getitem__, inverse.tolist())))


def _classify_block(job: SearchJob, block: np.ndarray) -> tuple[list[SubsetRecord], np.ndarray]:
    """Records of the rows of a (B, m) index block that pass the job's filter,
    and the block's class counts in COUNTED order.

    The block's (B, n) temporaries are bounded by the cut (_block_rows).
    The pair block (diffsets._pair_block) is gathered once and read by the
    class representatives and by the count step of diffsets.classify_rows,
    which gives the set classes.  Angles depend on a row only through its
    translate-negation class, so they are taken once per class: the rows'
    class representatives (frames.class_representatives), their distinct
    rows and inverse (diffsets._distinct_rows), magnitudes of the distinct
    representatives from frames.character_magnitudes, their clusters, the
    ETF/BTF decision and the target-angle match, gathered back to the rows
    through the inverse.  Records are built only for kept rows, in bulk:
    subsets as one gather from the element object array, one angle and one
    multiplicity tuple per kept class, shared by all its records, and flag
    dicts once per distinct flag row, copied per record.
    """
    g, m, tol = job.group, job.m, job.angle_tol
    pairs = _pair_block(g, block)
    reps, inverse = _distinct_rows(class_representatives(g, pairs))
    c = cluster_rows(character_magnitudes(full_character_table(g), reps), tol)
    is_etf, is_btf = (v[inverse] for v in etf_btf(g.order, m, c))
    flags = classify_rows(g, block, pairs) if m >= 2 else {}
    cols = {**flags, "etf": is_etf, "btf": is_btf}
    totals = np.array([np.count_nonzero(cols[k]) if k in cols else 0 for k in COUNTED], np.int64)

    keep = np.ones(len(block), dtype=bool)
    if job.target_angles is not None:
        target = np.sort(job.target_angles)
        match = c.d == len(target)
        first = c.starts[:-1][match, None] + np.arange(len(target))
        match[match] = (np.abs(c.reps[first] - target) <= tol).all(axis=1)
        keep = match[inverse]
    column = _filter_column(job)
    if column is not None:
        keep &= cols[column] if column in cols else False
    pick = np.flatnonzero(keep)
    if not pick.size:
        return [], totals
    cls = inverse[pick]
    angles: list = [None] * len(reps)
    mults: list = [None] * len(reps)
    bounds, values, sizes = c.starts.tolist(), c.reps.tolist(), c.sizes.tolist()
    for k in np.flatnonzero(np.bincount(cls, minlength=len(reps))).tolist():  # kept classes
        angles[k] = tuple(values[bounds[k] : bounds[k + 1]])
        mults[k] = tuple(sizes[bounds[k] : bounds[k + 1]])
    row_class = cls.tolist()
    kept = list(map(
        SubsetRecord, zip(*_element_objects(g)[block[pick].T].tolist()),
        map(angles.__getitem__, row_class), map(mults.__getitem__, row_class),
        is_etf[pick].tolist(), is_btf[pick].tolist(), _flag_dicts(flags, pick),
    ))
    return kept, totals


def _index_blocks(job: SearchJob) -> Iterator[np.ndarray]:
    """Subsets in lexicographic order as (B, m) element-index blocks, B <= _block_rows(n).

    Each block is filled from the combinations stream by one np.fromiter;
    in reduced mode the stream gives the (m - 1)-subsets of 1..n-1 and
    column 0 holds the identity.
    """
    n, m = job.group.order, job.m
    lead = int(job.mode == "reduced")
    stream = itertools.combinations(range(lead, n), m - lead)
    total = job.subset_count()
    size = _block_rows(n)
    for start in range(0, total, size):
        rows = min(size, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(stream, rows))
        block = np.fromiter(flat, np.intp, count=rows * (m - lead)).reshape(rows, m - lead)
        if lead:
            block = np.concatenate((np.zeros((rows, 1), np.intp), block), axis=1)
        yield block


def _map_blocks(
    job: SearchJob, blocks: Iterator[np.ndarray], jobs: int
) -> Iterator[tuple[list[SubsetRecord], np.ndarray]]:
    """_classify_block over the blocks, results in block order.

    With jobs == 1 each block is classified as it is cut.  Otherwise a
    process pool of that many workers holds at most 2 * jobs blocks in
    flight: the next block is cut only when the oldest result is taken, so
    blocks cut ahead of the merge stay bounded, not the whole job.
    """
    if jobs == 1:
        yield from (_classify_block(job, b) for b in blocks)
        return
    from concurrent.futures import ProcessPoolExecutor  # jobs == 1 never loads it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        for b in blocks:
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
            pending.append(pool.submit(_classify_block, job, b))
        while pending:
            yield pending.popleft().result()


def enumerate_and_classify(job: SearchJob) -> SearchReport:
    """Classify every subset of the job, filter, aggregate deterministically.

    Blocks are classified as they are cut on the serial path; with jobs > 1
    and more than one block, a process pool classifies them, at most
    2 * jobs in flight.  Results merge in block order, so the report is the
    same for any worker count.
    """
    g = job.group
    n = g.order
    if not 1 <= job.m <= n:
        raise DomainError(f"m={job.m} out of range for order {n}")
    if job.mode not in ("full", "reduced"):
        raise DomainError(f"unknown mode {job.mode!r}")
    if job.jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {job.jobs}")
    if job.target_angles is not None and not np.isfinite(job.target_angles).all():
        raise DomainError(f"target angles must be finite, got {list(job.target_angles)}")
    _filter_column(job)
    if n > CHARACTER_TABLE_ORDER_BOUND:  # every block reads the full character table
        raise CapacityError(f"search capped at order {CHARACTER_TABLE_ORDER_BOUND}, got {n}")
    total = job.subset_count()
    if total > SUBSET_CAP:
        raise CapacityError(f"{total} subsets exceed cap {SUBSET_CAP}")

    t0 = time.perf_counter()
    jobs = 1 if total <= _block_rows(n) else job.jobs
    kept: list[SubsetRecord] = []
    totals = np.zeros(len(COUNTED), dtype=np.int64)
    for records, counts in _map_blocks(job, _index_blocks(job), jobs):
        kept.extend(records)
        totals += counts
    class_counts = {k: v for k, v in zip(COUNTED, totals.tolist()) if v}
    return SearchReport(job, kept, total, class_counts, time.perf_counter() - t0)


def find_btfs(group: GroupSpec, m: int) -> SearchReport:
    """All m-subsets generating two-angle tight frames, with their classifications.

    A serial search.  Records carry a `btf_without_bidifference` marker for
    the headline case: a two-angle frame whose generating set has three or
    more count levels.
    """
    job = SearchJob(group, m, filter_name="btf")
    report = enumerate_and_classify(job)
    for r in report.records:
        r.flags["btf_without_bidifference"] = bool(
            r.is_btf and not r.flags.get("bidifference")
        )
    return report


def cross_group_angle_match(n: int, m: int, target_angles: tuple[float, ...], jobs: int = 1) -> dict:
    """Match counts for a target angle set across every abelian group of order n.

    Angles match within DEFAULT_ANGLE_TOL.  Counts are split by whether the
    matching subset is a bidifference set or carries a nested divisible
    chain; proper_chain_matches is a schema-1 alias of
    nested_divisible_matches (a returned chain is minimal).
    """
    if n > 64:
        raise CapacityError(f"cross-group matching capped at order 64, got {n}")
    out = {"schema": 1, "order": n, "m": m, "target_angles": sorted(target_angles), "groups": []}
    for g in abelian_groups_of_order(n):
        job = SearchJob(g, m, target_angles=tuple(sorted(target_angles)), jobs=jobs)
        report = enumerate_and_classify(job)
        matches = report.records
        out["groups"].append({
            "group": g.name,
            "total_subsets": report.total_enumerated,
            "match_count": len(matches),
            "bidifference_matches": sum(1 for r in matches if r.flags.get("bidifference")),
            "nested_divisible_matches": sum(
                1 for r in matches if r.flags.get("nested_divisible")
            ),
            "proper_chain_matches": sum(
                1
                for r in matches
                if r.flags.get("nested_divisible") and r.flags.get("proper_chain")
            ),
        })
    return out
