"""Exhaustive enumeration and classification of generator subsets.

Subsets stream in lexicographic order as (B, m) blocks of element indices,
B <= BLOCK_SIZE, and each block is classified with array operations: the
angle magnitudes of all its rows come from one gather-sum over the character
table, clusters and the ETF/BTF decision from frames, and the set classes
from the diffsets row kernel.  Per-row temporaries are built ROW_CHUNK rows
at a time, so their size is bounded by rows, not by the job; a record is
built only for a subset that passes the filter.  The serial path classifies
each block as it is cut; with jobs > 1 and more than one block a process
pool maps the blocks.  Aggregation merges blocks in index order, so reports
are identical for any worker count.  Full mode walks all C(n, m) subsets;
reduced mode walks the C(n-1, m-1) subsets containing the identity.  That is
not one representative per translation class: a class of m-subsets with
trivial stabilizer has m members containing the identity, and all of them
are kept and counted.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .diffsets import ROW_FLAGS, classify, classify_rows  # noqa: F401 (classify stays importable here)
from .errors import CapacityError, DomainError
from .frames import cluster_rows, etf_btf
from .groups import Element, GroupSpec, full_character_table

SUBSET_CAP = 10**7
BLOCK_SIZE = 4096


def abelian_groups_of_order(n: int) -> tuple[GroupSpec, ...]:
    """Every abelian group of order n, one per isomorphism type.

    Factor n into prime powers and take one partition of each exponent;
    factors are flattened and sorted ascending, e.g. order 8 gives
    Z2xZ2xZ2, Z2xZ4, Z8.
    """
    if n < 2:
        raise DomainError(f"group order must be >= 2, got {n}")
    primes: list[tuple[int, int]] = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            primes.append((d, e))
        d += 1
    if rest > 1:
        primes.append((rest, 1))

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
        [tuple(p**e for e in part) for part in partitions(exp)] for p, exp in primes
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
    angle_tol: float = 1e-7
    jobs: int = 1
    cap: int = SUBSET_CAP

    def subset_count(self) -> int:
        n = self.group.order
        if self.mode == "reduced":
            return math.comb(n - 1, self.m - 1)
        return math.comb(n, self.m)


@dataclass(frozen=True)
class SubsetRecord:
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
        header = [
            "group", "subset", "n", "m",
            "difference_set", "bidifference", "divisible", "relative", "partial",
            "gaussian", "almost", "nested_divisible", "reversible", "regular",
            "lam", "mu", "l", "t", "angles",
        ]
        rows: list[list] = [header]
        for r in self.records:
            fl = r.flags
            rows.append([
                g.name,
                " ".join(g.format_element(x) for x in r.subset),
                g.order,
                self.job.m,
                fl.get("difference_set", False),
                fl.get("bidifference", False),
                fl.get("divisible", False),
                fl.get("relative", False),
                fl.get("partial", False),
                fl.get("gaussian", False),
                fl.get("almost", False),
                fl.get("nested_divisible", False),
                fl.get("reversible", False),
                fl.get("regular", False),
                fl.get("lam", ""),
                fl.get("mu", ""),
                fl.get("l", ""),
                fl.get("t", ""),
                ";".join(f"{a:.12g}" for a in r.angles),
            ])
        return rows


# classes counted in SearchReport.class_counts, in this order
COUNTED = (
    "difference_set", "bidifference", "divisible", "relative",
    "partial", "gaussian", "almost", "nested_divisible", "etf", "btf",
)
ROW_CHUNK = 128  # rows per batch of per-row temporaries


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


def _classify_block(job: SearchJob, block: np.ndarray) -> tuple[list[SubsetRecord], np.ndarray]:
    """Records of the rows of a (B, m) index block that pass the job's filter,
    and the block's class counts in COUNTED order.

    Rows go ROW_CHUNK at a time: magnitudes |sum_j chi_{g_j}(x)| / m as one
    gather-sum over the character table (the same sums, bit for bit, as one
    subset at a time), clusters and ETF/BTF from frames, set classes from
    diffsets.classify_rows.  A record is built only for a row that is kept.
    """
    g, m, tol = job.group, job.m, job.angle_tol
    T = full_character_table(g)
    els = g.elements()
    column = _filter_column(job)
    target = None if job.target_angles is None else np.sort(job.target_angles)
    kept: list[SubsetRecord] = []
    totals = np.zeros(len(COUNTED), dtype=np.int64)
    for a in range(0, len(block), ROW_CHUNK):
        rows = block[a : a + ROW_CHUNK]
        mags = (np.abs(T[:, rows].sum(axis=-1)) / m)[1:].T  # x = 0 is index 0
        c = cluster_rows(mags, tol)
        is_etf, is_btf = etf_btf(g.order, m, c)
        flags = classify_rows(g, rows) if m >= 2 else {}
        cols = {**flags, "etf": is_etf, "btf": is_btf}
        totals += [np.count_nonzero(cols[k]) if k in cols else 0 for k in COUNTED]

        keep = np.ones(len(rows), dtype=bool)
        if target is not None:
            keep &= c.d == len(target)
            first = c.starts[:-1][keep, None] + np.arange(len(target))
            keep[keep] = (np.abs(c.reps[first] - target) <= tol).all(axis=1)
        if column is not None:
            keep &= cols[column] if column in cols else False
        pick = np.flatnonzero(keep)
        if not pick.size:
            continue
        values = {k: v[pick].tolist() for k, v in flags.items()}
        for k in values.keys() - ROW_FLAGS:
            values[k] = [None if v < 0 else v for v in values[k]]
        row_flags = (
            [dict(zip(values, vs)) for vs in zip(*values.values())]
            if values else [{} for _ in pick]
        )
        starts, reps, sizes = c.starts.tolist(), c.reps.tolist(), c.sizes.tolist()
        for i, row, etf, btf, fl in zip(
            pick.tolist(), rows[pick].tolist(), is_etf[pick].tolist(), is_btf[pick].tolist(),
            row_flags,
        ):
            lo, hi = starts[i], starts[i + 1]
            subset = tuple(map(els.__getitem__, row))
            kept.append(SubsetRecord(subset, tuple(reps[lo:hi]), tuple(sizes[lo:hi]), etf, btf, fl))
    return kept, totals


def _index_blocks(job: SearchJob) -> Iterator[np.ndarray]:
    """Subsets in lexicographic order as (B, m) element-index blocks, B <= BLOCK_SIZE."""
    n, m = job.group.order, job.m
    if job.mode == "reduced":
        stream = ((0,) + c for c in itertools.combinations(range(1, n), m - 1))
    else:
        stream = itertools.combinations(range(n), m)
    while block := list(itertools.islice(stream, BLOCK_SIZE)):
        yield np.array(block, dtype=np.intp)


def enumerate_and_classify(job: SearchJob) -> SearchReport:
    """Classify every subset of the job, filter, aggregate deterministically.

    Blocks are classified as they are cut on the serial path; with jobs > 1
    and more than one block, a process pool maps them.  Results merge in
    block order, so the report is the same for any worker count.
    """
    g = job.group
    n = g.order
    if not 1 <= job.m <= n:
        raise DomainError(f"m={job.m} out of range for order {n}")
    if job.mode not in ("full", "reduced"):
        raise DomainError(f"unknown mode {job.mode!r}")
    _filter_column(job)
    total = job.subset_count()
    if total > job.cap:
        raise CapacityError(f"{total} subsets exceed cap {job.cap}")

    t0 = time.perf_counter()
    blocks = _index_blocks(job)
    jobs = max(1, job.jobs)
    if jobs == 1 or total <= BLOCK_SIZE:
        results = (_classify_block(job, b) for b in blocks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_classify_block, itertools.repeat(job), blocks))

    kept: list[SubsetRecord] = []
    totals = np.zeros(len(COUNTED), dtype=np.int64)
    for records, counts in results:
        kept.extend(records)
        totals += counts
    class_counts = {k: v for k, v in zip(COUNTED, totals.tolist()) if v}
    return SearchReport(job, kept, total, class_counts, time.perf_counter() - t0)


def default_jobs() -> int:
    env = os.environ.get("FRAMELAB_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def find_btfs(group: GroupSpec, m: int, jobs: int | None = None) -> SearchReport:
    """All m-subsets generating two-angle tight frames, with their classifications.

    Records carry a `btf_without_bidifference` marker for the headline case:
    a two-angle frame whose generating set has three or more count levels.
    """
    job = SearchJob(group, m, filter_name="btf", jobs=jobs or default_jobs())
    report = enumerate_and_classify(job)
    for r in report.records:
        r.flags["btf_without_bidifference"] = bool(
            r.is_btf and not r.flags.get("bidifference")
        )
    return report


def cross_group_angle_match(
    n: int,
    m: int,
    target_angles: tuple[float, ...],
    tol: float = 1e-7,
    jobs: int | None = None,
) -> dict:
    """Match counts for a target angle set across every abelian group of order n.

    Counts are split by whether the matching subset is a bidifference set or
    carries a nested divisible chain.
    """
    if n > 64:
        raise CapacityError(f"cross-group matching capped at order 64, got {n}")
    out = {"schema": 1, "order": n, "m": m, "target_angles": sorted(target_angles), "groups": []}
    for g in abelian_groups_of_order(n):
        job = SearchJob(
            g, m, target_angles=tuple(sorted(target_angles)), angle_tol=tol,
            jobs=jobs or default_jobs(),
        )
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
